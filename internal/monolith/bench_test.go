package monolith

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchEngine is internal/tc's benchPair on the integrated engine: the same
// keys, 64-byte values, preload and write transaction, and a checkpoint every
// 2 000 transactions, so that
//
//	go test -run '^$' -bench WriteTxn -benchmem ./internal/tc ./internal/monolith
//
// compares the two engines over the pages, buffer pool and page store they
// share.
type benchEngine struct {
	e    *Engine
	keys []string
	val  []byte
	rng  *rand.Rand
	n    int
}

// newBenchEngine is an engine with the table "kv" loaded with keys keys in
// the repo benchmark's preload shape — 100 Upserts of 64-byte values per
// transaction and, unless ckptEvery is 0, a checkpoint every ckptEvery
// transactions — and then checkpointed, as the preload ends.
func newBenchEngine(tb testing.TB, keys, ckptEvery int) *benchEngine {
	tb.Helper()
	e, err := New(Config{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := e.CreateTable("kv"); err != nil {
		tb.Fatal(err)
	}
	p := &benchEngine{e: e, keys: make([]string, keys), val: make([]byte, 64), rng: rand.New(rand.NewSource(1))}
	for i := range p.keys {
		p.keys[i] = fmt.Sprintf("c0/k%07d", i)
	}
	const perTxn = 100
	for lo, n := 0, 1; lo < len(p.keys); lo, n = lo+perTxn, n+1 {
		x := e.Begin()
		for _, k := range p.keys[lo:min(lo+perTxn, len(p.keys))] {
			if err := x.Upsert("kv", k, p.val); err != nil {
				tb.Fatal(err)
			}
		}
		if err := x.Commit(); err != nil {
			tb.Fatal(err)
		}
		if ckptEvery != 0 && n%ckptEvery == 0 {
			p.checkpoint(tb)
		}
	}
	p.checkpoint(tb)
	return p
}

func (p *benchEngine) checkpoint(tb testing.TB) {
	if _, err := p.e.Checkpoint(); err != nil {
		tb.Fatal(err)
	}
}

// writeTxn is the repo benchmark's write transaction: four Upserts of keys a
// stride apart from a uniform start — distinct, and on different leaves —
// then Commit.
func (p *benchEngine) writeTxn(tb testing.TB) {
	x := p.e.Begin()
	at := p.rng.Intn(len(p.keys))
	for i := 0; i < 4; i++ {
		if err := x.Upsert("kv", p.keys[(at+i*2503)%len(p.keys)], p.val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := x.Commit(); err != nil {
		tb.Fatal(err)
	}
	if p.n++; p.n%2000 == 0 {
		p.checkpoint(tb)
	}
}

// BenchmarkWriteTxn is internal/tc's BenchmarkWriteTxn on the integrated
// engine: 10 000 loaded keys, all of them cached.
func BenchmarkWriteTxn(b *testing.B) {
	p := newBenchEngine(b, 10_000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.writeTxn(b)
	}
}

// BenchmarkEvictingWriteTxn is internal/tc's BenchmarkEvictingWriteTxn on the
// integrated engine: 200 000 keys, loaded with a checkpoint every 10
// transactions, about nine times what the pool holds, and fresh values every
// transaction. Beside the time it reports page bytes written (page-B/txn),
// write-backs (flushes/txn) and misses (misses/txn).
func BenchmarkEvictingWriteTxn(b *testing.B) {
	p := newBenchEngine(b, 200_000, 10)
	before := p.e.Pool().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.rng.Read(p.val)
		p.writeTxn(b)
	}
	b.StopTimer()
	st, n := p.e.Pool().Stats(), float64(b.N)
	b.ReportMetric(float64(st.PageBytes-before.PageBytes)/n, "page-B/txn")
	b.ReportMetric(float64(st.Flushes-before.Flushes)/n, "flushes/txn")
	b.ReportMetric(float64(st.Misses-before.Misses)/n, "misses/txn")
}

// TestWriteTxnAllocs pins what writeTxn allocates on the integrated engine:
// at most 21 objects and 3 328 bytes (it measures 21 and about 3 070). Per
// Upsert that is the log record, its payload, grown as the page ID, the
// operation and the prior value are appended to it, the copy of the prior
// value, and the page's copy of the value written; and the Txn. internal/tc's TestWriteTxnAllocs pins the same transaction at 10
// objects and 2 560 bytes: the TC logs one batch per commit from pooled
// scratch, where this engine logs a record per write.
func TestWriteTxnAllocs(t *testing.T) {
	p := newBenchEngine(t, 10_000, 0)
	for i := 0; i < 200; i++ {
		p.writeTxn(t) // pages past their first splits
	}
	if got := testing.AllocsPerRun(2000, func() { p.writeTxn(t) }); got > 21 {
		t.Fatalf("4 x Upsert + Commit = %.1f allocs, want <= 21", got)
	} else {
		t.Logf("4 x Upsert + Commit = %.1f allocs", got)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.writeTxn(b)
		}
	})
	if got := r.AllocedBytesPerOp(); got > 3328 {
		t.Fatalf("4 x Upsert + Commit = %d B allocated, want <= 3328", got)
	} else {
		t.Logf("4 x Upsert + Commit = %d B allocated", got)
	}
}
