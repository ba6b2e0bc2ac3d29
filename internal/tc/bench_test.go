package tc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// benchPair is the repo benchmark's direct_fit shape in one process: one TC
// calling one in-process dc.DC, a table of 10 000 loaded keys with 64-byte
// values, and a checkpoint every 2 000 transactions to keep the log short.
type benchPair struct {
	tc   *TC
	keys []string
	val  []byte
	rng  *rand.Rand
	n    int
}

func newBenchPair(tb testing.TB) *benchPair {
	tb.Helper()
	d, err := dc.New(dc.Config{Name: "dc0"})
	if err != nil {
		tb.Fatal(err)
	}
	if err := d.CreateTable("kv"); err != nil {
		tb.Fatal(err)
	}
	tcx, err := New(Config{ID: 1}, []base.Service{d}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(tcx.Close)
	p := &benchPair{tc: tcx, val: make([]byte, 64), rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 10_000; i++ {
		p.keys = append(p.keys, fmt.Sprintf("c0/k%07d", i))
	}
	for lo := 0; lo < len(p.keys); lo += 50 {
		x := tcx.Begin(context.Background(), TxnOptions{})
		for _, k := range p.keys[lo : lo+50] {
			if err := x.Upsert("kv", k, p.val); err != nil {
				tb.Fatal(err)
			}
		}
		if err := x.Commit(); err != nil {
			tb.Fatal(err)
		}
		// Checkpointed as it goes, or the load's abstract LSNs pile up in
		// the pages and splitting them dominates every profile.
		if _, err := tcx.Checkpoint(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// writeTxn is the repo benchmark's write transaction: four Upserts of keys
// the transaction never read (each takes an X lock and an op record, logged
// redo-only with the commit record, so nothing is pre-read), then Commit.
func (p *benchPair) writeTxn(tb testing.TB) {
	x := p.tc.Begin(context.Background(), TxnOptions{})
	// Four keys a stride apart from a uniform start: distinct, and on
	// different leaves like the benchmark's four uniform draws.
	at := p.rng.Intn(len(p.keys))
	for i := 0; i < 4; i++ {
		k := p.keys[(at+i*2503)%len(p.keys)]
		if err := x.Upsert("kv", k, p.val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := x.Commit(); err != nil {
		tb.Fatal(err)
	}
	if p.n++; p.n%2000 == 0 {
		if _, err := p.tc.Checkpoint(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkWriteTxn is where a hunt for the TC's own cost per transaction
// starts:
//
//	go test -run '^$' -bench WriteTxn -cpuprofile cpu.out -memprofile mem.out ./internal/tc
func BenchmarkWriteTxn(b *testing.B) {
	p := newBenchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.writeTxn(b)
	}
}

// readTxn is four locked point reads of loaded keys (each takes an S lock and
// one PerformBatch of one unlogged operation), then a Commit that logs
// nothing. No workload of the repo benchmark issues a locked read — its reads
// are bounded snapshots — so this is where that path is measured.
func (p *benchPair) readTxn(tb testing.TB) {
	x := p.tc.Begin(context.Background(), TxnOptions{})
	at := p.rng.Intn(len(p.keys))
	for i := 0; i < 4; i++ {
		k := p.keys[(at+i*2503)%len(p.keys)]
		if _, ok, err := x.Read("kv", k); err != nil || !ok {
			tb.Fatalf("read %s: %v %v", k, ok, err)
		}
	}
	if err := x.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkLockedReadTxn is BenchmarkWriteTxn's counterpart for the unlogged
// send path (Txn.sendUnlogged):
//
//	go test -run '^$' -bench 'WriteTxn|LockedReadTxn' -benchmem ./internal/tc
func BenchmarkLockedReadTxn(b *testing.B) {
	p := newBenchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.readTxn(b)
	}
}

// TestWriteTxnAllocs pins what that transaction allocates, TC and in-process
// DC together: at most 10 objects (it measures 8, and 10 under -race, whose
// sync.Pool drops a quarter of what it is given) and 2 560 bytes (it measures
// about 1 800). What is left is what outlives the transaction or is the DC's —
// the Txn itself, the results slab and its pointer slice at the DC, the
// copies the DC must make of each value written (page.Decode's aliasing
// contract) and what the DC's pages and abstract LSNs grow by now and then.
// Everything the transaction uses on its own goroutine — the cache map, the
// queue and its slab, the payload buffer — comes from the scratch pool.
// Nothing is per key at the TC: no lock state, holder map or held map, no
// base.Op, no log record, no payload grown by doubling.
func TestWriteTxnAllocs(t *testing.T) {
	p := newBenchPair(t)
	for i := 0; i < 200; i++ {
		p.writeTxn(t) // free lists filled, pages past their first splits
	}
	if got := testing.AllocsPerRun(2000, func() { p.writeTxn(t) }); got > 10 {
		t.Fatalf("4 x Upsert + Commit = %.1f allocs, want <= 10", got)
	} else {
		t.Logf("4 x Upsert + Commit = %.1f allocs", got)
	}
	if raceEnabled {
		return // the race detector's pool keeps three scratches of four
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.writeTxn(b)
		}
	})
	if got := r.AllocedBytesPerOp(); got > 2560 {
		t.Fatalf("4 x Upsert + Commit = %d B allocated, want <= 2560", got)
	} else {
		t.Logf("4 x Upsert + Commit = %d B allocated", got)
	}
}

// TestLockedReadTxnAllocs pins what readTxn allocates, TC and in-process DC
// together: 9 objects (10 under -race). A point read's operation, and the
// batch of one it is sent as, come from the transaction's scratch; what is
// left is the Txn and, per read, the DC's results (one allocation for a batch
// of one) and its copy of the value.
func TestLockedReadTxnAllocs(t *testing.T) {
	p := newBenchPair(t)
	for i := 0; i < 200; i++ {
		p.readTxn(t)
	}
	want := 9.0
	if raceEnabled {
		want = 10
	}
	if got := testing.AllocsPerRun(2000, func() { p.readTxn(t) }); got > want {
		t.Fatalf("4 x Read + Commit = %.1f allocs, want <= %.0f", got, want)
	} else {
		t.Logf("4 x Read + Commit = %.1f allocs", got)
	}
}
