package tc

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/page"
)

// benchPair is the repo benchmark's direct_fit shape in one process: one TC
// calling one in-process dc.DC, a table of 10 000 loaded keys with 64-byte
// values, and a checkpoint every 2 000 transactions to keep the log short.
type benchPair struct {
	tc   *TC
	dc   *dc.DC
	keys []string
	val  []byte
	rng  *rand.Rand
	n    int
}

// newDirectTC is a TC over one in-process dc.DC, configured by cfg, with the
// table "kv": the deployment of the repo benchmark's direct workloads.
func newDirectTC(tb testing.TB, cfg dc.Config) (*TC, *dc.DC) {
	tb.Helper()
	d, err := dc.New(cfg)
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
	return tcx, d
}

func newBenchPair(tb testing.TB) *benchPair {
	tb.Helper()
	tcx, d := newDirectTC(tb, dc.Config{Name: "dc0"})
	tb.Cleanup(tcx.Close)
	p := &benchPair{tc: tcx, dc: d, keys: loadKeys(10_000), val: make([]byte, 64), rng: rand.New(rand.NewSource(1))}
	// One checkpoint after the load, as the repo benchmark's preload ends
	// with one: the timed transactions start over stable pages and an empty
	// redo tail.
	load(tb, tcx, p.keys, 0, false)
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return p
}

// writeTxn is the repo benchmark's write transaction: four Upserts of keys
// the transaction never read (each takes an X lock and an op record, logged
// redo-only with the commit record, so nothing is pre-read), then Commit.
// Versioned, each Upsert keeps the key's committed head as its before version.
func (p *benchPair) writeTxn(tb testing.TB, versioned bool) {
	x := p.tc.Begin(context.Background(), TxnOptions{Versioned: versioned})
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
		p.writeTxn(b, false)
	}
}

// BenchmarkEvictingWriteTxn is BenchmarkWriteTxn in the repo benchmark's
// direct_big shape: 200 000 keys, preloaded as direct_big preloads them, about
// nine times what the pool holds, so nearly every Upsert misses and evicts a
// page an earlier one left dirty, which is written back first. Every
// transaction writes fresh values. Beside the time it reports what the
// transactions cost the page store: page bytes written (page-B/txn),
// write-backs (flushes/txn) and misses (misses/txn).
func BenchmarkEvictingWriteTxn(b *testing.B) {
	tcx, d := newDirectTC(b, dc.Config{Name: "dc0"})
	b.Cleanup(tcx.Close)
	p := &benchPair{tc: tcx, keys: loadKeys(200_000), val: make([]byte, 64), rng: rand.New(rand.NewSource(1))}
	load(b, tcx, p.keys, 10, false)
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		b.Fatal(err)
	}
	before := d.Pool().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.rng.Read(p.val)
		p.writeTxn(b, false)
	}
	b.StopTimer()
	st, n := d.Pool().Stats(), float64(b.N)
	b.ReportMetric(float64(st.PageBytes-before.PageBytes)/n, "page-B/txn")
	b.ReportMetric(float64(st.Flushes-before.Flushes)/n, "flushes/txn")
	b.ReportMetric(float64(st.Misses-before.Misses)/n, "misses/txn")
}

// BenchmarkVersionedWriteTxn is BenchmarkWriteTxn with versioned writes
// (§6.2.2): the same keys and checkpoints, and every Upsert makes the key's
// committed head its before version, the version GC pruning below the
// horizon as it goes. The checkpoints write the pages back, and what they
// write is reported as BenchmarkEvictingWriteTxn reports it: page bytes
// (page-B/txn) and write-backs (flushes/txn). A write-back collects the
// versions below the DC's GC horizon, so a key's before version is written
// once at most, and not at every checkpoint until the key is written again.
func BenchmarkVersionedWriteTxn(b *testing.B) {
	p := newBenchPair(b)
	before := p.dc.Pool().Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.writeTxn(b, true)
	}
	b.StopTimer()
	st, n := p.dc.Pool().Stats(), float64(b.N)
	b.ReportMetric(float64(st.PageBytes-before.PageBytes)/n, "page-B/txn")
	b.ReportMetric(float64(st.Flushes-before.Flushes)/n, "flushes/txn")
}

// BenchmarkLoad is the repo benchmark's preload, its setup_s, in one process:
// 200 000 keys in ascending order, 100 Upserts of 64-byte values per
// transaction and a checkpoint every 10 transactions, into a fresh TC and
// in-process DC each time. versioned=false is direct_big's preload;
// versioned=true is the shape of tcp_mixed's, whose writes keep before
// versions. One op is the whole load; ns/key divides it by the keys, and
// fetches/key counts the DC's buffer-pool fetches (hits and misses) per key.
// A commit's writes reach the DC as runs of ascending keys, which descend the
// tree once per leaf (btree.Tree.ApplyRun), and a transaction's scratch keeps
// what it grew to from commit to commit (txnScratch). On a 2-vCPU machine,
// medians of three alternating runs a side: unversioned 1 792 ns/key, 0.56
// fetches/key and 216 MB/op, where a descent per key and a scratch regrown
// per commit cost 2 372 ns/key, 3.35 fetches/key and 363 MB/op; versioned
// 1 953 ns/key, 0.63 fetches/key and 249 MB/op, against 2 479, 3.43 and 396.
// It is where a hunt for the load's cost starts, as BenchmarkWriteTxn is for
// a transaction's:
//
//	go test -run '^$' -bench Load -benchmem -cpuprofile cpu.out ./internal/tc
func BenchmarkLoad(b *testing.B) {
	const keys = 200_000
	names := loadKeys(keys)
	for _, versioned := range []bool{false, true} {
		b.Run(fmt.Sprintf("versioned=%v", versioned), func(b *testing.B) {
			var fetches uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tcx, d := newDirectTC(b, dc.Config{Name: "dc0"})
				st := d.Pool().Stats()
				fetches -= st.Hits + st.Misses
				b.StartTimer()
				load(b, tcx, names, 10, versioned)
				b.StopTimer()
				st = d.Pool().Stats()
				fetches += st.Hits + st.Misses
				tcx.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
			b.ReportMetric(float64(fetches)/float64(b.N*keys), "fetches/key")
		})
	}
}

// loadKeys returns n keys in ascending order.
func loadKeys(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("c0/k%07d", i)
	}
	return names
}

// load writes names into the table "kv" in the preload's shape: 100 Upserts
// of 64-byte values per transaction, versioned or not, and, unless ckptEvery
// is 0, a checkpoint every ckptEvery transactions.
func load(tb testing.TB, tcx *TC, names []string, ckptEvery int, versioned bool) {
	const perTxn = 100
	val := make([]byte, 64)
	ctx := context.Background()
	for lo, n := 0, 1; lo < len(names); lo, n = lo+perTxn, n+1 {
		x := tcx.Begin(ctx, TxnOptions{Versioned: versioned})
		for _, k := range names[lo:min(lo+perTxn, len(names))] {
			if err := x.Upsert("kv", k, val); err != nil {
				tb.Fatal(err)
			}
		}
		if err := x.Commit(); err != nil {
			tb.Fatal(err)
		}
		if ckptEvery != 0 && n%ckptEvery == 0 {
			if _, err := tcx.Checkpoint(ctx); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestLoadWithoutCheckpointsFillsItsLeaves: 16 000 ascending keys, 100 per
// transaction, with no checkpoint, into a DC whose pool holds every page, so
// no page is flushed and only writes prune the abstract LSNs. Each write
// prunes its TC's {LSNin} to the TC's low-water mark, so a leaf's set holds
// what is in flight (at most a transaction's 100 LSNs, well under 200) and the
// leaves fill up to the split threshold. A DC that pruned only at flush kept
// every LSN of the load in the last leaf's set, 16 000 of them, and since
// page size counted the set the leaves split at 1.3 records each.
func TestLoadWithoutCheckpointsFillsItsLeaves(t *testing.T) {
	tcx, d := newDirectTC(t, dc.Config{Name: "dc0", CacheCapacity: 1 << 15})
	defer tcx.Close()
	names := loadKeys(16_000)
	load(t, tcx, names, 0, false)
	var leaves, recs, maxIn int
	err := d.Tree("kv").Scan("", func(leaf *page.Page) bool {
		leaves++
		recs += len(leaf.Recs)
		maxIn = max(maxIn, leaf.Ab.InCountTotal())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Pool().Stats(); st.Flushes != 0 || st.Evictions != 0 {
		t.Fatalf("the pool flushed %d and evicted %d pages: a flush prunes too", st.Flushes, st.Evictions)
	}
	if recs != len(names) {
		t.Fatalf("the leaves hold %d records, want %d", recs, len(names))
	}
	if maxIn > 200 || recs < 10*leaves {
		t.Fatalf("a leaf holds %d LSNs in its {LSNin} sets (want at most 200), and %d leaves average %.1f records (want at least 10)",
			maxIn, leaves, float64(recs)/float64(leaves))
	}
	t.Logf("%d leaves, %.1f records each; at most %d LSNs in a leaf's {LSNin} sets", leaves, float64(recs)/float64(leaves), maxIn)
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
// DC together: at most 10 objects (it measures 7, and 8 or more under -race,
// whose sync.Pool drops a quarter of what it is given) and 2 560 bytes (it
// measures about 1 700). What is left is what outlives the transaction or is
// the DC's — the Txn itself, the results slab and its pointer slice at the DC,
// the copies the DC must make of each value written (page.Decode's aliasing
// contract) and what the DC's pages grow by now and then. An abstract LSN
// does not grow: a write prunes it before it adds to it.
// Everything the transaction uses on its own goroutine — the cache map, the
// queue and its slab, the payload buffer — comes from the scratch pool.
// Nothing is per key at the TC: no lock state, holder map or held map, no
// base.Op, no log record, no payload grown by doubling.
func TestWriteTxnAllocs(t *testing.T) {
	p := newBenchPair(t)
	for i := 0; i < 200; i++ {
		p.writeTxn(t, false) // free lists filled, pages past their first splits
	}
	if got := testing.AllocsPerRun(2000, func() { p.writeTxn(t, false) }); got > 10 {
		t.Fatalf("4 x Upsert + Commit = %.1f allocs, want <= 10", got)
	} else {
		t.Logf("4 x Upsert + Commit = %.1f allocs", got)
	}
	if raceEnabled {
		return // the race detector's pool keeps three scratches of four
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.writeTxn(b, false)
		}
	})
	if got := r.AllocedBytesPerOp(); got > 2560 {
		t.Fatalf("4 x Upsert + Commit = %d B allocated, want <= 2560", got)
	} else {
		t.Logf("4 x Upsert + Commit = %d B allocated", got)
	}
}

// TestBulkCommitAllocs: a steady stream of 100-Upsert commits into an
// in-process DC allocates the DC's one copy of each value written and a
// small constant per commit — the Txn, and the results of the DC's two
// batches — and nothing that grows with the commit: the scratch it was handed
// kept the queue, records, send list, payload buffer and cache map the last
// bulk commit grew. The collector is off, so that it does not empty
// scratchPool between commits; the race detector's pool drops scratches at
// random, so the bound holds only without it.
func TestBulkCommitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tcx, _ := newDirectTC(t, dc.Config{Name: "dc0"})
	defer tcx.Close()
	names := loadKeys(100)
	commit := func() { load(t, tcx, names, 0, false) } // one transaction of 100 Upserts
	for i := 0; i < 20; i++ {
		commit()
	}
	const perCommit = 8
	got := testing.AllocsPerRun(100, commit)
	if limit := float64(len(names) + perCommit); got > limit {
		t.Fatalf("a 100-Upsert commit allocates %.1f objects, want at most %.0f: one value copy a write and %d more",
			got, limit, perCommit)
	}
	t.Logf("a 100-Upsert commit allocates %.1f objects", got)
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
