package buffer

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// evictFetchCycle is what one write to a page outside the pool costs the
// cache, with nothing else of the DC around it: 1 024 leaves of 21 records
// (about what a 4 KiB page of the repo benchmark holds) behind a pool of 64
// frames, visited in order so that every fetch misses, reads and decodes its
// page and evicts the coldest frame, which the visit before left dirty and so
// encodes and writes it first. cycle(i) is one such cycle, the i-th.
func evictFetchCycle(tb testing.TB) (pool *Pool, pages int, cycle func(i int)) {
	const recs = 21
	pages = 1024
	store := storage.NewPageStore()
	open := func(base.TCID) base.LSN { return 1 << 62 }
	gates := Gates{EOSL: open, LWM: open}
	// The pages are written through a pool of their own, as a DC writes what
	// it loads, and the cycles run on a cold one.
	loader := New(Config{Capacity: 64}, store, gates)
	val := bytes.Repeat([]byte("v"), 150)
	ids := make([]base.PageID, pages)
	for i := range ids {
		pg := page.NewLeaf(store.AllocPageID())
		for r := 0; r < recs; r++ {
			pg.Put(page.Record{Key: fmt.Sprintf("key%04d-%02d", i, r), Owner: 1, Value: val})
		}
		pg.Ab.Ensure(1).Add(1)
		ids[i] = pg.ID
		loader.Install(pg)
		loader.Unpin(pg.ID)
	}
	if err := loader.FlushAll(false, nil); err != nil {
		tb.Fatal(err)
	}
	pool = New(Config{Capacity: 64}, store, gates)
	return pool, pages, func(i int) {
		id := ids[i%pages]
		pg, err := pool.Fetch(id)
		if err != nil || pg == nil {
			tb.Fatalf("fetch %d: %v %v", id, pg, err)
		}
		lsn := base.LSN(i + 2)
		pg.L.Lock()
		r := pg.Recs[i%recs]
		r.Value = val
		pg.Replace(&pg.Recs[i%recs], r)
		pg.Ab.Ensure(1).Add(lsn)
		pool.MarkDirty(pg, 1, lsn, 0)
		pg.L.Unlock()
		pool.Unpin(id)
	}
}

// BenchmarkEvictFetchCycle: one op is one evictFetchCycle.
func BenchmarkEvictFetchCycle(b *testing.B) {
	pool, pages, cycle := evictFetchCycle(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
	b.StopTimer()
	if st := pool.Stats(); b.N > 2*pages && (st.Hits != 0 || st.Evictions < uint64(b.N)-64 || st.Flushes < st.Evictions) {
		b.Fatalf("not the cycle it claims to be: %+v over %d ops", st, b.N)
	}
}

// TestEvictFetchCycleAllocs pins what a miss that evicts a dirty page
// allocates once the pool is full: no more objects than the victims'
// write-backs write full images, which the store keeps. A delta frame
// allocates nothing: it is encoded into the pool's buffer, which every
// write-back takes and gives back, and appended where the chain is, into the
// room its image was written with. The miss takes
// over the frame the eviction before it freed — page, record array,
// abstract-LSN table, FirstDirty map, change marks, LRU node — and decodes
// into it; a pool that let the evicted frame go made 9 a cycle, and a store
// that moved a chain into a larger buffer whenever a frame outgrew it made
// one more each time. The cycles run long enough for every page's chain to
// fill and be consolidated.
func TestEvictFetchCycleAllocs(t *testing.T) {
	pool, pages, cycle := evictFetchCycle(t)
	i := 0
	for ; i < 2*pages; i++ { // every page read once, the pool full, a frame spare
		cycle(i)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := pool.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for end := i + 16*pages; i < end; i++ {
		cycle(i)
	}
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs
	st := pool.Stats()
	if st.Hits != before.Hits || st.Evictions-before.Evictions < uint64(16*pages) {
		t.Fatalf("not the cycle it claims to be: %+v, then %+v", before, st)
	}
	images := st.Images - before.Images
	if images == 0 || mallocs > images {
		t.Fatalf("%d evict-fetch cycles allocate %d objects and write %d full images: want at least one image, and no more objects than images",
			16*pages, mallocs, images)
	}
	t.Logf("%d evict-fetch cycles: %d full images, %d allocations", 16*pages, images, mallocs)
}
