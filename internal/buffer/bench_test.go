package buffer

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// BenchmarkEvictFetchCycle is what one write to a page outside the pool
// costs the cache, with nothing else of the DC around it: 1 024 leaves of 21
// records (about what a 4 KiB page of the repo benchmark holds) behind a pool
// of 64 frames, visited in order so that every fetch misses, reads and
// decodes its page and evicts the coldest frame, which the visit before left
// dirty and so encodes and writes it first. One op is one such cycle.
func BenchmarkEvictFetchCycle(b *testing.B) {
	const pages, recs = 1024, 21
	store := storage.NewPageStore()
	open := func(base.TCID) base.LSN { return 1 << 62 }
	pool := New(Config{Capacity: 64}, store, Gates{EOSL: open, LWM: open})
	val := bytes.Repeat([]byte("v"), 150)
	ids := make([]base.PageID, pages)
	for i := range ids {
		pg := page.NewLeaf(store.AllocPageID())
		for r := 0; r < recs; r++ {
			pg.Put(page.Record{Key: fmt.Sprintf("key%04d-%02d", i, r), Owner: 1, Value: val})
		}
		pg.Ab.Ensure(1).Add(1)
		ids[i] = pg.ID
		store.Write(pg.ID, pg.Encode())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%pages]
		pg, err := pool.Fetch(id)
		if err != nil || pg == nil {
			b.Fatalf("fetch %d: %v %v", id, pg, err)
		}
		lsn := base.LSN(i + 2)
		pg.L.Lock()
		pg.Recs[i%recs].Value = val
		pg.Ab.Ensure(1).Add(lsn)
		pool.MarkDirty(pg, 1, lsn, 0)
		pg.L.Unlock()
		pool.Unpin(id)
	}
	b.StopTimer()
	if st := pool.Stats(); b.N > 2*pages && (st.Hits != 0 || st.Evictions < uint64(b.N)-64 || st.Flushes < st.Evictions) {
		b.Fatalf("not the cycle it claims to be: %+v over %d ops", st, b.N)
	}
}
