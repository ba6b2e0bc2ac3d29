package buffer

import (
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// gateState is an adjustable Gates implementation for tests.
type gateState struct {
	mu     sync.Mutex
	eosl   map[base.TCID]base.LSN
	lwm    map[base.TCID]base.LSN
	forced base.DLSN
}

func newGateState() *gateState {
	return &gateState{eosl: map[base.TCID]base.LSN{}, lwm: map[base.TCID]base.LSN{}}
}

func (g *gateState) gates() Gates {
	return Gates{
		EOSL: func(tc base.TCID) base.LSN {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.eosl[tc]
		},
		LWM: func(tc base.TCID) base.LSN {
			g.mu.Lock()
			defer g.mu.Unlock()
			return g.lwm[tc]
		},
		ForceDCLog: func(d base.DLSN) {
			g.mu.Lock()
			defer g.mu.Unlock()
			if d > g.forced {
				g.forced = d
			}
		},
	}
}

func (g *gateState) set(tc base.TCID, eosl, lwm base.LSN) {
	g.mu.Lock()
	g.eosl[tc] = eosl
	g.lwm[tc] = lwm
	g.mu.Unlock()
}

func newTestPool(t *testing.T, cfg Config) (*Pool, *storage.PageStore, *gateState) {
	t.Helper()
	store := storage.NewPageStore()
	g := newGateState()
	return New(cfg, store, g.gates()), store, g
}

func dirtyLeaf(p *Pool, store *storage.PageStore, tc base.TCID, lsns ...base.LSN) *page.Page {
	pg := page.NewLeaf(store.AllocPageID())
	for _, l := range lsns {
		pg.Ab.Ensure(tc).Add(l)
		p.MarkDirty(pg, tc, l, 0)
	}
	p.Install(pg)
	return pg
}

func TestFetchMissAndHit(t *testing.T) {
	p, store, _ := newTestPool(t, Config{})
	pg := page.NewLeaf(store.AllocPageID())
	pg.Put(page.Record{Key: "k", Value: []byte("v")})
	store.Write(pg.ID, pg.Encode())

	got, err := p.Fetch(pg.ID)
	if err != nil || got == nil || got.Get("k") == nil {
		t.Fatalf("fetch: %v %v", got, err)
	}
	got2, _ := p.Fetch(pg.ID)
	if got2 != got {
		t.Fatal("second fetch must hit the same frame")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	p.Unpin(pg.ID)
	p.Unpin(pg.ID)
	if missing, err := p.Fetch(base.PageID(9999)); err != nil || missing != nil {
		t.Fatalf("missing page: %v %v", missing, err)
	}
}

func TestCausalityGateBlocksFlush(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	pg := dirtyLeaf(p, store, 1, 10)
	// EOSL(1)=5 < maxApplied=10: flush must not happen.
	g.set(1, 5, 10)
	if err := p.FlushPage(pg.ID, false); err != ErrNotFlushable {
		t.Fatalf("err = %v, want ErrNotFlushable", err)
	}
	if store.Exists(pg.ID) {
		t.Fatal("causality violated: unstable op reached disk")
	}
	// Log catches up: flush proceeds.
	g.set(1, 10, 10)
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	if !store.Exists(pg.ID) || pg.Dirty {
		t.Fatal("flush did not complete")
	}
}

func TestFlushWaitsForEOSLKick(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	pg := dirtyLeaf(p, store, 1, 10)
	g.set(1, 5, 10)
	done := make(chan error, 1)
	go func() { done <- p.FlushPage(pg.ID, true) }()
	select {
	case err := <-done:
		t.Fatalf("flush returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	g.set(1, 10, 10)
	p.Kick()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flush never woke up")
	}
}

func TestFlushEmbedsInSet(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	pg := dirtyLeaf(p, store, 1, 5, 7, 9)
	g.set(1, 9, 0) // log stable, but LWM has not advanced
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	data, _ := store.Read(pg.ID)
	stable, err := page.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	a := stable.Ab.Get(1)
	if a == nil || a.InCount() != 3 {
		t.Fatalf("the flush must embed the set: %v", a)
	}
	if !stable.Ab.Contains(1, 7) || stable.Ab.Contains(1, 6) {
		t.Fatal("stable claims wrong")
	}
}

func TestAdvanceNeverExceedsEOSL(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	pg := dirtyLeaf(p, store, 1, 3)
	// LWM raced ahead of the stable log (replies received for unforced
	// ops): pruning must clamp at EOSL so the stable page never claims
	// idempotence for losable operations.
	g.set(1, 3, 100)
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	data, _ := store.Read(pg.ID)
	stable, _ := page.Decode(data)
	a := stable.Ab.Get(1)
	if a.Low > 3 {
		t.Fatalf("stable Low %d exceeds EOSL 3", a.Low)
	}
	if a.Contains(50) {
		t.Fatal("stable page claims an operation beyond the stable log")
	}
}

func TestDCLogWALGate(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	pg := page.NewLeaf(store.AllocPageID())
	pg.DLSN = 42 // latest SMO reflected in the page
	p.MarkDirty(pg, 0, 0, 42)
	p.Install(pg)
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	forced := g.forced
	g.mu.Unlock()
	if forced < 42 {
		t.Fatalf("DC-log not forced before page write: %d", forced)
	}
}

func TestEvictionRespectsGates(t *testing.T) {
	p, store, g := newTestPool(t, Config{Capacity: 2})
	// Page A flushable, page B gated.
	a := dirtyLeaf(p, store, 1, 1)
	b := dirtyLeaf(p, store, 2, 50)
	g.set(1, 10, 10)
	g.set(2, 0, 0) // B's TC log not stable
	p.Unpin(a.ID)
	p.Unpin(b.ID)
	// Insert a third page to force eviction.
	c := dirtyLeaf(p, store, 1, 2)
	p.Unpin(c.ID)
	// B must never be evicted to disk while gated.
	if store.Exists(b.ID) {
		t.Fatal("gated page leaked to disk via eviction")
	}
}

func TestFlushAllWithPredicate(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	a := dirtyLeaf(p, store, 1, 1)
	b := dirtyLeaf(p, store, 1, 2)
	g.set(1, 10, 10)
	err := p.FlushAll(false, func(pg *page.Page) bool { return pg.ID == a.ID })
	if err != nil {
		t.Fatal(err)
	}
	if !store.Exists(a.ID) || store.Exists(b.ID) {
		t.Fatal("predicate not honored")
	}
}

func TestDropAndFree(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	g.set(1, 10, 10)
	pg := dirtyLeaf(p, store, 1, 1)
	p.FlushPage(pg.ID, false)
	p.Unpin(pg.ID)
	p.Drop(pg.ID, true)
	if p.Cached() != 0 || store.Exists(pg.ID) {
		t.Fatal("drop+free incomplete")
	}
}

func TestMarkDirtyTracksFirstDirtyAndRecDLSN(t *testing.T) {
	p, store, _ := newTestPool(t, Config{})
	pg := page.NewLeaf(store.AllocPageID())
	p.MarkDirty(pg, 1, 10, 0)
	p.MarkDirty(pg, 1, 5, 0)
	p.MarkDirty(pg, 1, 20, 0)
	if pg.FirstDirty[1] != 5 {
		t.Fatalf("FirstDirty = %d want 5", pg.FirstDirty[1])
	}
	p.MarkDirty(pg, 0, 0, 9)
	p.MarkDirty(pg, 0, 0, 3)
	if pg.RecDLSN != 3 {
		t.Fatalf("RecDLSN = %d want 3", pg.RecDLSN)
	}
}

func TestConcurrentFetchSingleFrame(t *testing.T) {
	p, store, _ := newTestPool(t, Config{})
	pg := page.NewLeaf(store.AllocPageID())
	store.Write(pg.ID, pg.Encode())
	var wg sync.WaitGroup
	frames := make([]*page.Page, 16)
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := p.Fetch(pg.ID)
			if err != nil {
				t.Error(err)
			}
			frames[i] = f
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(frames); i++ {
		if frames[i] != frames[0] {
			t.Fatal("concurrent fetch produced distinct frames for one page")
		}
	}
}
