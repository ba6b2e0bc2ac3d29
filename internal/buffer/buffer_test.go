package buffer

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// TestFetchNeverInstallsAStaleImage: a miss reads the page's stable image,
// decodes it, and only then takes the pool's lock to install it. If a frame
// of the same page came, was written to, written back and evicted meanwhile,
// the image decoded is stale, and installing it would lose every write that
// frame carried. The other frame's whole life — another writer's, stood in
// for by an Install — is placed between the decode and the install
// (fetchDecoded).
func TestFetchNeverInstallsAStaleImage(t *testing.T) {
	p, store, _ := newTestPool(t, Config{Capacity: 1})
	old := page.NewLeaf(store.AllocPageID())
	old.Put(page.Record{Key: "k", Value: []byte("old")})
	store.Write(old.ID, old.Encode())
	other := page.NewLeaf(store.AllocPageID())
	store.Write(other.ID, other.Encode())

	lived := false
	fetchDecoded = func(id base.PageID) {
		if id != old.ID || lived {
			return
		}
		lived = true
		// The fetch has decoded the old image. Another frame of the page
		// lives and dies: written, then evicted — so made stable — by a fetch
		// of another page into the one-page pool.
		newer := page.NewLeaf(old.ID)
		newer.Put(page.Record{Key: "k", Value: []byte("new")})
		p.Install(newer)
		p.Unpin(old.ID)
		if pg, err := p.Fetch(other.ID); err != nil || pg == nil {
			t.Fatal(pg, err)
		}
		p.Unpin(other.ID)
		if p.Cached() != 1 || store.Stats().PageWrites != 3 {
			t.Fatalf("the newer frame was not evicted: %d cached, %d page writes", p.Cached(), store.Stats().PageWrites)
		}
	}
	t.Cleanup(func() { fetchDecoded = nil })
	pg, err := p.Fetch(old.ID)
	if err != nil || !lived {
		t.Fatalf("fetch: %v, the newer frame lived %v", err, lived)
	}
	if rec := pg.Get("k"); rec == nil || string(rec.Value) != "new" {
		t.Fatalf("the fetch installed the image it read before the newer frame was written back: k = %+v", rec)
	}
	p.Unpin(old.ID)
}

func TestCausalityGateBlocksFlush(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	pg := dirtyLeaf(p, store, 1, 10)
	// EOSL(1)=5 < maxApplied=10: flush must not happen.
	g.set(1, 5, 10)
	if err := p.FlushPage(pg.ID, false); err != ErrNotFlushable {
		t.Fatalf("err = %v, want ErrNotFlushable", err)
	}
	if _, ok := store.Read(pg.ID); ok {
		t.Fatal("causality violated: unstable op reached disk")
	}
	// Log catches up: flush proceeds.
	g.set(1, 10, 10)
	if err := p.FlushPage(pg.ID, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Read(pg.ID); !ok || pg.Dirty {
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
	if a == nil || stable.Ab.InCountTotal() != 3 {
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
	if _, ok := store.Read(b.ID); ok {
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
	_, aOK := store.Read(a.ID)
	if _, bOK := store.Read(b.ID); !aOK || bOK {
		t.Fatal("predicate not honored")
	}
}

func TestDropAndFree(t *testing.T) {
	p, store, g := newTestPool(t, Config{})
	g.set(1, 10, 10)
	pg := dirtyLeaf(p, store, 1, 1)
	p.FlushPage(pg.ID, false)
	p.Unpin(pg.ID)
	p.Drop(pg.ID)
	if _, ok := store.Read(pg.ID); p.Cached() != 0 || !ok {
		t.Fatal("drop must forget the frame and keep the stable page")
	}
	store.Free(pg.ID)
	if pg, err := p.Fetch(pg.ID); pg != nil || err != nil {
		t.Fatalf("a freed page fetched: %v %v", pg, err)
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

// TestRecycledFrameServesOnePage: a miss decodes into the page an eviction
// freed, so a frame recycled while anyone could still reach it would show one
// caller another page's records. Most evictions write a delta frame, from the
// four writers at once, each into a buffer of its own; some frames must be
// written while another write-back is under way. Writers over 256 pages
// behind 8 frames, so that nearly every fetch evicts a dirty page and takes
// over a frame, check under the latch that every record of the page they hold
// names that page and that its size is its own (page.Page.CheckSize), and
// bump the page's counter; at the end every page counts every write made to
// it, none lost to a frame served twice or a stale image installed. One
// writer writes as a TC whose log is stable only up to a few LSNs back, so
// some evictions find the causality gate closed and keep their victim.
func TestRecycledFrameServesOnePage(t *testing.T) {
	const pages, recs, workers, ops = 256, 4, 4, 2000
	var lsn, lag atomic.Uint64
	lag.Store(8)
	eosl := func(tc base.TCID) base.LSN {
		if tc == 2 {
			n := lsn.Load()
			return base.LSN(n - min(n, lag.Load()))
		}
		return 1 << 62
	}
	store := storage.NewPageStore()
	p := New(Config{Capacity: 8}, store, Gates{EOSL: eosl, LWM: eosl})
	ids := make([]base.PageID, pages)
	for i := range ids {
		pg := page.NewLeaf(store.AllocPageID())
		for r := 0; r < recs; r++ {
			pg.Put(page.Record{Key: fmt.Sprintf("%04d/%d", pg.ID, r), Value: []byte("0")})
		}
		// A record past the counter leaves room behind the base for frames.
		c := pg.Recs[recs-1]
		c.Value = bytes.Repeat([]byte("p"), 60)
		pg.Replace(&pg.Recs[recs-1], c)
		ids[i] = pg.ID
		store.Write(pg.ID, pg.Encode())
	}
	// A delta frame written while another write-back was under way counts as
	// concurrent: the chain outgrows its base only by a frame. Until one is
	// seen, a write-back that starts alone gives another a millisecond to
	// start beside it.
	var inflight, concurrent atomic.Int64
	watchWriteBack = func(pg *page.Page, _ base.TS) func() {
		alone := inflight.Add(1) == 1
		for end := time.Now().Add(time.Millisecond); alone && concurrent.Load() == 0 && inflight.Load() == 1 && time.Now().Before(end); {
			runtime.Gosched()
		}
		return func() {
			if chain, base := pg.Chain(); (!alone || inflight.Load() > 1) && len(chain) > base {
				concurrent.Add(1)
			}
			inflight.Add(-1)
		}
	}
	t.Cleanup(func() { watchWriteBack = nil })
	var want [pages]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewPCG(uint64(w), 1))
			for range ops {
				i := rnd.IntN(pages)
				id := ids[i]
				pg, err := p.Fetch(id)
				if err != nil || pg == nil {
					t.Errorf("fetch %d: %v %v", id, pg, err)
					return
				}
				pg.L.Lock()
				prefix := fmt.Sprintf("%04d/", id)
				if pg.ID != id || len(pg.Recs) != recs {
					t.Errorf("fetch %d served page %d with %d records", id, pg.ID, len(pg.Recs))
				}
				for r := range pg.Recs {
					if !strings.HasPrefix(pg.Recs[r].Key, prefix) {
						t.Errorf("page %d holds record %q", id, pg.Recs[r].Key)
					}
				}
				if err := pg.CheckSize(); err != nil {
					t.Error(err)
				}
				c := pg.Recs[0]
				n, _ := strconv.Atoi(string(c.Value))
				c.Value = strconv.AppendInt(nil, int64(n+1), 10)
				pg.Replace(&pg.Recs[0], c)
				tc, l := base.TCID(1), base.LSN(lsn.Add(1))
				if w == 0 {
					tc = 2
				}
				pg.Ab.Ensure(tc).Add(l)
				p.MarkDirty(pg, tc, l, 0)
				want[i].Add(1)
				pg.L.Unlock()
				p.Unpin(id)
			}
		}(w)
	}
	wg.Wait()
	// The writers' evictions wrote delta frames, several at once.
	st := p.Stats()
	t.Logf("%d write-backs by %d writers: %d delta frames, %d of them concurrent, %d full images", st.Flushes, workers, st.Flushes-st.Images, concurrent.Load(), st.Images)
	if concurrent.Load() == 0 {
		t.Fatalf("the writers' %d write-backs wrote no delta frame beside another write-back", st.Flushes)
	}
	lag.Store(0)
	if err := p.FlushAll(true, nil); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		pg, err := p.Fetch(id)
		if err != nil || pg == nil {
			t.Fatalf("fetch %d: %v %v", id, pg, err)
		}
		if n, _ := strconv.Atoi(string(pg.Recs[0].Value)); int64(n) != want[i].Load() {
			t.Errorf("page %d counts %d writes, %d were made", id, n, want[i].Load())
		}
		p.Unpin(id)
	}
	if st := p.Stats(); st.Evictions < workers*ops/2 {
		t.Fatalf("too few evictions to recycle frames: %+v", st)
	}
}
