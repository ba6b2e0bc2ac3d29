package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// testEnv wires a tree over a real pool, store, and DC-log.
type testEnv struct {
	store *storage.PageStore
	pool  *buffer.Pool
	dlog  *wal.Log
	tree  *Tree
	roots map[string]base.PageID
	mu    sync.Mutex
}

// AppendSMO implements dclog.Logger.
func (e *testEnv) AppendSMO(kind uint8, payload []byte) base.DLSN {
	return base.DLSN(e.dlog.AppendAssign(&wal.Record{Kind: kind, Payload: payload}))
}

// ForceSMO implements dclog.Logger.
func (e *testEnv) ForceSMO(d base.DLSN) { e.dlog.ForceTo(base.LSN(d)) }

func newEnv(t *testing.T, maxBytes int) *testEnv {
	t.Helper()
	e := &testEnv{store: storage.NewPageStore(), roots: map[string]base.PageID{}}
	var err error
	e.dlog, err = wal.New(storage.NewLogStore())
	if err != nil {
		t.Fatal(err)
	}
	open := func(base.TCID) base.LSN { return 1 << 60 } // gates open for tree tests
	e.pool = buffer.New(buffer.Config{Capacity: 64},
		e.store, buffer.Gates{EOSL: open, LWM: open,
			ForceDCLog: func(d base.DLSN) { e.ForceSMO(d) }})
	root := page.NewLeaf(e.store.AllocPageID())
	e.pool.Install(root)
	e.pool.Unpin(root.ID)
	e.tree = New("t", root.ID, Config{MaxPageBytes: maxBytes}, e.pool,
		e.store.AllocPageID, e,
		func(newRoot base.PageID, dlsn base.DLSN) {
			e.mu.Lock()
			e.roots["t"] = newRoot
			e.mu.Unlock()
		})
	return e
}

func (e *testEnv) put(t *testing.T, key, val string) {
	t.Helper()
	_, blocked, err := e.tree.Apply(key, func(leaf *page.Page) bool {
		leaf.Put(page.Record{Key: key, Owner: 1, Value: []byte(val)})
		e.pool.MarkDirty(leaf, 1, 0, 0)
		return false
	})
	if err != nil || blocked {
		t.Fatalf("put %q: err=%v blocked=%v", key, err, blocked)
	}
}

func (e *testEnv) del(t *testing.T, key string) {
	t.Helper()
	_, _, err := e.tree.Apply(key, func(leaf *page.Page) bool {
		leaf.Remove(key)
		e.pool.MarkDirty(leaf, 1, 0, 0)
		return false
	})
	if err != nil {
		t.Fatalf("del %q: %v", key, err)
	}
}

func (e *testEnv) get(t *testing.T, key string) (string, bool) {
	t.Helper()
	var val string
	var ok bool
	if err := e.tree.View(key, func(leaf *page.Page) {
		if r := leaf.Get(key); r != nil {
			val, ok = string(r.Value), true
		}
	}); err != nil {
		t.Fatalf("get %q: %v", key, err)
	}
	return val, ok
}

func TestInsertSearchSingleLeaf(t *testing.T) {
	e := newEnv(t, 4096)
	e.put(t, "b", "vb")
	e.put(t, "a", "va")
	if v, ok := e.get(t, "a"); !ok || v != "va" {
		t.Fatalf("get a = %q %v", v, ok)
	}
	if _, ok := e.get(t, "zz"); ok {
		t.Fatal("phantom key")
	}
}

func TestSplitsPreserveAllKeys(t *testing.T) {
	e := newEnv(t, 256) // tiny pages force many splits
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		e.put(t, fmt.Sprintf("key%05d", i), fmt.Sprintf("val%d", i))
	}
	splits, _ := e.tree.Stats()
	if splits == 0 {
		t.Fatal("expected splits with tiny pages")
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys, err := e.tree.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("key count = %d want %d", len(keys), n)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatal("keys unsorted")
	}
	for i := 0; i < n; i++ {
		if v, ok := e.get(t, fmt.Sprintf("key%05d", i)); !ok || v != fmt.Sprintf("val%d", i) {
			t.Fatalf("lost key %d: %q %v", i, v, ok)
		}
	}
}

func TestDeleteAndConsolidate(t *testing.T) {
	e := newEnv(t, 256)
	const n = 400
	for i := 0; i < n; i++ {
		e.put(t, fmt.Sprintf("key%05d", i), "v")
	}
	// Delete most keys; consolidations should shrink the tree.
	for i := 0; i < n; i++ {
		if i%10 != 0 {
			e.del(t, fmt.Sprintf("key%05d", i))
		}
	}
	_, consolidates := e.tree.Stats()
	if consolidates == 0 {
		t.Fatal("expected consolidations")
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys, _ := e.tree.Keys()
	if len(keys) != n/10 {
		t.Fatalf("keys = %d want %d", len(keys), n/10)
	}
	for i := 0; i < n; i += 10 {
		if _, ok := e.get(t, fmt.Sprintf("key%05d", i)); !ok {
			t.Fatalf("surviving key %d lost", i)
		}
	}
}

func TestDeleteAllCollapsesToEmptyTree(t *testing.T) {
	e := newEnv(t, 256)
	const n = 300
	for i := 0; i < n; i++ {
		e.put(t, fmt.Sprintf("key%05d", i), "v")
	}
	for i := 0; i < n; i++ {
		e.del(t, fmt.Sprintf("key%05d", i))
	}
	keys, err := e.tree.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("residual keys: %v", keys)
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestScanRange(t *testing.T) {
	e := newEnv(t, 256)
	for i := 0; i < 200; i++ {
		e.put(t, fmt.Sprintf("k%04d", i), "v")
	}
	var got []string
	err := e.tree.Scan("k0050", func(leaf *page.Page) bool {
		stop := leaf.Ascend("k0050", "k0060", func(r *page.Record) bool {
			got = append(got, r.Key)
			return true
		})
		return !stop && (len(leaf.Recs) == 0 || leaf.Recs[len(leaf.Recs)-1].Key < "k0060")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k0050" || got[9] != "k0059" {
		t.Fatalf("scan = %v", got)
	}
}

// leafIDs returns the leaves in chain order.
func (e *testEnv) leafIDs(t *testing.T) []base.PageID {
	t.Helper()
	var ids []base.PageID
	if err := e.tree.Scan("", func(leaf *page.Page) bool {
		ids = append(ids, leaf.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestScanReportsDanglingLeaf: a sibling link to a page neither the pool nor
// the store holds is the same corruption a dangling child is, and draws the
// same error — not a scan that ends early with nothing to show for it.
func TestScanReportsDanglingLeaf(t *testing.T) {
	e := newEnv(t, 256)
	for i := 0; i < 200; i++ {
		e.put(t, fmt.Sprintf("k%04d", i), "v")
	}
	ids := e.leafIDs(t)
	if len(ids) < 3 {
		t.Fatalf("only %d leaves", len(ids))
	}
	e.pool.Drop(ids[len(ids)/2], true) // a mid-chain leaf, gone from cache and store
	keys, err := e.tree.Keys()
	if err == nil || !strings.Contains(err.Error(), "dangling page") {
		t.Fatalf("scan across a freed leaf: %d keys, err = %v", len(keys), err)
	}
}

// TestCheckInvariantsSeesBrokenLeafChain: the routing can be perfect and the
// sibling links still wrong; scans follow the links.
func TestCheckInvariantsSeesBrokenLeafChain(t *testing.T) {
	for name, relink := range map[string]func(ids []base.PageID) (leaf, next base.PageID){
		"skips a leaf":      func(ids []base.PageID) (base.PageID, base.PageID) { return ids[0], ids[2] },
		"ends early":        func(ids []base.PageID) (base.PageID, base.PageID) { return ids[1], 0 },
		"runs past the end": func(ids []base.PageID) (base.PageID, base.PageID) { return ids[len(ids)-1], ids[0] },
	} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, 256)
			for i := 0; i < 200; i++ {
				e.put(t, fmt.Sprintf("k%04d", i), "v")
			}
			if err := e.tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			id, next := relink(e.leafIDs(t))
			leaf, err := e.pool.Fetch(id)
			if err != nil || leaf == nil {
				t.Fatalf("leaf %d: %v %v", id, leaf, err)
			}
			leaf.Next = next
			e.pool.Unpin(id)
			if err := e.tree.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "leaf chain") {
				t.Fatalf("CheckInvariants = %v", err)
			}
		})
	}
}

// TestConcurrentApplies: 8 writers insert the keys 0..n-1 between them, 4
// deleters follow (each waits for a key to be in before deleting it, and for
// the tree to have grown before deleting anything) and 2 scanners walk the
// leaf chain throughout, so splits, consolidations and root collapse all run
// under contention. Every goroutine takes its keys in ascending order and
// every leaf's range holds keys of all four deleters, so a leaf is drained
// only after every leaf to its left: draining everything merges each leaf
// into an empty left sibling and ends in a root collapse, whatever the
// schedule.
func TestConcurrentApplies(t *testing.T) {
	const writers, deleters, scanners = 8, 4, 2
	for _, tc := range []struct {
		name string
		n    int
		del  func(k int) bool
	}{
		{"grow", 1200, func(k int) bool { return k%5 != 0 }},
		{"drain", 200, func(int) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, 512)
			key := func(k int) string { return fmt.Sprintf("k%04d", k) }
			inserted := make([]chan struct{}, tc.n)
			for k := range inserted {
				inserted[k] = make(chan struct{})
			}
			var live atomic.Int32
			grown := make(chan struct{}) // closed once 100 keys are in: several leaves' worth
			apply := func(k int, del bool) bool {
				_, _, err := e.tree.Apply(key(k), func(leaf *page.Page) bool {
					if del {
						leaf.Remove(key(k))
					} else {
						leaf.Put(page.Record{Key: key(k), Owner: 1, Value: []byte("v")})
					}
					e.pool.MarkDirty(leaf, 1, 0, 0)
					return false
				})
				if err != nil {
					t.Errorf("apply %s: %v", key(k), err)
				}
				return err == nil
			}
			var workers, readers sync.WaitGroup
			for w := 0; w < writers; w++ {
				workers.Add(1)
				go func(w int) {
					defer workers.Done()
					for k := w; k < tc.n; k += writers {
						ok := apply(k, false)
						close(inserted[k])
						if live.Add(1) == 100 {
							close(grown)
						}
						if !ok {
							return
						}
					}
				}(w)
			}
			for d := 0; d < deleters; d++ {
				workers.Add(1)
				go func(d int) {
					defer workers.Done()
					<-grown
					for k := d; k < tc.n; k += deleters {
						<-inserted[k]
						if tc.del(k) && !apply(k, true) {
							return
						}
					}
				}(d)
			}
			done := make(chan struct{})
			for s := 0; s < scanners; s++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						keys, err := e.tree.Keys()
						if err != nil || !sort.StringsAreSorted(keys) {
							t.Errorf("scan under contention: sorted=%v err=%v", sort.StringsAreSorted(keys), err)
							return
						}
					}
				}()
			}
			workers.Wait()
			close(done)
			readers.Wait()
			if t.Failed() {
				return
			}
			if err := e.tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var want []string
			for k := 0; k < tc.n; k++ {
				if !tc.del(k) {
					want = append(want, key(k))
				}
			}
			keys, err := e.tree.Keys()
			if err != nil || fmt.Sprint(keys) != fmt.Sprint(want) {
				t.Fatalf("tree holds %d keys %v (err %v), want %d", len(keys), keys, err, len(want))
			}
			splits, consolidates := e.tree.Stats()
			if splits == 0 {
				t.Fatal("no split ran")
			}
			if len(want) == 0 {
				root, err := e.pool.Fetch(e.tree.Root())
				if err != nil || root == nil {
					t.Fatalf("root: %v %v", root, err)
				}
				defer e.pool.Unpin(root.ID)
				if consolidates == 0 || !root.Leaf {
					t.Fatalf("a drained tree is one leaf again: %d consolidations, root is a leaf: %v",
						consolidates, root.Leaf)
				}
			}
		})
	}
}

func TestTreeVsModelRandomOps(t *testing.T) {
	e := newEnv(t, 200)
	model := map[string]string{}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%03d", rnd.Intn(300))
		switch rnd.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%d", i)
			e.put(t, k, v)
			model[k] = v
		case 2:
			e.del(t, k)
			delete(model, k)
		}
	}
	if err := e.tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, want := range model {
		if got, ok := e.get(t, k); !ok || got != want {
			t.Fatalf("key %q: got %q,%v want %q", k, got, ok, want)
		}
	}
	keys, _ := e.tree.Keys()
	if len(keys) != len(model) {
		t.Fatalf("tree has %d keys, model %d", len(keys), len(model))
	}
}

func TestRootPointerPersistedViaCallback(t *testing.T) {
	e := newEnv(t, 128)
	for i := 0; i < 200; i++ {
		e.put(t, fmt.Sprintf("key%04d", i), "v")
	}
	e.mu.Lock()
	persisted := e.roots["t"]
	e.mu.Unlock()
	if persisted == 0 {
		t.Fatal("root change callback never fired despite splits")
	}
	if persisted != e.tree.Root() {
		t.Fatalf("catalog root %d != tree root %d", persisted, e.tree.Root())
	}
}

func BenchmarkTreeInsert(b *testing.B) {
	e := newEnv(&testing.T{}, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("key%09d", i)
		e.tree.Apply(key, func(leaf *page.Page) bool {
			leaf.Put(page.Record{Key: key, Owner: 1, Value: []byte("v")})
			e.pool.MarkDirty(leaf, 1, 0, 0)
			return false
		})
	}
}

func BenchmarkTreeRead(b *testing.B) {
	e := newEnv(&testing.T{}, 4096)
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key%09d", i)
		e.tree.Apply(key, func(leaf *page.Page) bool {
			leaf.Put(page.Record{Key: key, Owner: 1, Value: []byte("v")})
			e.pool.MarkDirty(leaf, 1, 0, 0)
			return false
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			e.tree.View(fmt.Sprintf("key%09d", i%10000), func(*page.Page) {})
		}
	})
}
