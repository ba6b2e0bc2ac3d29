// Package btree implements the DC's access method (§4.1.2(2)): a classic
// B-tree over the buffer pool whose structure modifications — page splits
// and page deletes/consolidations — run as system transactions logged to
// the DC-log (§5.2.2). The tree is "maintained behind the scenes": the TC
// never sees pages, only records. The package also holds what every engine
// over these pages does to the physical structure as a whole — the catalog
// page, formatting, table creation (forest.go) and what each system
// transaction does to the pages (redo.go) — so the DC and the monolith
// baseline share it, and a system transaction is told once: this file only
// decides one and logs it; the page changes are what redo.go makes of the
// record, appended a moment ago or replayed after a crash.
//
// Concurrency: a tree-level reader/writer lock protects the structure
// (descent holds it shared; system transactions hold it exclusive), and
// per-page latches make individual operations atomic under DC
// multi-threading. Record operations on distinct leaves proceed in
// parallel. Latch order is parent before child and left before right, so
// latch deadlocks cannot occur (§4.1.2(1)).
package btree

import (
	"fmt"
	"sync"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
)

// Config shapes a tree.
type Config struct {
	// MaxPageBytes triggers a split when a page grows beyond it, and a
	// consolidation attempt when a leaf shrinks below a quarter of it.
	MaxPageBytes int
}

func (c Config) withDefaults() Config {
	if c.MaxPageBytes <= 0 {
		c.MaxPageBytes = 4096
	}
	return c
}

// Tree is one table's B-tree.
type Tree struct {
	table string
	cfg   Config
	pool  *buffer.Pool
	alloc func() base.PageID
	smo   dclog.Logger
	// catalog marks a Forest's tree: its system transactions write their
	// root changes to the catalog page (applier.setRoot).
	catalog bool
	// current, when non-nil, reports whether every page is current — holds
	// every operation its engine has been sent — which is what a
	// consolidation needs (maybeConsolidate). A Forest's trees take it from
	// Open.
	current func() bool
	// onRootChange, when non-nil, hears of a new root and the dLSN of the
	// system transaction that made it.
	onRootChange func(newRoot base.PageID, dlsn base.DLSN)

	lock sync.RWMutex
	root base.PageID

	// SMOs performed (the benchmark's btree.splits and btree.consolidates).
	splits, consolidates uint64
}

// New wires up a tree whose root already exists (opened from the catalog,
// or just created by the caller via a CreateTree system transaction).
func New(table string, root base.PageID, cfg Config, pool *buffer.Pool,
	alloc func() base.PageID, smo dclog.Logger,
	onRootChange func(base.PageID, base.DLSN)) *Tree {
	return &Tree{table: table, cfg: cfg.withDefaults(), pool: pool,
		alloc: alloc, smo: smo, onRootChange: onRootChange, root: root}
}

// Root returns the current root page ID.
// Test hook: btree's TestRootPointerPersistedViaCallback and TestConcurrentApplies.
func (t *Tree) Root() base.PageID {
	t.lock.RLock()
	defer t.lock.RUnlock()
	return t.root
}

// Stats returns (splits, consolidates).
func (t *Tree) Stats() (splits, consolidates uint64) {
	t.lock.RLock()
	defer t.lock.RUnlock()
	return t.splits, t.consolidates
}

// fetch pins page id, which the structure names and so must exist.
func (t *Tree) fetch(id base.PageID) (*page.Page, error) {
	pg, err := t.pool.Fetch(id)
	if err == nil && pg == nil {
		err = fmt.Errorf("btree %s: dangling page %d", t.table, id)
	}
	return pg, err
}

// descendLocked walks from the root to the leaf covering key; the caller
// holds the tree lock (shared suffices: branch pages only change under the
// exclusive lock). The returned leaf is pinned.
func (t *Tree) descendLocked(key string) (*page.Page, error) {
	id := t.root
	for {
		pg, err := t.fetch(id)
		if err != nil || pg.Leaf {
			return pg, err
		}
		next := pg.ChildFor(key)
		t.pool.Unpin(id)
		id = next
	}
}

// View runs fn on the leaf covering key under a shared latch.
func (t *Tree) View(key string, fn func(*page.Page)) error {
	t.lock.RLock()
	leaf, err := t.descendLocked(key)
	if err != nil {
		t.lock.RUnlock()
		return err
	}
	leaf.L.RLock()
	t.lock.RUnlock()
	fn(leaf)
	leaf.L.RUnlock()
	t.pool.Unpin(leaf.ID)
	return nil
}

// Apply runs mutate on the exclusively latched leaf covering key. A mutate
// that returns blocked=true declares it applied nothing: Apply hands the
// flag back with the leaf's ID and skips structure maintenance. Otherwise a
// split or consolidation is triggered afterwards as needed.
func (t *Tree) Apply(key string, mutate func(*page.Page) (blocked bool)) (leafID base.PageID, blocked bool, err error) {
	t.lock.RLock()
	leaf, err := t.descendLocked(key)
	if err != nil {
		t.lock.RUnlock()
		return 0, false, err
	}
	leaf.L.Lock()
	t.lock.RUnlock()
	blocked = mutate(leaf)
	size := leaf.Size()
	nrecs := len(leaf.Recs)
	leafID = leaf.ID
	leaf.L.Unlock()
	t.pool.Unpin(leafID)
	if blocked {
		return leafID, true, nil
	}
	if size > t.cfg.MaxPageBytes {
		err = t.split(key)
	} else if size < t.cfg.MaxPageBytes/4 || nrecs == 0 {
		err = t.maybeConsolidate(key)
	}
	return leafID, false, err
}

// Scan calls fn for each latched leaf from the one covering lo onward
// (sibling order); fn returns false to stop. The structure lock is held
// shared for the whole scan, so the leaf chain cannot change underfoot.
func (t *Tree) Scan(lo string, fn func(*page.Page) bool) error {
	t.lock.RLock()
	defer t.lock.RUnlock()
	leaf, err := t.descendLocked(lo)
	if err != nil {
		return err
	}
	for {
		leaf.L.RLock()
		cont := fn(leaf)
		next := leaf.Next
		leaf.L.RUnlock()
		t.pool.Unpin(leaf.ID)
		if !cont || next == 0 {
			return nil
		}
		if leaf, err = t.fetch(next); err != nil {
			return err
		}
	}
}

// --- system transactions: the deciding half. No page changes here. ------

// commit logs and applies one system transaction (applier.commit) and reads
// the tree's own bookkeeping off the record. Caller holds the exclusive lock.
func (t *Tree) commit(kind uint8, rec record, img *page.Page) error {
	dlsn, err := applier{pool: t.pool, catalog: t.catalog}.commit(t.smo, kind, rec, img)
	if err != nil {
		return err
	}
	root := t.root
	switch r := rec.(type) {
	case *dclog.Split:
		t.splits++
		if r.NewRootID != 0 {
			root = r.NewRootID
		}
	case *dclog.Consolidate:
		t.consolidates++
	case *dclog.RootCollapse:
		root = r.NewRootID
	}
	if root != t.root {
		t.root = root
		if t.onRootChange != nil {
			t.onRootChange(root, dlsn)
		}
	}
	return nil
}

// descendPath returns the pinned chain of pages from root to the leaf
// covering key. Caller holds the exclusive lock (so the path stays valid)
// and must unpinPath.
func (t *Tree) descendPath(key string) ([]*page.Page, error) {
	var path []*page.Page
	id := t.root
	for {
		pg, err := t.fetch(id)
		if err != nil {
			t.unpinPath(path)
			return nil, err
		}
		path = append(path, pg)
		if pg.Leaf {
			return path, nil
		}
		id = pg.ChildFor(key)
	}
}

func (t *Tree) unpinPath(path []*page.Page) {
	for _, pg := range path {
		t.pool.Unpin(pg.ID)
	}
}

// split divides the (possibly cascading) overfull pages on the path to
// key. Each level's split is its own system transaction: one DC-log record
// capturing the new page image and the split key (§5.2.2).
func (t *Tree) split(key string) error {
	t.lock.Lock()
	defer t.lock.Unlock()
	for {
		path, err := t.descendPath(key)
		if err != nil {
			return err
		}
		// Find the deepest overfull page on the path. Leaf sizes are read
		// under the page latch: an applier that latched its leaf before we
		// took the exclusive structure lock may still be mutating it.
		idx := -1
		for i := len(path) - 1; i >= 0; i-- {
			pg := path[i]
			pg.L.RLock()
			over := pg.Size() > t.cfg.MaxPageBytes && t.splittable(pg)
			pg.L.RUnlock()
			if over {
				idx = i
				break
			}
		}
		if idx >= 0 {
			err = t.splitOneLocked(path, idx)
		}
		t.unpinPath(path)
		if idx == -1 || err != nil {
			return err
		}
	}
}

func (t *Tree) splittable(pg *page.Page) bool {
	if pg.Leaf {
		return len(pg.Recs) >= 2
	}
	return len(pg.Keys) >= 2
}

// splitOneLocked splits path[idx] at its middle key into itself plus a new
// right page, linked into the parent or under a new root. Caller holds the
// exclusive lock: once the latch is granted here no applier is on the page.
func (t *Tree) splitOneLocked(path []*page.Page, idx int) error {
	left := path[idx]
	rec := &dclog.Split{Table: t.table, Leaf: left.Leaf, LeftID: left.ID, RightID: t.alloc()}
	left.L.RLock()
	splitKey, right := left.UpperHalf(rec.RightID)
	rec.SplitKey, rec.RightImage = splitKey, right.Encode()
	left.L.RUnlock()
	if idx > 0 {
		rec.ParentID = path[idx-1].ID
	} else {
		rec.NewRootID = t.alloc()
	}
	return t.commit(dclog.KindSplit, rec, right)
}

// maybeConsolidate merges the underfull leaf covering key with a sibling
// when the result fits in a page — the paper's page delete (§5.2.2), the
// consolidated page logged physically — and collapses a branch root left
// with a single child onto that child. The consolidated page claims the
// larger of the two abstract LSNs (page.Merged), which §5.2.2 allows only of
// two current pages: a stale stable image beside a fresher one would be
// credited with operations still to be resent to it, and skip them. So
// nothing is consolidated while the tree says its pages may not be current.
func (t *Tree) maybeConsolidate(key string) error {
	if t.current != nil && !t.current() {
		return nil
	}
	t.lock.Lock()
	defer t.lock.Unlock()
	path, err := t.descendPath(key)
	if err != nil {
		return err
	}
	defer t.unpinPath(path)
	if len(path) == 1 {
		return nil // root leaf: nothing to merge with
	}
	leaf, parent := path[len(path)-1], path[len(path)-2]
	ci := parent.ChildIndex(leaf.ID)
	if ci < 0 {
		return fmt.Errorf("btree %s: consolidate parent lost child %d", t.table, leaf.ID)
	}
	// Prefer absorbing leaf into its left sibling; otherwise absorb the
	// right sibling into leaf. Both reduce to (left, right), right freed.
	sibAt := ci - 1
	if ci == 0 {
		sibAt = 1
	}
	if sibAt >= len(parent.Children) {
		return nil // single child (transient); root collapse handles it
	}
	sib, err := t.fetch(parent.Children[sibAt])
	if err != nil {
		return err
	}
	defer t.pool.Unpin(sib.ID)
	left, right := sib, leaf
	if ci == 0 {
		left, right = leaf, sib
	}
	// Latch order: left before right. Sizes are checked under the latches:
	// a consolidation that would not fit must not happen (§5.2.2 notes
	// recovery-time refits are the hazard; we avoid creating them), nor one
	// whose leaf a racing applier refilled.
	var merged *page.Page
	left.L.RLock()
	right.L.RLock()
	if (leaf.Size() < t.cfg.MaxPageBytes/4 || len(leaf.Recs) == 0) &&
		left.Size()+right.Size() <= t.cfg.MaxPageBytes*9/10 {
		merged = left.Merged(right)
	}
	right.L.RUnlock()
	left.L.RUnlock()
	if merged == nil {
		return nil
	}
	rec := &dclog.Consolidate{Table: t.table, LeftID: left.ID, RightID: right.ID,
		ParentID: parent.ID, LeftImage: merged.Encode()}
	if err := t.commit(dclog.KindConsolidate, rec, merged); err != nil {
		return err
	}
	if parent.ID != t.root || len(parent.Children) != 1 {
		return nil
	}
	return t.commit(dclog.KindRootCollapse,
		&dclog.RootCollapse{Table: t.table, OldRootID: parent.ID, NewRootID: parent.Children[0]}, nil)
}

// Keys returns every key in order (tests and invariant checks).
func (t *Tree) Keys() ([]string, error) {
	var out []string
	err := t.Scan("", func(leaf *page.Page) bool {
		for i := range leaf.Recs {
			out = append(out, leaf.Recs[i].Key)
		}
		return true
	})
	return out, err
}

// CheckInvariants verifies structural soundness: sorted keys, correct
// routing, a connected leaf chain — following Next from the leftmost leaf
// visits exactly the leaves in key order and ends at 0 — and every page's
// running size equal to the size walked from its fields
// (page.Page.CheckSize).
// Test hook: btree's tests, dc's TestDCCrashRecoveryWithSplits and kin.
func (t *Tree) CheckInvariants() error {
	t.lock.RLock()
	defer t.lock.RUnlock()
	var prev string
	first := true
	var lastLeaf, lastNext base.PageID // the previous leaf in key order and its link
	var walk func(id base.PageID, lo, hi string) error
	walk = func(id base.PageID, lo, hi string) error {
		pg, err := t.fetch(id)
		if err != nil {
			return err
		}
		defer t.pool.Unpin(id)
		if err := pg.CheckSize(); err != nil {
			return err
		}
		if pg.Leaf {
			if lastLeaf != 0 && lastNext != id {
				return fmt.Errorf("leaf chain broken: %d links to %d, the next leaf in key order is %d",
					lastLeaf, lastNext, id)
			}
			lastLeaf, lastNext = id, pg.Next
			for i := range pg.Recs {
				k := pg.Recs[i].Key
				if (lo != "" && k < lo) || (hi != "" && k >= hi) {
					return fmt.Errorf("leaf %d key %q outside [%q,%q)", id, k, lo, hi)
				}
				if !first && k <= prev {
					return fmt.Errorf("key order violated at %q (prev %q)", k, prev)
				}
				prev, first = k, false
			}
			return nil
		}
		if len(pg.Children) != len(pg.Keys)+1 {
			return fmt.Errorf("branch %d arity broken", id)
		}
		for i, c := range pg.Children {
			clo, chi := lo, hi
			if i > 0 {
				clo = pg.Keys[i-1]
			}
			if i < len(pg.Keys) {
				chi = pg.Keys[i]
			}
			if err := walk(c, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, "", ""); err != nil {
		return err
	}
	if lastNext != 0 {
		return fmt.Errorf("leaf chain broken: last leaf %d links on to %d", lastLeaf, lastNext)
	}
	return nil
}
