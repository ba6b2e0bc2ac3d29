// Package btree implements the DC's access method (§4.1.2(2)): a classic
// B-tree over the buffer pool whose structure modifications — page splits
// and page deletes/consolidations — run as system transactions logged to
// the DC-log (§5.2.2). The tree is "maintained behind the scenes": the TC
// never sees pages, only records. The package also holds what every engine
// over these pages does to the physical structure as a whole — the catalog
// page, formatting, table creation (forest.go) and the redo of the system
// transactions logged here (redo.go) — so the DC and the monolith baseline
// share it instead of each telling it again.
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
	// MaxPageBytes triggers a split when a page grows beyond it.
	MaxPageBytes int
	// MinPageBytes triggers a consolidation attempt when a leaf shrinks
	// below it (default MaxPageBytes/4).
	MinPageBytes int
}

func (c Config) withDefaults() Config {
	if c.MaxPageBytes <= 0 {
		c.MaxPageBytes = 4096
	}
	if c.MinPageBytes <= 0 {
		c.MinPageBytes = c.MaxPageBytes / 4
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
	// onRootChange persists the new root in the DC catalog within the same
	// system transaction (same dLSN).
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

// descendLocked walks from the root to the leaf covering key; the caller
// holds the tree lock (shared suffices: branch pages only change under the
// exclusive lock). The returned leaf is pinned.
func (t *Tree) descendLocked(key string) (*page.Page, error) {
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		if pg == nil {
			return nil, fmt.Errorf("btree %s: dangling page %d", t.table, id)
		}
		if pg.Leaf {
			return pg, nil
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
	} else if size < t.cfg.MinPageBytes || nrecs == 0 {
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
	for leaf != nil {
		leaf.L.RLock()
		cont := fn(leaf)
		next := leaf.Next
		leaf.L.RUnlock()
		t.pool.Unpin(leaf.ID)
		if !cont || next == 0 {
			return nil
		}
		leaf, err = t.pool.Fetch(next)
		if err != nil {
			return err
		}
	}
	return nil
}

// --- system transactions ----------------------------------------------

// pathEntry records the descent for SMOs (performed under the exclusive
// structure lock, so it stays valid).
type pathEntry struct {
	pg *page.Page // pinned
}

// descendPath returns the pinned chain of pages from root to the leaf
// covering key. Caller holds the exclusive lock and must unpinPath.
func (t *Tree) descendPath(key string) ([]pathEntry, error) {
	var path []pathEntry
	id := t.root
	for {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			t.unpinPath(path)
			return nil, err
		}
		if pg == nil {
			t.unpinPath(path)
			return nil, fmt.Errorf("btree %s: dangling page %d", t.table, id)
		}
		path = append(path, pathEntry{pg: pg})
		if pg.Leaf {
			return path, nil
		}
		id = pg.ChildFor(key)
	}
}

func (t *Tree) unpinPath(path []pathEntry) {
	for _, e := range path {
		t.pool.Unpin(e.pg.ID)
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
			pg := path[i].pg
			pg.L.RLock()
			over := pg.Size() > t.cfg.MaxPageBytes && t.splittable(pg)
			pg.L.RUnlock()
			if over {
				idx = i
				break
			}
		}
		if idx == -1 {
			t.unpinPath(path)
			return nil
		}
		err = t.splitOneLocked(path, idx)
		t.unpinPath(path)
		if err != nil {
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

// splitOneLocked splits path[idx] into itself plus a new right page and
// links the new page into the parent (or a new root). Caller holds the
// exclusive lock.
func (t *Tree) splitOneLocked(path []pathEntry, idx int) error {
	left := path[idx].pg
	right := &page.Page{ID: t.alloc(), Leaf: left.Leaf}

	left.L.Lock()
	var splitKey string
	if left.Leaf {
		splitKey = left.SplitLeaf(right)
	} else {
		splitKey = left.SplitBranch(right)
	}
	rightImage := right.Encode()
	left.L.Unlock()

	rec := &dclog.Split{
		Table: t.table, Leaf: left.Leaf, LeftID: left.ID, RightID: right.ID,
		SplitKey: splitKey, RightImage: rightImage,
	}

	var parent *page.Page
	if idx > 0 {
		parent = path[idx-1].pg
		rec.ParentID = parent.ID
	} else {
		rec.NewRootID = t.alloc()
	}
	dlsn := t.smo.AppendSMO(dclog.KindSplit, rec.Encode())

	// Stamp and publish the results of the system transaction.
	left.L.Lock()
	left.DLSN = dlsn
	t.pool.MarkDirty(left, 0, 0, dlsn)
	left.L.Unlock()
	installNew(t.pool, right, dlsn)

	if parent != nil {
		parent.L.Lock()
		ci := parent.ChildIndex(left.ID)
		if ci < 0 {
			parent.L.Unlock()
			return fmt.Errorf("btree %s: split parent lost child %d", t.table, left.ID)
		}
		parent.InsertSep(ci, splitKey, right.ID)
		parent.DLSN = dlsn
		t.pool.MarkDirty(parent, 0, 0, dlsn)
		parent.L.Unlock()
	} else {
		newRoot := page.NewBranch(rec.NewRootID, []string{splitKey}, []base.PageID{left.ID, right.ID})
		installNew(t.pool, newRoot, dlsn)
		t.root = newRoot.ID
		if t.onRootChange != nil {
			t.onRootChange(newRoot.ID, dlsn)
		}
	}
	t.splits++
	return nil
}

// maybeConsolidate merges the underfull leaf covering key with a sibling
// when the result fits in a page; the paper's page delete (§5.2.2). The
// consolidated page is logged physically and the DC-log forced before the
// right page's stable image is freed.
func (t *Tree) maybeConsolidate(key string) error {
	t.lock.Lock()
	defer t.lock.Unlock()
	path, err := t.descendPath(key)
	if err != nil {
		return err
	}
	defer t.unpinPath(path)
	leaf := path[len(path)-1].pg
	if len(path) == 1 {
		return nil // root leaf: nothing to merge with
	}
	leaf.L.RLock()
	refilled := leaf.Size() >= t.cfg.MinPageBytes && len(leaf.Recs) > 0
	leaf.L.RUnlock()
	if refilled {
		return nil // raced: refilled
	}
	parent := path[len(path)-2].pg
	ci := parent.ChildIndex(leaf.ID)
	if ci < 0 {
		return fmt.Errorf("btree %s: consolidate parent lost child %d", t.table, leaf.ID)
	}
	// Prefer absorbing leaf into its left sibling; otherwise absorb the
	// right sibling into leaf. Both reduce to (left, right) with right
	// freed afterwards.
	var left, right *page.Page
	var sepIdx int
	switch {
	case ci > 0:
		sib, err := t.pool.Fetch(parent.Children[ci-1])
		if err != nil {
			return err
		}
		left, right, sepIdx = sib, leaf, ci-1
		defer t.pool.Unpin(sib.ID)
	case ci < len(parent.Children)-1:
		sib, err := t.pool.Fetch(parent.Children[ci+1])
		if err != nil {
			return err
		}
		left, right, sepIdx = leaf, sib, ci
		defer t.pool.Unpin(sib.ID)
	default:
		return nil // single child (transient); root collapse handles it
	}
	if left == nil || right == nil || !left.Leaf || !right.Leaf {
		return nil
	}
	// Latch order: left before right. Sizes are checked under the latches:
	// a consolidation that would not fit must not happen (§5.2.2 notes
	// recovery-time refits are the hazard; we avoid creating them).
	left.L.Lock()
	right.L.Lock()
	if left.Size()+right.Size() > t.cfg.MaxPageBytes*9/10 {
		right.L.Unlock()
		left.L.Unlock()
		return nil
	}
	left.AbsorbLeaf(right)
	leftImage := left.Encode()
	right.L.Unlock()

	rec := &dclog.Consolidate{Table: t.table, LeftID: left.ID, RightID: right.ID,
		ParentID: parent.ID, LeftImage: leftImage}
	dlsn := t.smo.AppendSMO(dclog.KindConsolidate, rec.Encode())
	left.DLSN = dlsn
	t.pool.MarkDirty(left, 0, 0, dlsn)
	left.L.Unlock()

	parent.L.Lock()
	parent.RemoveSep(sepIdx)
	parent.DLSN = dlsn
	t.pool.MarkDirty(parent, 0, 0, dlsn)
	rootKeys := len(parent.Keys)
	parent.L.Unlock()

	// WAL for the free: the right page's stable image may only disappear
	// after the consolidate record (holding its contents) is stable.
	t.smo.ForceSMO(dlsn)
	t.pool.Drop(right.ID, true)
	t.consolidates++

	// Root collapse: a branch root left with a single child is replaced by
	// that child.
	if parent.ID == t.root && rootKeys == 0 {
		return t.collapseRootLocked(parent)
	}
	return nil
}

func (t *Tree) collapseRootLocked(oldRoot *page.Page) error {
	if len(oldRoot.Children) != 1 {
		return nil
	}
	newRootID := oldRoot.Children[0]
	rec := &dclog.RootCollapse{Table: t.table, OldRootID: oldRoot.ID, NewRootID: newRootID}
	dlsn := t.smo.AppendSMO(dclog.KindRootCollapse, rec.Encode())
	t.root = newRootID
	if t.onRootChange != nil {
		t.onRootChange(newRootID, dlsn)
	}
	t.smo.ForceSMO(dlsn)
	t.pool.Drop(oldRoot.ID, true)
	return nil
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
// routing, connected leaf chain. Test helper.
func (t *Tree) CheckInvariants() error {
	t.lock.RLock()
	defer t.lock.RUnlock()
	var prev string
	first := true
	var walk func(id base.PageID, lo, hi string) error
	walk = func(id base.PageID, lo, hi string) error {
		pg, err := t.pool.Fetch(id)
		if err != nil {
			return err
		}
		if pg == nil {
			return fmt.Errorf("dangling page %d", id)
		}
		defer t.pool.Unpin(id)
		if pg.Leaf {
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
	return walk(t.root, "", "")
}
