package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// This file and redo.go are the physical half every engine over these pages
// shares — the DC and the monolith baseline alike: here the catalog page, the
// format step, opening the trees and the decision to create a table; there
// what a system transaction does to the pages, forward or replayed. An engine
// differs from another in its log and its call path, not here.

// CatalogPageID is the well-known page holding the table -> root mappings;
// Format writes it into an empty store.
const CatalogPageID = base.PageID(1)

// Format writes the empty catalog page into store, which holds no page. The
// catalog's ID is well known, not allocated: an allocator a kill left behind
// with no catalog page (a previous boot's interrupted format) only moves the
// next allocation up.
func Format(store *storage.PageStore) {
	store.NoteAllocated(CatalogPageID)
	store.Write(CatalogPageID, page.NewLeaf(CatalogPageID).Encode())
}

// catalogRecord encodes one table -> root mapping.
func catalogRecord(table string, root base.PageID) page.Record {
	return page.Record{Key: table, Value: binary.AppendUvarint(nil, uint64(root))}
}

// catalogRoot decodes the root a catalog record names.
func catalogRoot(rec *page.Record) (base.PageID, error) {
	root, n := binary.Uvarint(rec.Value)
	if n <= 0 {
		return 0, fmt.Errorf("btree: corrupt catalog entry %q", rec.Key)
	}
	return base.PageID(root), nil
}

// fetchCatalog pins the catalog page; callers Unpin(CatalogPageID).
func fetchCatalog(pool *buffer.Pool) (*page.Page, error) {
	cat, err := pool.Fetch(CatalogPageID)
	if err != nil {
		return nil, fmt.Errorf("btree: catalog page: %w", err)
	}
	if cat == nil {
		return nil, errors.New("btree: catalog page lost")
	}
	return cat, nil
}

// Forest is the set of trees over one pool: what the catalog page names,
// opened. It belongs to that pool — an engine that loses its cache opens a
// new Forest over the new one.
type Forest struct {
	cfg     Config
	pool    *buffer.Pool
	alloc   func() base.PageID
	smo     dclog.Logger
	current func() bool

	// mu makes CreateTable's check and create one critical section, and
	// Exclusive's hold on the trees. Tree never takes it: the table set is
	// copy-on-write (it changes a handful of times in an engine's life).
	mu    sync.Mutex
	trees atomic.Pointer[map[string]*Tree]
}

// Open opens every tree the catalog page names. The search structures must
// already be well-formed: after a crash, Redo the log through pool first.
// current, nil for an engine whose pages always are, reports whether every
// cached page holds every operation the engine has been sent; while it does
// not, the trees consolidate nothing (Tree.maybeConsolidate).
func Open(cfg Config, pool *buffer.Pool, alloc func() base.PageID, smo dclog.Logger, current func() bool) (*Forest, error) {
	f := &Forest{cfg: cfg, pool: pool, alloc: alloc, smo: smo, current: current}
	cat, err := fetchCatalog(pool)
	if err != nil {
		return nil, err
	}
	defer pool.Unpin(CatalogPageID)
	cat.L.RLock()
	defer cat.L.RUnlock()
	trees := make(map[string]*Tree, len(cat.Recs))
	for i := range cat.Recs {
		root, err := catalogRoot(&cat.Recs[i])
		if err != nil {
			return nil, err
		}
		table := strings.Clone(cat.Recs[i].Key) // outlives the catalog page's image
		trees[table] = f.newTree(table, root)
	}
	f.trees.Store(&trees)
	return f, nil
}

func (f *Forest) newTree(table string, root base.PageID) *Tree {
	t := New(table, root, f.cfg, f.pool, f.alloc, f.smo, nil)
	t.catalog, t.current = true, f.current
	return t
}

// Exclusive runs fn with every tree's structure lock held exclusively: no
// descent and no system transaction is under way in any tree while fn runs,
// and no table is created. Only appliers that latched their leaf before may
// still be on it.
func (f *Forest) Exclusive(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range *f.trees.Load() {
		t.lock.Lock()
		defer t.lock.Unlock()
	}
	fn()
}

// Tree returns the tree for table, or nil.
func (f *Forest) Tree(table string) *Tree { return (*f.trees.Load())[table] }

// Tables returns the table names (order not guaranteed).
func (f *Forest) Tables() []string {
	trees := *f.trees.Load()
	out := make([]string, 0, len(trees))
	for t := range trees {
		out = append(out, t)
	}
	return out
}

// CreateTable durably creates an empty table as one system transaction: a
// root leaf, its catalog entry and a forced CreateTree record. Idempotent,
// and atomic against concurrent creators of the same table.
func (f *Forest) CreateTable(table string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.trees.Load()
	if _, ok := old[table]; ok {
		return nil
	}
	root := page.NewLeaf(f.alloc())
	rec := &dclog.CreateTree{Table: table, RootID: root.ID, RootImage: root.Encode()}
	dlsn, err := applier{pool: f.pool, catalog: true}.commit(f.smo, dclog.KindCreateTree, rec, root)
	if err != nil {
		return err
	}
	f.smo.ForceSMO(dlsn)
	trees := make(map[string]*Tree, len(old)+1)
	for t, tr := range old {
		trees[t] = tr
	}
	trees[table] = f.newTree(table, root.ID)
	f.trees.Store(&trees)
	return nil
}
