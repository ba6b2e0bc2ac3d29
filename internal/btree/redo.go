package btree

import (
	"errors"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// This file is the one telling of every system transaction (§5.2.2): what a
// CreateTree, Split, Consolidate or RootCollapse record does to the pages.
// The record is the modification, so there are two ways in to one apply:
// Redo decodes a stable record; a forward system transaction (btree.go,
// Forest.CreateTable) decides and commits the record it built. Nothing
// outside this file cuts a page, moves a separator, installs an image,
// writes the catalog, stamps a dLSN or frees a page, and neither way in frees
// one: that waits for the truncation of the record that deleted it
// (TruncateLog).

// errLogEnded refuses a system transaction whose log will not take its
// record: the incarnation that decided it has crashed.
var errLogEnded = errors.New("btree: system transaction refused: its log has ended")

// applier applies system-transaction records to the pages of one pool,
// latching each page it touches, one at a time. A forward caller holds its
// tree's structure lock and pins on the pages its decision read.
type applier struct {
	pool *buffer.Pool
	// catalog: root changes go to the catalog page. Always in redo and for a
	// Forest's trees; a standalone tree (New) has no catalog page.
	catalog bool
}

// record is a decoded system-transaction payload of package dclog.
type record interface{ Encode() []byte }

// Redo replays one system-transaction record — CreateTree, Split,
// Consolidate or RootCollapse — against pool using the page dLSN tests of
// §5.2.2: a page is touched only if its dLSN says the transaction is not
// yet reflected in it, so replay is idempotent and tolerates any mix of
// stale and current stable pages. Replaying the stable log in dLSN order
// leaves the search structures well-formed before any operation redo
// arrives (§4.2 "Recovery"); Open then reads the catalog. This can execute
// structure modifications out of their original order relative to record
// operations — exactly the situation the dclog formats are designed for.
func Redo(pool *buffer.Pool, kind uint8, payload []byte, dlsn base.DLSN) error {
	rec, err := decode(kind, payload)
	if err != nil {
		return err
	}
	freed, err := applier{pool: pool, catalog: true}.apply(rec, nil, dlsn)
	if err == nil && freed != 0 {
		pool.Drop(freed)
	}
	return err
}

// decode parses a system-transaction payload of the given kind.
func decode(kind uint8, payload []byte) (record, error) {
	switch kind {
	case dclog.KindCreateTree:
		return dclog.DecodeCreateTree(payload)
	case dclog.KindSplit:
		return dclog.DecodeSplit(payload)
	case dclog.KindConsolidate:
		return dclog.DecodeConsolidate(payload)
	case dclog.KindRootCollapse:
		return dclog.DecodeRootCollapse(payload)
	}
	return nil, fmt.Errorf("btree: redo: unknown system-transaction kind %d", kind)
}

// commit is a forward system transaction once its decisions are made: rec
// goes to the DC-log and is applied as Redo would apply it, except that img,
// the page rec's image was encoded from, is put in place instead of a decode
// of it. A log that refuses the record (zero dLSN) refuses the transaction:
// nothing is applied.
func (a applier) commit(log dclog.Logger, kind uint8, rec record, img *page.Page) (base.DLSN, error) {
	dlsn := log.AppendSMO(kind, rec.Encode())
	if dlsn == 0 {
		return 0, errLogEnded
	}
	freed, err := a.apply(rec, img, dlsn)
	if err == nil && freed != 0 {
		a.pool.Drop(freed)
	}
	return dlsn, err
}

// apply makes the pages reflect rec, the system transaction with the given
// dLSN; img is the page rec's image decodes to, or nil. The page rec deletes
// is returned, and its callers, forward and redo alike, only drop its frame:
// the stable page stays until TruncateLog.
func (a applier) apply(rec record, img *page.Page, dlsn base.DLSN) (freed base.PageID, err error) {
	switch r := rec.(type) {
	case *dclog.CreateTree:
		if err = a.install(r.RootID, img, r.RootImage, dlsn); err == nil {
			err = a.setRoot(r.Table, r.RootID, dlsn)
		}
	case *dclog.Split:
		err = a.split(r, img, dlsn)
	case *dclog.Consolidate:
		err = a.consolidate(r, img, dlsn)
	case *dclog.RootCollapse:
		err = a.setRoot(r.Table, r.NewRootID, dlsn)
	default:
		panic(fmt.Sprintf("btree: apply of a %T", rec))
	}
	return deleted(rec), err
}

// deleted is the page rec deletes, or zero.
func deleted(rec record) base.PageID {
	switch r := rec.(type) {
	case *dclog.Consolidate:
		return r.RightID
	case *dclog.RootCollapse:
		return r.OldRootID
	}
	return 0
}

// TruncateLog discards log's stable records below before by way of truncate —
// the engine's own truncation, which reports whether it ran — and then frees
// the pages the discarded records deleted. It is the only way a page leaves
// the store: every record that names a page precedes the one that deletes it
// (page IDs are never reused), so until the delete is discarded redo may still
// meet the page and must find it. A crash between the truncation and the
// frees leaks the pages; it never loses one. (A payload that does not decode,
// which no engine writes, frees nothing.)
func TruncateLog(log *wal.Log, store *storage.PageStore, before base.LSN, truncate func(base.LSN) bool) {
	deletes := log.ScanKinds(before, dclog.KindConsolidate, dclog.KindRootCollapse)
	if !truncate(before) {
		return
	}
	for _, r := range deletes {
		if rec, err := decode(r.Kind, r.Payload); err == nil {
			store.Free(deleted(rec))
		}
	}
}

// stale runs fn on the pinned page under its latch iff the page's dLSN
// predates the system transaction, then stamps and dirties it. A forward
// page is always stale: its transaction's dLSN was assigned a moment ago.
func (a applier) stale(pg *page.Page, dlsn base.DLSN, fn func(*page.Page) error) error {
	pg.L.Lock()
	defer pg.L.Unlock()
	if pg.DLSN >= dlsn {
		return nil
	}
	if err := fn(pg); err != nil {
		return err
	}
	pg.DLSN = dlsn
	a.pool.MarkDirty(pg, 0, 0, dlsn)
	return nil
}

// existing is stale on a page the record only names (role says as what), so
// one that must be there.
func (a applier) existing(id base.PageID, dlsn base.DLSN, role string, fn func(*page.Page) error) error {
	pg, err := a.pool.Fetch(id)
	if err != nil {
		return err
	}
	if pg == nil {
		return fmt.Errorf("btree: %s %d is missing: the store is corrupt", role, id)
	}
	defer a.pool.Unpin(id)
	if err := a.stale(pg, dlsn, fn); err != nil {
		return fmt.Errorf("btree: %s %d %w", role, id, err)
	}
	return nil
}

// install puts in place page id, which the record implies (img) or carries
// (image, decoded only when needed and img is nil; the page is built over
// image, which is the decoded record's own buffer, not the log's, and is
// not touched again). A version the pool finds
// is overwritten where it sits (a frame's page is never swapped under a
// flusher) iff stale; failing one, img becomes the page: stamped, cached
// dirty, left unpinned. In redo the record may be all a power loss left of
// id's allocation, so the allocator is raised to it first.
func (a applier) install(id base.PageID, img *page.Page, image []byte, dlsn base.DLSN) error {
	a.pool.Store().NoteAllocated(id)
	pg, err := a.pool.Fetch(id)
	if err != nil {
		return err
	}
	if pg != nil {
		defer a.pool.Unpin(id)
		return a.stale(pg, dlsn, func(pg *page.Page) (err error) {
			if img == nil {
				img, err = page.Decode(image)
			}
			if err == nil {
				pg.SetContents(img)
			}
			return err
		})
	}
	if img == nil {
		if img, err = page.Decode(image); err != nil {
			return err
		}
	}
	img.DLSN = dlsn
	a.pool.MarkDirty(img, 0, 0, dlsn)
	a.pool.Install(img)
	a.pool.Unpin(id)
	return nil
}

func (a applier) split(sp *dclog.Split, right *page.Page, dlsn base.DLSN) error {
	// New (right) page: the log record captured its contents, including
	// its abstract LSN at the time of the split (§5.2.2(1)).
	if err := a.install(sp.RightID, right, sp.RightImage, dlsn); err != nil {
		return err
	}
	// Pre-split (left) page: only the split key was logged; whatever
	// version is on stable storage, its abstract LSN remains valid
	// (§5.2.2(2)).
	err := a.existing(sp.LeftID, dlsn, "split left page", func(left *page.Page) error {
		left.CutAt(sp.SplitKey, sp.RightID)
		return nil
	})
	if err != nil {
		return err
	}
	if sp.ParentID != 0 {
		// Page IDs are never reused, so a parent older than the split that
		// does not hold the left page is corrupt, in redo as much as forward.
		return a.existing(sp.ParentID, dlsn, "split parent page", func(parent *page.Page) error {
			ci := parent.ChildIndex(sp.LeftID)
			if ci < 0 {
				return fmt.Errorf("does not hold left page %d", sp.LeftID)
			}
			parent.InsertSep(ci, sp.SplitKey, sp.RightID)
			return nil
		})
	}
	// Root split: fresh branch root [SplitKey; Left, Right], which the
	// record implies rather than carries.
	root := page.NewBranch(sp.NewRootID, []string{sp.SplitKey}, []base.PageID{sp.LeftID, sp.RightID})
	if err := a.install(sp.NewRootID, root, nil, dlsn); err != nil {
		return err
	}
	return a.setRoot(sp.Table, sp.NewRootID, dlsn)
}

func (a applier) consolidate(co *dclog.Consolidate, left *page.Page, dlsn base.DLSN) error {
	// The consolidated page was logged physically with abLSN = max of the
	// two inputs (§5.2.2): installing the image repeats history for the
	// page delete regardless of record-operation interleavings.
	if err := a.install(co.LeftID, left, co.LeftImage, dlsn); err != nil {
		return err
	}
	return a.existing(co.ParentID, dlsn, "consolidate parent page", func(parent *page.Page) error {
		ci := parent.ChildIndex(co.RightID)
		if ci <= 0 {
			return fmt.Errorf("does not hold right page %d beside a left sibling", co.RightID)
		}
		parent.RemoveSep(ci - 1)
		return nil
	})
}

// setRoot records table -> root in the catalog page as part of the system
// transaction with the given dLSN. Catalog updates are applied
// unconditionally, redo included (they commute per table and the last write
// wins), because two trees' system transactions may stamp the shared
// catalog page out of dLSN order during normal execution.
func (a applier) setRoot(table string, root base.PageID, dlsn base.DLSN) error {
	if !a.catalog {
		return nil
	}
	cat, err := fetchCatalog(a.pool)
	if err != nil {
		return err
	}
	cat.L.Lock()
	cat.Put(catalogRecord(table, root))
	if dlsn > cat.DLSN {
		cat.DLSN = dlsn
	}
	a.pool.MarkDirty(cat, 0, 0, dlsn)
	cat.L.Unlock()
	a.pool.Unpin(CatalogPageID)
	return nil
}
