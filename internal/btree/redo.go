package btree

import (
	"fmt"
	"sort"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
)

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
	switch kind {
	case dclog.KindCreateTree:
		ct, err := dclog.DecodeCreateTree(payload)
		if err != nil {
			return err
		}
		if err := redoInstallImage(pool, ct.RootID, ct.RootImage, dlsn); err != nil {
			return err
		}
		return putCatalog(pool, ct.Table, ct.RootID, dlsn)
	case dclog.KindSplit:
		sp, err := dclog.DecodeSplit(payload)
		if err != nil {
			return err
		}
		return redoSplit(pool, sp, dlsn)
	case dclog.KindConsolidate:
		co, err := dclog.DecodeConsolidate(payload)
		if err != nil {
			return err
		}
		return redoConsolidate(pool, co, dlsn)
	case dclog.KindRootCollapse:
		rc, err := dclog.DecodeRootCollapse(payload)
		if err != nil {
			return err
		}
		if err := putCatalog(pool, rc.Table, rc.NewRootID, dlsn); err != nil {
			return err
		}
		pool.Drop(rc.OldRootID, true)
		return nil
	}
	return fmt.Errorf("btree: redo: unknown system-transaction kind %d", kind)
}

// redoInstallImage (re)creates a page from a logged physical image unless
// the version the pool finds already reflects this or a later system
// transaction.
func redoInstallImage(pool *buffer.Pool, id base.PageID, image []byte, dlsn base.DLSN) error {
	existing, err := pool.Fetch(id)
	if err != nil {
		return err
	}
	if existing != nil {
		current := existing.DLSN >= dlsn
		pool.Unpin(id)
		if current {
			return nil
		}
	}
	pg, err := page.Decode(image)
	if err != nil {
		return err
	}
	installNew(pool, pg, dlsn)
	return nil
}

// redoStale runs apply on page id under its latch iff the page's dLSN
// predates the system transaction, then stamps it. what names the page's
// role for the error a missing page draws.
func redoStale(pool *buffer.Pool, id base.PageID, dlsn base.DLSN, what string, apply func(*page.Page)) error {
	pg, err := pool.Fetch(id)
	if err != nil {
		return err
	}
	if pg == nil {
		return fmt.Errorf("btree: %s %d", what, id)
	}
	pg.L.Lock()
	if pg.DLSN < dlsn {
		apply(pg)
		pg.DLSN = dlsn
		pool.MarkDirty(pg, 0, 0, dlsn)
	}
	pg.L.Unlock()
	pool.Unpin(id)
	return nil
}

func redoSplit(pool *buffer.Pool, sp *dclog.Split, dlsn base.DLSN) error {
	// New (right) page: the log record captured its contents, including
	// its abstract LSN at the time of the split (§5.2.2(1)).
	if err := redoInstallImage(pool, sp.RightID, sp.RightImage, dlsn); err != nil {
		return err
	}
	// Pre-split (left) page: only the split key was logged; whatever
	// version is on stable storage, its abstract LSN remains valid
	// (§5.2.2(2)).
	err := redoStale(pool, sp.LeftID, dlsn, "split redo lost left page", func(left *page.Page) {
		pruneForSplit(left, sp.SplitKey)
		if left.Leaf {
			left.Next = sp.RightID
		}
	})
	if err != nil {
		return err
	}
	if sp.ParentID != 0 {
		return redoStale(pool, sp.ParentID, dlsn, "split redo lost parent page", func(parent *page.Page) {
			if ci := parent.ChildIndex(sp.LeftID); ci >= 0 && parent.ChildIndex(sp.RightID) < 0 {
				parent.InsertSep(ci, sp.SplitKey, sp.RightID)
			}
		})
	}
	if sp.NewRootID == 0 {
		return nil
	}
	// Root split: fresh branch root [SplitKey; Left, Right], which the
	// record implies rather than carries.
	root := page.NewBranch(sp.NewRootID, []string{sp.SplitKey}, []base.PageID{sp.LeftID, sp.RightID})
	if err := redoInstallImage(pool, sp.NewRootID, root.Encode(), dlsn); err != nil {
		return err
	}
	return putCatalog(pool, sp.Table, sp.NewRootID, dlsn)
}

// pruneForSplit removes the upper half that moved to the right page.
func pruneForSplit(pg *page.Page, splitKey string) {
	if pg.Leaf {
		i := sort.Search(len(pg.Recs), func(i int) bool { return pg.Recs[i].Key >= splitKey })
		pg.Recs = pg.Recs[:i:i]
		return
	}
	i := sort.Search(len(pg.Keys), func(i int) bool { return pg.Keys[i] >= splitKey })
	pg.Keys = pg.Keys[:i:i]
	pg.Children = pg.Children[: i+1 : i+1]
}

func redoConsolidate(pool *buffer.Pool, co *dclog.Consolidate, dlsn base.DLSN) error {
	// The consolidated page was logged physically with abLSN = max of the
	// two inputs (§5.2.2): installing the image repeats history for the
	// page delete regardless of record-operation interleavings.
	if err := redoInstallImage(pool, co.LeftID, co.LeftImage, dlsn); err != nil {
		return err
	}
	pool.Drop(co.RightID, true)
	if co.ParentID == 0 {
		return nil
	}
	return redoStale(pool, co.ParentID, dlsn, "consolidate redo lost parent", func(parent *page.Page) {
		if ci := parent.ChildIndex(co.RightID); ci > 0 {
			parent.RemoveSep(ci - 1)
		}
	})
}
