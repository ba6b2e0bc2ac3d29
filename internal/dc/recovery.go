package dc

import (
	"context"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
)

// Crash simulates a DC process failure: the serving incarnation — cache,
// trees, watermarks, fences — and the unforced DC-log tail vanish; stable
// pages and the stable DC-log survive. The DC answers CodeUnavailable until
// Recover runs. Crashing a closed DC leaves it closed.
func (d *DC) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.inc.Store(nil)
	d.dlog.Crash()
}

// Recover builds a new incarnation from the stable media and publishes it:
// replay the stable DC-log in dLSN order so the search structures are
// well-formed *before* any TC redo arrives (§4.2 "Recovery", §5.2.2) and the
// epoch fences are back before any operation is served, then open the trees
// from the catalog. The TC(s) are then prompted (by the deployment layer) to
// resend operations from their redo scan start points. It holds mu
// throughout, so a Crash or Close waits for it and then takes effect.
func (d *DC) Recover() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.inc.Load() != nil {
		return fmt.Errorf("dc %s: recover called while not down", d.cfg.Name)
	}
	inc, err := d.build()
	if err != nil {
		return fmt.Errorf("dc %s: recover: %w", d.cfg.Name, err)
	}
	d.inc.Store(inc)
	return nil
}

// build makes an incarnation out of the stable media.
func (d *DC) build() (*incarnation, error) {
	inc := &incarnation{pages: make(map[base.PageID]string)}
	inc.tcs.Store(&map[base.TCID]*tcState{})
	if d.cfg.CheckConflicts {
		inc.inflight = newConflictTable()
	}
	// The gates read the incarnation the pool belongs to, never the DC: a
	// superseded pool keeps gating on the watermarks it was told.
	inc.pool = buffer.New(buffer.Config{Capacity: d.cfg.CacheCapacity}, d.store, buffer.Gates{
		EOSL:       func(tc base.TCID) base.LSN { return base.LSN(inc.tc(tc).eosl.Load()) },
		LWM:        func(tc base.TCID) base.LSN { return base.LSN(inc.tc(tc).lwm.Load()) },
		ForceDCLog: d.ForceSMO,
	})
	for _, rec := range d.dlog.Scan(0) {
		var err error
		if rec.Kind == dclog.KindEpochs {
			err = inc.redoEpochs(rec.Payload, base.DLSN(rec.LSN))
		} else {
			err = btree.Redo(inc.pool, rec.Kind, rec.Payload, base.DLSN(rec.LSN))
		}
		if err != nil {
			return nil, fmt.Errorf("dLSN %d: %w", rec.LSN, err)
		}
	}
	var err error
	inc.forest, err = btree.Open(btree.Config{MaxPageBytes: d.cfg.PageBytes}, inc.pool,
		d.store.AllocPageID, d, inc.routePage)
	if err != nil {
		return nil, err
	}
	// Rebuild the page -> table map by walking each tree.
	for _, table := range inc.forest.Tables() {
		if err := inc.walkPages(inc.forest.Tree(table).Root(), table); err != nil {
			return nil, err
		}
	}
	return inc, nil
}

func (inc *incarnation) walkPages(id base.PageID, table string) error {
	pg, err := inc.pool.Fetch(id)
	if err != nil {
		return err
	}
	if pg == nil {
		return fmt.Errorf("table %s references missing page %d", table, id)
	}
	inc.routePage(id, table)
	var children []base.PageID
	if !pg.Leaf {
		children = append(children, pg.Children...)
	}
	inc.pool.Unpin(id)
	for _, c := range children {
		if err := inc.walkPages(c, table); err != nil {
			return err
		}
	}
	return nil
}

// redoEpochs reinstalls the incarnation fences a KindEpochs snapshot
// carries: requests of pre-restart TC incarnations stay fenced across DC
// crashes. Max semantics make replay of multiple snapshots idempotent. No
// restart is in progress after a DC recover — if one was, the TC's (resent)
// BeginRestart/EndRestart re-establishes it.
func (inc *incarnation) redoEpochs(payload []byte, dlsn base.DLSN) error {
	eps, err := dclog.DecodeEpochs(payload)
	if err != nil {
		return err
	}
	for _, e := range eps.Epochs {
		raise(&inc.tc(e.TC).epoch, uint64(e.Epoch))
	}
	raise(&inc.epochRec, uint64(dlsn))
	return nil
}

// BeginRestart implements base.Service for TC failure (§5.3.2, §6.1.2):
// the failed TC lost its log tail beyond stableLSN, so the DC must discard
// from its cache every effect of that TC's operations with higher LSNs
// (causality guarantees none reached stable storage). Only the failed TC's
// records are touched: they are replaced from the disk versions of the
// affected pages; other TCs' records survive untouched.
//
// Before anything else the restarting incarnation's epoch is installed as
// the TC's fence and forced into the DC-log: from that moment every
// request stamped by the dead incarnation is refused, and the in-latch
// re-check in write serializes the fence with this sweep — an old-epoch
// operation either lands before the sweep (and is stripped by it) or is
// fenced. Together they close the window the TC-side generation check
// cannot: a batch already on the wire when the TC died.
func (d *DC) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stableLSN base.LSN) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	inc := d.inc.Load()
	if inc == nil {
		return d.errUnavailable()
	}
	pool := inc.pool
	s := inc.tc(tc)
	// The whole restart — fence install, durable record, re-base, sweep,
	// restores — is one ctl critical section: a duplicated delivery must
	// not reply (unblocking the TC's redo) while the winning delivery is
	// still sweeping, and a reordered older-epoch delivery must not regress
	// a fence a newer incarnation already installed.
	s.ctl.Lock()
	defer s.ctl.Unlock()
	cur := base.Epoch(s.epoch.Load())
	if epoch < cur {
		return fmt.Errorf("dc %s: begin-restart for tc %d epoch %d behind fence %d: %w",
			d.cfg.Name, tc, epoch, cur, base.ErrStaleEpoch)
	}
	if epoch == cur && epoch != 0 {
		// Duplicate delivery of an already-processed begin_restart (the
		// wire resends and duplicates): the reset ran once; running it
		// again after redo/undo started would strip post-restart effects.
		return nil
	}
	s.epoch.Store(uint64(epoch))
	s.restarting.Store(true)
	// Persist the fence before touching any state: once effects are swept,
	// no crash may resurrect the DC without it.
	d.logEpochs(inc)
	// The restarted TC reuses the LSN space above stableLSN: stale
	// low-water-mark claims must not prune abstract LSNs into it. (Claims
	// still in flight from the dead incarnation are epoch-fenced, and the
	// fence raise and this re-base are atomic under ctl.)
	s.lwm.Store(0)

	type restore struct {
		table string
		rec   page.Record
	}
	var restores []restore
	pool.Pages(func(pg *page.Page) {
		pg.L.Lock()
		defer pg.L.Unlock()
		if !pg.Leaf {
			return
		}
		a := pg.Ab.Get(tc)
		if a == nil || a.MaxApplied() <= stableLSN {
			return
		}
		d.resetPages.Add(1)
		inc.pagesMu.Lock()
		table := inc.pages[pg.ID]
		inc.pagesMu.Unlock()
		// Strip the failed TC's records from the cached page.
		kept := pg.Recs[:0]
		for i := range pg.Recs {
			if pg.Recs[i].Owner != tc {
				kept = append(kept, pg.Recs[i])
			}
		}
		pg.Recs = kept
		// Revert the TC's abstract LSN (and record set) to the stable
		// version of this page, if any. The restored records alias the
		// stable image, as any fetched page's do (package page).
		data, ok := d.store.Read(pg.ID)
		if !ok {
			pg.Ab.Drop(tc)
			pg.Dirty = true
			return
		}
		diskPg, err := page.Decode(data)
		if err != nil {
			pg.Ab.Drop(tc)
			pg.Dirty = true
			return
		}
		pg.Ab.Set(tc, diskPg.Ab.Get(tc))
		for i := range diskPg.Recs {
			if diskPg.Recs[i].Owner == tc {
				restores = append(restores, restore{table: table, rec: diskPg.Recs[i]})
			}
		}
		pg.Dirty = true
	})

	// Reinsert the stable records through current routing: intervening
	// structure modifications may have moved a key's home page.
	for _, r := range restores {
		tree := inc.forest.Tree(r.table)
		if tree == nil {
			continue
		}
		rec := r.rec
		_, _, err := tree.Apply(rec.Key, func(leaf *page.Page) bool {
			if leaf.Get(rec.Key) == nil {
				leaf.Put(rec)
				d.restoredRecs.Add(1)
				// FirstDirty = 1: conservatively ancient, so the next
				// checkpoint flushes this page before advancing the RSSP.
				pool.MarkDirty(leaf, tc, 1, 0)
			}
			return false
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// EndRestart implements base.Service: restart processing for tc is
// complete. The staged epoch is atomically activated — normal processing
// (checkpoints included) resumes for the new incarnation — and whatever
// the prior incarnation still has queued inside the DC is discarded: its
// conflict-table entries are purged (fenced operations still queued on
// leaf latches otherwise count as conflicts against the new incarnation's
// operations). A late EndRestart from a dead incarnation is refused.
func (d *DC) EndRestart(ctx context.Context, tc base.TCID, epoch base.Epoch) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	inc := d.inc.Load()
	if inc == nil {
		return d.errUnavailable()
	}
	s := inc.tc(tc)
	// Validation and activation are one ctl critical section: a dead
	// incarnation's late end_restart racing a newer begin_restart must not
	// load the old fence, pass the check, and then clear the newer
	// restart's in-progress state.
	s.ctl.Lock()
	defer s.ctl.Unlock()
	cur := base.Epoch(s.epoch.Load())
	if epoch < cur {
		return fmt.Errorf("dc %s: end-restart for tc %d epoch %d behind fence %d: %w",
			d.cfg.Name, tc, epoch, cur, base.ErrStaleEpoch)
	}
	s.restarting.Store(false)
	if inc.inflight != nil {
		inc.inflight.discardStale(tc, cur)
	}
	return nil
}
