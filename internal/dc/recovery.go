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
	inc := &incarnation{}
	inc.tcs.Store(&map[base.TCID]*tcState{})
	if d.cfg.CheckConflicts {
		inc.inflight = newConflictTable()
	}
	// The gates read the incarnation the pool belongs to, never the DC: a
	// superseded pool keeps gating on the watermarks it was told.
	inc.pool = buffer.New(buffer.Config{Capacity: d.cfg.CacheCapacity}, d.store, buffer.Gates{
		EOSL:       inc.eosl,
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
	inc.forest, err = btree.Open(btree.Config{MaxPageBytes: d.cfg.PageBytes}, inc.pool, d.store.AllocPageID, d)
	if err != nil {
		return nil, err
	}
	return inc, nil
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
// (causality guarantees none reached stable storage). It undoes exactly
// those operations, page by page, from each cached leaf's undo tail, and
// takes back the page's claims to them: no stable page is read and nothing
// is routed, so splits and consolidations since the last flush — which
// carried the entries with their keys — do not matter. Other TCs' records
// and entries survive untouched.
//
// Before anything else the restarting incarnation's epoch is installed as
// the TC's fence and forced into the DC-log: from that moment every
// request stamped by the dead incarnation is refused, and the in-latch
// re-check in write serializes the fence with this sweep — an old-epoch
// operation either lands before the sweep (and is undone by it) or is
// fenced. Together they close the window the TC-side generation check
// cannot: a batch already on the wire when the TC died. The sweep holds
// every tree's structure lock, so no split or consolidation that decided on
// a page before the sweep applies after it.
func (d *DC) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stableLSN base.LSN) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	inc := d.inc.Load()
	if inc == nil {
		return d.errUnavailable()
	}
	s := inc.tc(tc)
	// The whole restart — fence install, durable record, re-base, sweep —
	// is one ctl critical section: a duplicated delivery must not reply
	// (unblocking the TC's redo) while the winning delivery is still
	// sweeping, and a reordered older-epoch delivery must not regress a
	// fence a newer incarnation already installed.
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
		// again after redo/undo started would undo post-restart effects.
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

	// A page that claims nothing of tc above stableLSN holds no such
	// operation and no entry for one. One that does was never flushed since
	// (causality), so it stays dirty however much is undone.
	inc.forest.Exclusive(func() {
		inc.pool.Pages(func(pg *page.Page) {
			pg.L.Lock()
			defer pg.L.Unlock()
			if pg.Leaf && pg.Ab.MaxApplied(tc) > stableLSN {
				d.resetPages.Add(1)
				d.rolledBack.Add(uint64(pg.RollBack(tc, stableLSN)))
			}
		})
	})
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
