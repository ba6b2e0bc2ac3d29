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
// Recover runs. Both of the incarnation's handles on the stable media end
// here, before any successor exists: the pool first, so no page reaches the
// store after the log stops forcing the records it depends on, then the
// DC-log generation. Crashing a closed DC leaves it closed.
func (d *DC) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if inc := d.inc.Swap(nil); inc != nil {
		inc.pool.End()
	}
	d.dlog.Crash()
}

// Recover builds a new incarnation from the stable media and publishes it:
// replay the stable DC-log in dLSN order so the search structures are
// well-formed *before* any TC redo arrives (§4.2 "Recovery", §5.2.2) and the
// epoch fences are back before any operation is served, open the trees from
// the catalog, and durably take the next incarnation number. Every TC the
// fences name owes the new incarnation a resend of its redo stream from its
// redo scan start point (§5.3.2 "DC Failure"), and is refused everything but
// that resend until it has ended: its first other operation is answered
// CodeStaleDC, which is the prompt. It holds mu throughout, so a Crash or
// Close waits for it and then takes effect.
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
	inc := &incarnation{log: d.dlog.Generation()}
	inc.tcs.Store(&map[base.TCID]*tcState{})
	if d.cfg.CheckConflicts {
		inc.inflight = newConflictTable()
	}
	// The gates read the incarnation the pool belongs to, never the DC: a
	// superseded pool keeps gating on the watermarks it was told. A write-back
	// collects the versions below the GC horizon (refreshHorizon).
	inc.pool = buffer.New(buffer.Config{Capacity: d.cfg.CacheCapacity}, d.store, buffer.Gates{
		EOSL:       inc.eosl,
		LWM:        func(tc base.TCID) base.LSN { return base.LSN(inc.tc(tc).lwm.Load()) },
		ForceDCLog: inc.ForceSMO,
		Horizon:    func() base.TS { return base.TS(inc.gcHorizon.Load()) },
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
	inc.forest, err = btree.Open(btree.Config{MaxPageBytes: d.cfg.PageBytes}, inc.pool, d.store.AllocPageID, inc, inc.resent)
	if err != nil {
		return nil, err
	}
	inc.n++ // one above the last number any snapshot recorded
	for _, s := range *inc.tcs.Load() {
		s.bracket.Store(uint32(owed))
	}
	inc.logEpochs() // d.mu keeps Crash out: the generation is live
	return inc, nil
}

// redoEpochs reinstalls what a KindEpochs snapshot carries: the incarnation
// fences, so requests of pre-restart TC incarnations stay fenced across DC
// crashes, and the number of the DC incarnation that wrote it. Max semantics
// make replay of multiple snapshots idempotent.
func (inc *incarnation) redoEpochs(payload []byte, dlsn base.DLSN) error {
	eps, err := dclog.DecodeEpochs(payload)
	if err != nil {
		return err
	}
	for _, e := range eps.Epochs {
		raise(&inc.tc(e.TC).epoch, uint64(e.Epoch))
	}
	inc.n = max(inc.n, eps.Inc)
	raise(&inc.epochRec, uint64(dlsn))
	return nil
}

// BeginRestart implements base.Service: it opens tc's resend bracket in this
// incarnation (see bracket). Of the epoch the fence already holds, it only
// opens it: the TC resends to a DC that restarted (an owed bracket; the
// crash took everything, so nothing is undone) or repeats itself (an open
// one). If that resend has already ended, nothing is owed and the TC is told
// so (ErrNothingOwed).
//
// A newer epoch is a TC failure (§5.3.2, §6.1.2): the failed TC lost its log
// tail beyond stableLSN, so the DC must discard from its cache every effect
// of that TC's operations with higher LSNs (causality guarantees none
// reached stable storage). It undoes exactly those operations, page by page,
// from each cached leaf's undo tail, and takes back the page's claims to
// them: no stable page is read and nothing is routed, so splits and
// consolidations since the last flush — which carried the entries with their
// keys — do not matter. Other TCs' records and entries survive untouched.
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
		// Never a reset: it ran once for this epoch, if at all, and running
		// it again after redo or undo started would undo their effects.
		if bracket(s.bracket.Load()) == done {
			return fmt.Errorf("dc %s: tc %d epoch %d resent to incarnation %d: %w",
				d.cfg.Name, tc, epoch, inc.n, base.ErrNothingOwed)
		}
		s.bracket.Store(uint32(open))
		return nil
	}
	s.epoch.Store(uint64(epoch))
	s.bracket.Store(uint32(open))
	// Persist the fence before touching any state: once effects are swept,
	// no crash may resurrect the DC without it.
	if !inc.logEpochs() {
		return d.errUnavailable() // crashed meanwhile: the TC begins again at the successor
	}
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

// EndRestart implements base.Service: tc's resend to this incarnation is
// complete, and its bracket done — normal processing (its watermarks,
// checkpoints and unstamped operations) resumes — and whatever the prior TC
// incarnation still has queued inside the DC is discarded: its
// conflict-table entries are purged (fenced operations still queued on
// leaf latches otherwise count as conflicts against the new incarnation's
// operations). A late EndRestart from a dead TC incarnation is refused
// (ErrStaleEpoch), and so is one this DC incarnation never saw begin
// (ErrStaleDC): the DC restarted under the resend, which must start over.
// A repeated one is a no-op.
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
	if epoch > cur || bracket(s.bracket.Load()) == owed {
		return fmt.Errorf("dc %s: end-restart for tc %d epoch %d: incarnation %d saw no begin: %w",
			d.cfg.Name, tc, epoch, inc.n, base.ErrStaleDC)
	}
	s.bracket.Store(uint32(done))
	if inc.inflight != nil {
		inc.inflight.discardStale(tc, cur)
	}
	return nil
}
