package dc

import (
	"context"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
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
	inc.tcs.Store(&[]*tcState{})
	if d.cfg.CheckConflicts {
		inc.inflight = newConflictTable()
	}
	// The gates read the incarnation the pool belongs to, never the DC: a
	// superseded pool keeps pruning to the marks it was told. A write-back
	// collects the versions below the GC horizon (refreshHorizon).
	inc.pool = buffer.New(buffer.Config{Capacity: d.cfg.CacheCapacity}, d.store, buffer.Gates{
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
	for _, s := range inc.states() {
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
// opens it: the TC resends to a DC that restarted (an owed bracket) or
// repeats itself (an open one). If that resend has already ended, nothing is
// owed and the TC is told so (ErrNothingOwed).
//
// A newer epoch is a TC failure (§5.3.2, §6.1.2). The failed TC lost its log
// tail beyond stableLSN, but nothing of it reached the DC: a TC sends an
// operation only once it is stable in its log. So nothing is undone, and
// stableLSN is not read. The restarting incarnation's epoch is installed as
// the TC's fence and forced into the DC-log: from then on every request
// stamped by the dead incarnation is refused, and the in-latch re-check in
// write refuses one that passed the entry check first.
func (d *DC) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stableLSN base.LSN) error {
	if ctx.Err() != nil {
		return base.CancelErr(ctx)
	}
	inc := d.inc.Load()
	if inc == nil {
		return d.errUnavailable()
	}
	s := inc.tc(tc)
	// The fence install and its durable record are one ctl critical section:
	// a duplicated delivery must not reply (unblocking the TC's redo) before
	// the fence is durable, and a reordered older-epoch delivery must not
	// regress a fence a newer incarnation already installed.
	s.ctl.Lock()
	defer s.ctl.Unlock()
	cur := base.Epoch(s.epoch.Load())
	if epoch < cur {
		return fmt.Errorf("dc %s: begin-restart for tc %d epoch %d behind fence %d: %w",
			d.cfg.Name, tc, epoch, cur, base.ErrStaleEpoch)
	}
	if epoch == cur && epoch != 0 && bracket(s.bracket.Load()) == done {
		return fmt.Errorf("dc %s: tc %d epoch %d resent to incarnation %d: %w",
			d.cfg.Name, tc, epoch, inc.n, base.ErrNothingOwed)
	}
	s.bracket.Store(uint32(open))
	if epoch == cur {
		return nil
	}
	s.epoch.Store(uint64(epoch))
	if !inc.logEpochs() {
		return d.errUnavailable() // crashed meanwhile: the TC begins again at the successor
	}
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
