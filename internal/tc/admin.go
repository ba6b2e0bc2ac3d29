package tc

import (
	"context"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/stats"
)

// This file is the TC's operations plane: the drain/undrain quiesce
// protocol and the metrics registration consumed by the admin HTTP
// endpoint (internal/stats).

// Drain stops admitting new transactions: RunTxnOnce (and therefore
// every deployment-client attempt routed here) fails typed with
// base.ErrDraining, which is transient — clients re-route to another TC
// or retry after Undrain. In-flight transactions run to completion,
// the finisher of a cancelled Commit included; Quiesced reports when
// the last of them (and the last unacknowledged log record) has
// settled. Drain returns immediately — quiescing is observed, not
// awaited (WaitQuiesced does the waiting).
//
// Drain is an admission gate, not a shutdown: watermark broadcasts,
// checkpoints, snapshot-timestamp service for still-open snapshots, and
// recovery protocols all keep running, so a draining TC never stalls
// the rest of the fleet.
func (t *TC) Drain() { t.draining.Store(true) }

// Undrain resumes admitting transactions.
func (t *TC) Undrain() { t.draining.Store(false) }

// Draining reports whether the TC is refusing new transactions.
func (t *TC) Draining() bool { return t.draining.Load() }

// Quiesced reports whether a drain has fully settled: the TC is
// draining, no transaction is active, and the ack barrier is empty
// (every assigned LSN acknowledged, so nothing of this TC's is still in
// flight toward a DC).
func (t *TC) Quiesced() bool {
	return t.draining.Load() && t.ActiveTxns() == 0 && t.AckBarrierDepth() == 0
}

// WaitQuiesced blocks until Quiesced or ctx is done. Undraining while a
// waiter is parked makes it fail with ErrDraining=false semantics — the
// caller asked to observe a quiesce that was called off.
func (t *TC) WaitQuiesced(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if !t.Draining() {
			return fmt.Errorf("tc %d: drain called off while waiting for quiesce", t.cfg.ID)
		}
		if t.Quiesced() {
			return nil
		}
		select {
		case <-ctx.Done():
			return base.CancelErr(ctx)
		case <-tick.C:
		}
	}
}

// AckBarrierDepth returns the number of assigned LSNs not yet
// acknowledged — the operations in flight at commits across all
// transactions. Zero means every operation the serving incarnation ever
// shipped (or logged locally) has settled.
func (t *TC) AckBarrierDepth() uint64 {
	if last, lwm := t.log.LastLSN(), t.lwm(); last > lwm {
		return uint64(last - lwm)
	}
	return 0
}

// lwm is the serving incarnation's low-water mark; while the TC is down
// nothing is in flight and it is the end of the log.
func (t *TC) lwm() base.LSN {
	if inc := t.inc.Load(); inc != nil {
		return inc.acks.LWM()
	}
	return t.log.LastLSN()
}

// SafeTSLag returns how far the last-broadcast safe timestamp trails
// the TC's clock (in timestamp units, i.e. nanoseconds under the system
// clock). A growing lag means snapshot reads fleet-wide are waiting on
// this TC.
func (t *TC) SafeTSLag() uint64 { return t.lagBehind(&t.maxSafeSent) }

// HorizonLag returns how far the last-broadcast version-GC horizon trails
// the TC's clock: how much history the DCs keep for this TC's snapshots.
// It follows the oldest open snapshot and, with none open, the largest
// staleness bounded readers ask for, and is at least a watermark tick.
func (t *TC) HorizonLag() uint64 { return t.lagBehind(&t.maxHorizonSent) }

// lagBehind returns how far a broadcast timestamp guarded by tsMu trails
// the clock.
func (t *TC) lagBehind(sent *base.TS) uint64 {
	now, _ := t.clock.Now()
	t.tsMu.Lock()
	ts := *sent
	t.tsMu.Unlock()
	if now > ts {
		return uint64(now - ts)
	}
	return 0
}

// RegisterStats registers this TC's counters and derived gauges with a
// stats group. Every value is read at snapshot time from the TC's own
// atomics — registration adds nothing to any hot path.
func (t *TC) RegisterStats(g *stats.Group) {
	g.Func("txns_begun", t.begun.Load)
	g.Func("commits", t.commits.Load)
	g.Func("aborts", t.aborts.Load)
	g.Func("deadlock_aborts", t.deadlocks.Load)
	g.Func("retries", t.retries.Load)
	g.Func("drain_rejects", t.drainRejects.Load)
	g.Func("ops_sent", t.opsSent.Load)
	g.Func("probes", t.probes.Load)
	g.Func("checkpoints", t.checkpoints.Load)
	g.Func("redo_ops", t.redoOps.Load)
	g.Func("snapshots", t.snapshots.Load)
	g.Func("active_txns", func() uint64 { return uint64(t.ActiveTxns()) })
	g.Func("ack_barrier_depth", t.AckBarrierDepth)
	g.Func("safe_ts_lag", t.SafeTSLag)
	g.Func("horizon_lag", t.HorizonLag)
	g.Func("epoch", func() uint64 { return uint64(t.Epoch()) })
	g.Func("lwm", func() uint64 { return uint64(t.lwm()) })
	g.Func("eosl", func() uint64 { return uint64(t.log.EOSL()) })
	g.Func("log_forces", func() uint64 { return t.log.Media().Forces() })
	// Forces skipped because a concurrent committer's fsync already
	// covered the tail — the group-commit win, counted.
	g.Func("log_forces_noop", func() uint64 { return t.log.Media().NoopForces() })
	g.Func("draining", func() uint64 {
		if t.draining.Load() {
			return 1
		}
		return 0
	})
}
