package dc

import (
	"github.com/cidr09/unbundled/internal/stats"
)

// This file is the DC's operations plane: the drain/undrain quiesce
// protocol and the metrics registration consumed by the admin HTTP
// endpoint (internal/stats).

// Drain stops admitting new operations: PerformBatch nacks CodeUnavailable
// (transient — the TCs' resend discipline rides the window out exactly
// as it rides out a crash), while operations already executing run to
// completion. Control calls — watermarks, checkpoints, restart
// protocols — stay admitted, so a draining DC never wedges a TC
// recovery. Quiesced reports when the last in-flight operation has
// left. Drain returns immediately.
func (d *DC) Drain() { d.draining.Store(true) }

// Undrain resumes admitting operations; pending TC resends then land.
func (d *DC) Undrain() { d.draining.Store(false) }

// Draining reports whether the DC is refusing new operations.
func (d *DC) Draining() bool { return d.draining.Load() }

// Quiesced reports whether a drain has fully settled: draining and no
// operation is executing.
func (d *DC) Quiesced() bool {
	return d.draining.Load() && d.inflightOps.Load() == 0
}

// RegisterStats registers this DC's counters and derived gauges with a
// stats group. Values are read at snapshot time from the DC's own
// atomics — registration adds nothing to any hot path.
func (d *DC) RegisterStats(g *stats.Group) {
	g.Func("performs", d.performs.Load)
	g.Func("batches", d.batches.Load)
	g.Func("batch_ops", d.batchOps.Load)
	g.Func("dup_skips", d.dupSkips.Load)
	g.Func("unavailable", d.unavailable.Load)
	g.Func("drain_rejects", d.drainRejects.Load)
	g.Func("stale_epochs", d.staleEpochs.Load)
	g.Func("conflict_violations", d.conVios.Load)
	g.Func("snapshot_reads", d.snapReads.Load)
	g.Func("snapshot_waits", d.snapWaits.Load)
	g.Func("gc_horizon", func() uint64 {
		if inc := d.inc.Load(); inc != nil {
			return inc.gcHorizon.Load()
		}
		return 0
	})
	g.Func("inflight_ops", func() uint64 {
		if v := d.inflightOps.Load(); v > 0 {
			return uint64(v)
		}
		return 0
	})
	g.Func("draining", func() uint64 {
		if d.draining.Load() {
			return 1
		}
		return 0
	})
}
