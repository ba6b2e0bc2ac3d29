package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/stats"
	"github.com/cidr09/unbundled/internal/tc"
)

// counters is one reading of the layers' public counters, keyed by the
// per-layer metric each feeds: total is reported as its delta over the
// reference window, perTxn as that delta per transaction, and raw feeds the
// ratios computed from two counters.
type counters struct {
	total, perTxn, raw map[string]uint64
}

func readCounters(sys *system, wire *stats.Registry) counters {
	c := counters{total: map[string]uint64{}, perTxn: map[string]uint64{}, raw: map[string]uint64{}}
	for _, t := range sys.tcs {
		s, l, m := t.Stats(), t.Locks().Stats(), t.Log().Media()
		c.total["tc.commits"] += s.Commits
		c.total["tc.aborts"] += s.Aborts
		c.total["tc.ops_sent"] += s.OpsSent
		c.total["tc.probes"] += s.Probes
		c.raw["redo_ops"] += s.RedoOps
		c.total["lockmgr.acquires"] += l.Acquired
		c.total["lockmgr.waits"] += l.Waited
		c.perTxn["wal.bytes_per_txn"] += m.AppendedBytes()
		c.perTxn["wal.forces_per_txn"] += m.Forces()
		c.total["wal.noop_forces"] += m.NoopForces()
	}
	for _, wc := range sys.wcs {
		c.perTxn["wire.calls_per_txn"] += wc.Calls()
		c.total["wire.resends"] += wc.Resends()
		c.total["wire.overloads"] += wc.Overloads()
	}
	for _, g := range wire.Snapshot() {
		c.perTxn["wire.bytes_per_txn"] += g["bytes_out"] + g["bytes_in"]
	}
	if sys.sp.tcp {
		for _, svc := range sys.svcs {
			c.perTxn["wire.watermark_calls_per_txn"] += svc.calls[callEOSL].Load() + svc.calls[callLWM].Load() + svc.calls[callSafeTS].Load()
		}
	}
	d, pool, store := sys.dc.Stats(), sys.dc.Pool().Stats(), sys.dc.Store().Stats()
	c.total["dc.performs"] = d.Performs
	c.total["dc.dup_skips"] = d.DupSkips
	c.total["dc.snapshot_reads"] = d.SnapshotReads
	c.total["dc.snapshot_waits"] = d.SnapshotWaits
	c.perTxn["buffer.evictions_per_txn"] = pool.Evictions
	c.perTxn["buffer.flushes_per_txn"] = pool.Flushes
	c.total["buffer.flush_waits"] = pool.FlushWaits
	c.raw["hits"], c.raw["misses"] = pool.Hits, pool.Misses
	c.raw["page_bytes"], c.raw["ablsn_bytes"] = pool.PageBytes, pool.AbLSNBytes
	c.perTxn["storage.page_bytes_per_txn"] = store.BytesWriten
	c.perTxn["storage.page_reads_per_txn"] = store.PageReads
	c.total["btree.splits"], c.total["btree.consolidates"] = sys.dc.Tree(table).Stats()
	c.total["core.retries"] = sys.retries.Load()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.perTxn["runtime.allocs_per_txn"] = mem.Mallocs
	c.perTxn["runtime.alloc_bytes_per_txn"] = mem.TotalAlloc
	c.total["runtime.gc_cycles"] = uint64(mem.NumGC)
	c.raw["gc_pause_ns"] = mem.PauseTotalNs
	return c
}

// report writes the deltas from c0 to c into m; txns is the number of
// transactions between the two readings.
func (c counters) report(c0 counters, txns float64, m map[string]float64) {
	for name, v := range c.total {
		m[name] = float64(v - c0.total[name])
	}
	for name, v := range c.perTxn {
		m[name] = float64(v-c0.perTxn[name]) / txns
	}
	raw := func(name string) float64 { return float64(c.raw[name] - c0.raw[name]) }
	m["buffer.hit_rate"] = raw("hits") / max(raw("hits")+raw("misses"), 1)
	m["buffer.ablsn_bytes_frac"] = raw("ablsn_bytes") / max(raw("page_bytes"), 1)
	m["runtime.gc_pause_ms"] = raw("gc_pause_ns") / 1e6
}

// inSets samples the abstract-LSN In sets of every cached page; the
// driver calls it just before each checkpoint of the reference window,
// when they are at their largest.
type inSets struct {
	mu                sync.Mutex // every client samples before its own checkpoints
	max, sum, samples int
}

func (s *inSets) sample(pool *buffer.Pool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	pool.Pages(func(pg *page.Page) {
		pg.L.RLock()
		n := pg.Ab.InCountTotal()
		pg.L.RUnlock()
		total += n
		s.max = max(s.max, n)
	})
	s.sum += total
	s.samples++
}

// spanSums is what the traced window's spans add up to.
type spanSums struct {
	txns, ops                   int
	txnTime, beginTime          int64
	opSelf, commitSelf, svcTime int64
	tcCkpt, dcCkpt              []time.Duration
	perform                     []time.Duration // as the DC serves them
	rtt                         []time.Duration // client span minus server span, same (TC, LSN)
	watermarkTime               int64           // on the DC's side
}

type opID struct {
	tc  base.TCID
	lsn base.LSN
}

// logMarks is a position in every span log of a tracer: the TC-side logs
// in order, then the DC-side one.
type logMarks []int

func (t *tracer) marks() logMarks {
	var m logMarks
	for _, l := range t.client {
		m = append(m, l.len())
	}
	return append(m, t.server.len())
}

// sumSpans folds the spans recorded before end (the traced window's). On
// TCP the DC-side view comes from the server log and each LSN-carrying
// Perform is paired with its client-side span; on a direct deployment the
// one TC-side decorator is the DC's boundary.
func sumSpans(sys *system, end logMarks) spanSums {
	var s spanSums
	served := map[opID]int64{}
	dcSide := func(sp *span) {
		switch {
		case sp.Call == callPerform:
			s.perform = append(s.perform, time.Duration(sp.dur()))
		case sp.Call.watermark():
			s.watermarkTime += sp.dur()
		case sp.Call == callCheckpoint:
			s.dcCkpt = append(s.dcCkpt, time.Duration(sp.dur()))
		}
	}
	if sys.sp.tcp {
		sys.tr.server.each(0, end[len(end)-1], func(_ int, sp *span) {
			dcSide(sp)
			if sp.Call == callPerform && sp.LSN != 0 {
				served[opID{sp.TC, sp.LSN}] = sp.dur()
			}
		})
	}
	for j, log := range sys.tr.client {
		self := selfTimes(log)
		log.each(0, end[j], func(i int, sp *span) {
			switch sp.Kind {
			case spanTxn:
				s.txns++
				s.txnTime += sp.dur()
			case spanBegin:
				s.beginTime += sp.dur()
			case spanOp:
				s.ops++
				s.opSelf += self[i]
				s.svcTime += sp.dur() - self[i]
			case spanCommit:
				s.commitSelf += self[i]
				s.svcTime += sp.dur() - self[i]
			case spanCheckpoint:
				s.tcCkpt = append(s.tcCkpt, time.Duration(sp.dur()))
			case spanCall:
				if !sys.sp.tcp {
					dcSide(sp)
				} else if d, ok := served[opID{sp.TC, sp.LSN}]; ok && sp.Call == callPerform {
					s.rtt = append(s.rtt, time.Duration(sp.dur()-d))
				}
			}
		})
	}
	slices.Sort(s.perform)
	slices.Sort(s.rtt)
	return s
}

// traceSlice is the longest the tracer stays on, then off, within the
// traced window; a window shorter than eight such slices is cut in eight.
const traceSlice = 50 * time.Millisecond

// recoveryCycles is how many times the traced pass crashes and recovers
// everything over the same redo tail.
const recoveryCycles = 5

// tracedWindow drives the clients for dur while the tracer flips on and
// off every traceSlice, so the traced transactions and the plain ones they
// are compared with see the same drift (a 2 s window differs from the next
// by up to 10% on its own). It returns the tally and where the span logs
// stood when the window ended.
func tracedWindow(sys *system, cs []*client, dur time.Duration, out *outcome) (totals, logMarks) {
	stop, flipped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flipped)
		tick := time.NewTicker(min(traceSlice, dur/8))
		defer tick.Stop()
		for on := true; ; on = !on {
			sys.tr.on.Store(on)
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	drive(cs, phase{dur: dur, checkpoint: true})
	close(stop)
	<-flipped
	sys.setTracing(false)
	return out.tally(cs), sys.tr.marks()
}

// recovery is what the crash/recover cycles measured: per cycle the TCs'
// restart time and the DC's recovery time, sorted; the redo operations of
// the last cycle; and the span-log positions around each cycle.
type recovery struct {
	restart, dcRecover []time.Duration
	redoOps            uint64
	marks              []logMarks
}

// recoverCycles crashes and recovers everything recoveryCycles times over
// the same redo tail, tracing the recoveries.
func recoverCycles(sys *system, wire *stats.Registry) (*recovery, error) {
	r := &recovery{marks: []logMarks{sys.tr.marks()}}
	for i := 0; i < recoveryCycles; i++ {
		before := readCounters(sys, wire).raw["redo_ops"]
		if _, err := sys.beforeCrash(); err != nil {
			return nil, err
		}
		sys.crashAll()
		sys.setTracing(true)
		dcTime, tcTimes, err := sys.recoverAll()
		sys.setTracing(false)
		if err != nil {
			return nil, err
		}
		r.redoOps = readCounters(sys, wire).raw["redo_ops"] - before
		r.marks = append(r.marks, sys.tr.marks())
		var all time.Duration
		for _, d := range tcTimes {
			all += d
		}
		r.restart, r.dcRecover = append(r.restart, all), append(r.dcRecover, dcTime)
	}
	slices.Sort(r.restart)
	slices.Sort(r.dcRecover)
	return r, nil
}

// unguardedCrash commits a redo tail, crashes everything without the
// checkpoint beforeCrash would take, recovers, and counts the keys that no
// longer hold their last committed value: what finding (d) costs at this
// commit. It runs last, on the workload whose other crashes are guarded,
// and leaves the verdict of the pass alone. A recovery that fails outright
// counts every key as lost.
func unguardedCrash(sys *system, cs []*client, parts []*partition, warm time.Duration, tail int, o *outcome) (lost int, err error) {
	// The recoveries before left the page cache cold; the defect needs
	// pages that evictions flushed after the last checkpoint.
	drive(cs, phase{dur: warm, checkpoint: true})
	drive(cs, phase{count: tail / len(cs), mix: mixWrites})
	o.tally(cs)
	sys.crashAll()
	if _, _, err := sys.recoverAll(); err != nil {
		o.notes = append(o.notes, "unguarded crash: recovery failed: "+err.Error())
		for _, p := range parts {
			lost += len(p.keys)
		}
		return lost, nil
	}
	lost, first, err := verify(sys, parts)
	if first != "" {
		o.notes = append(o.notes, "unguarded crash, first lost key: "+first)
	}
	return lost, err
}

// timeInDC is, per cycle and sorted, the time the TCs' redo spent inside
// Service.Perform. Like every reader of the span logs it must run after
// the deployment is closed.
func (r *recovery) timeInDC(tr *tracer) []time.Duration {
	var out []time.Duration
	for i := 1; i < len(r.marks); i++ {
		var inDC int64
		for j, log := range tr.client {
			log.each(r.marks[i-1][j], r.marks[i][j], func(_ int, sp *span) {
				if sp.Kind == spanCall && sp.Call == callPerform {
					inDC += sp.dur()
				}
			})
		}
		out = append(out, time.Duration(inDC))
	}
	slices.Sort(out)
	return out
}

// runTraced is the traced pass: the same topology hand-assembled from the
// layers' public constructors with a tracedService on each side of the
// wire. It runs an untraced reference window (counters, allocation), a
// traced window (spans), the probes, and five crash/recover cycles, and
// reports per-layer metrics only.
func runTraced(cfg config) (*outcome, error) {
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	sys, parts, _, err := setup(cfg.sp, true)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer sys.close()
	wire := stats.NewRegistry()
	for i, wc := range sys.wcs {
		wc.RegisterStats(wire.Group(fmt.Sprint(i)), "")
	}
	cs := newClients(sys, cfg.seed, parts)
	out := &outcome{metrics: map[string]float64{}}
	tally := func() totals { return out.tally(cs) }
	win := cfg.window() / 5
	drive(cs, phase{dur: win / 4, checkpoint: true})
	tally()

	// Reference window: tracing off. Counter deltas and allocation figures
	// come from here, so tracing cannot colour them.
	var in inSets
	speed0, err := yard.speed()
	if err != nil {
		return nil, err
	}
	c0 := readCounters(sys, wire)
	refWall := drive(cs, phase{dur: win, checkpoint: true,
		beforeCkpt: func(int) { in.sample(sys.dc.Pool()) }})
	c1 := readCounters(sys, wire)
	ref := tally()
	speed1, err := yard.speed()
	if err != nil {
		return nil, err
	}
	refTxns := float64(ref.writes + ref.reads)
	if refTxns == 0 {
		return nil, fmt.Errorf("no transaction completed in the reference window (%v)", ref.firstErr)
	}

	tr, windowEnd := tracedWindow(sys, cs, win, out)
	if tr.tracedTxns == 0 || tr.plainTxns == 0 {
		return nil, fmt.Errorf("no transaction completed in the traced window (%v)", tr.firstErr)
	}

	// Default-policy reads, one at a time: each waits for the next
	// watermark tick to cover its fresh timestamp.
	fresh := newBody(func(x txnOps) error {
		_, _, err := x.Read(table, parts[0].keys[0])
		return err
	})
	var freshLat []time.Duration
	for i := 0; i < scaleCount(int(100*cfg.seconds), cfg.scale); i++ {
		t0 := time.Now()
		if err := sys.exec(0, tc.TxnOptions{ReadOnly: true}, fresh); err != nil {
			return nil, fmt.Errorf("fresh read: %w", err)
		}
		freshLat = append(freshLat, time.Since(t0))
	}
	slices.Sort(freshLat)

	// Redo tail, then crash and recover everything five times over it.
	drive(cs, phase{count: scaleCount(tailTxns/5, cfg.scale) / len(cs), mix: mixWrites})
	tally()
	rec, err := recoverCycles(sys, wire)
	if err != nil {
		return nil, err
	}
	if err := out.verify(sys, parts); err != nil {
		return nil, err
	}
	pages := sys.dc.Store().Len()
	// Every crash so far ran over a real redo tail unless beforeCrash
	// guarded it; where it did, crash once more without the guard.
	lost := out.mismatches
	if cfg.sp.mixed {
		if lost, err = unguardedCrash(sys, cs, parts, win/2, scaleCount(tailTxns, cfg.scale), out); err != nil {
			return nil, err
		}
	}

	// The span logs may be read once nothing writes them any more: the
	// clients have returned, and closing the deployment stops the TCs'
	// watermark tickers and the listener's workers.
	sys.close()
	sums := sumSpans(sys, windowEnd)
	redoDC := rec.timeInDC(sys.tr)
	if cfg.traceOut != "" {
		if err := sys.tr.write(cfg.traceOut, cfg.sp.name, cfg.seed); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
	}

	m := out.metrics
	c1.report(c0, refTxns, m)
	trTxns := float64(sums.txns)
	m["core.fresh_read_p50_ms"] = ms(quantile(freshLat, 0.5))
	m["core.write_p99.5_ms"] = ms(quantile(ref.writeLat, 0.995))
	m["dc.redo_lost_keys"] = float64(lost)
	m["harness.machine_speed"] = (speed0 + speed1) / 2

	tcSelf := float64(sums.beginTime+sums.opSelf+sums.commitSelf) / trTxns
	m["tc.txn_self_us"] = tcSelf / 1e3
	m["tc.begin_us"] = float64(sums.beginTime) / trTxns / 1e3
	m["tc.op_call_us"] = float64(sums.opSelf) / float64(max(sums.ops, 1)) / 1e3
	m["tc.commit_us"] = float64(sums.commitSelf) / trTxns / 1e3
	m["tc.checkpoint_ms"] = ms(mean(sums.tcCkpt))
	m["tc.redo_ops"] = float64(rec.redoOps)
	m["tc.redo_dc_ms"] = ms(redoDC[len(redoDC)/2])
	m["tc.restart_ms"] = ms(rec.restart[len(rec.restart)/2])
	if cfg.sp.tcp {
		m["wire.rtt_us"] = us(mean(sums.rtt))
		m["wire.rtt_p99_us"] = us(quantile(sums.rtt, 0.99))
	}
	m["dc.perform_us"] = us(mean(sums.perform))
	m["dc.perform_p99_us"] = us(quantile(sums.perform, 0.99))
	m["dc.watermark_us_per_txn"] = float64(sums.watermarkTime) / trTxns / 1e3
	m["dc.checkpoint_ms"] = ms(mean(sums.dcCkpt))
	m["dc.recover_ms"] = ms(rec.dcRecover[len(rec.dcRecover)/2])
	m["btree.pages"] = float64(pages)
	m["ablsn.in_max"] = float64(in.max)
	m["ablsn.in_total"] = float64(in.sum) / float64(max(in.samples, 1))

	refRate := refTxns / refWall.Seconds()
	if err := probeLayers(cfg, win/2, refRate, m); err != nil {
		return nil, err
	}
	trRate := float64(tr.tracedTxns) / tr.tracedBusy.Seconds()
	m["harness.trace_overhead_frac"] = 1 - trRate/(float64(tr.plainTxns)/tr.plainBusy.Seconds())
	txnMean := float64(sums.txnTime) / trTxns
	m["harness.budget_gap_frac"] = 1 - (tcSelf+float64(sums.svcTime)/trTxns)/txnMean

	out.notes = append(out.notes,
		fmt.Sprintf("reference window %.2fs: %.0f txns at %.0f/s; traced window: %d traced txns, mean %.1f us, beside %d plain ones",
			refWall.Seconds(), refTxns, refRate, sums.txns, txnMean/1e3, tr.plainTxns),
		fmt.Sprintf("budget per traced txn: tc self %.1f us + service calls %.1f us (of which DC-side perform %.1f us) of %.1f us",
			tcSelf/1e3, float64(sums.svcTime)/trTxns/1e3, float64(mean(sums.perform))*float64(len(sums.perform))/trTxns/1e3, txnMean/1e3),
		fmt.Sprintf("quantile samples: core.write_p99.5 %d (%d beyond), dc.perform %d, wire.rtt %d, fresh reads %d; checkpoints traced: tc %d, dc %d",
			len(ref.writeLat), len(ref.writeLat)/200, len(sums.perform), len(sums.rtt), len(freshLat), len(sums.tcCkpt), len(sums.dcCkpt)),
		fmt.Sprintf("%d crash/recover cycles: tc.restart_ms min %.2f median %.2f; dc.recover_ms min %.2f",
			recoveryCycles, ms(rec.restart[0]), ms(rec.restart[len(rec.restart)/2]), ms(rec.dcRecover[0])))
	return out, nil
}
