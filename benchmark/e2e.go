package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/cidr09/unbundled/internal/core"
)

// config is one run of one workload.
type config struct {
	sp       spec
	seed     int64
	seconds  float64
	scale    float64 // 1 for the benchmark; the smoke test shrinks counts
	traceOut string
	// dropWrite seeds a fault for the smoke test: one upsert of the last
	// transaction before the crash is skipped while the oracle still expects
	// it, so verify must report exactly one mismatch.
	dropWrite bool
}

func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome is what a pass reports: the contract's result line plus the
// sample counts behind the quantiles.
type outcome struct {
	attempted, failed, mismatches int
	metrics                       map[string]float64
	notes                         []string
}

// tally folds the clients' counters since the last tally into the outcome
// and resets them.
func (o *outcome) tally(cs []*client) totals {
	t := collect(cs)
	o.attempted += t.attempted
	o.failed += t.failed + t.badVal
	if t.firstErr != nil {
		o.notes = append(o.notes, "first error: "+t.firstErr.Error())
	}
	for _, c := range cs {
		c.reset()
	}
	return t
}

// verify records how many keys differ from the oracle, and the first one.
func (o *outcome) verify(sys *system, parts []*partition) error {
	n, first, err := verify(sys, parts)
	if o.mismatches = n; first != "" {
		o.notes = append(o.notes, "first verify mismatch: "+first)
	}
	return err
}

// setupRounds is how many times the untraced pass sets the system up;
// setup_s is the median, and the last system built is the one measured.
const setupRounds = 3

// setup builds the deployment, preloads every key and takes the first
// checkpoint.
func setup(sp spec, traced bool) (*system, []*partition, time.Duration, error) {
	t0 := time.Now()
	sys, err := openSystem(sp, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	parts := newPartitions(sp)
	if err := preload(sys, parts); err != nil {
		sys.close()
		return nil, nil, 0, err
	}
	d := time.Since(t0)
	// A bounded-staleness snapshot reads 10 ms into the past: let the last
	// preload commits age past that, or the first reads would rightly not
	// see them.
	time.Sleep(2 * staleness)
	return sys, parts, d, nil
}

// logBytes is the numerator of write_amp: bytes appended to every TC-log
// and to the DC-log, plus bytes the buffer pool wrote to stable pages.
func logBytes(sys *system) uint64 {
	n := sys.dc.DCLog().Media().AppendedBytes() + sys.dc.Pool().Stats().PageBytes
	for _, t := range sys.tcs {
		n += t.Log().Media().AppendedBytes()
	}
	return n
}

// runEndToEnd is the untraced pass: setup, warm-up, the measured window
// (with a read probe where the workload has no reads), a redo tail, then a
// crash of every component, recovery and verification against the oracle.
func runEndToEnd(cfg config) (*outcome, error) {
	yard, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer yard.close()
	var sys *system
	var parts []*partition
	var setups, setupsRaw []float64
	for i := 0; i < setupRounds; i++ {
		if sys != nil {
			sys.close()
		}
		s0, err := yard.speed()
		if err != nil {
			return nil, err
		}
		var d time.Duration
		if sys, parts, d, err = setup(cfg.sp, false); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		s1, err := yard.speed()
		if err != nil {
			sys.close()
			return nil, err
		}
		setups, setupsRaw = append(setups, d.Seconds()*(s0+s1)/2), append(setupsRaw, d.Seconds())
	}
	defer sys.close()
	cs := newClients(sys, cfg.seed, parts)
	out := &outcome{metrics: map[string]float64{}}

	// Warm-up: whole slices for the first 5% of the window; its latencies
	// are dropped, its failures are not.
	for t0 := time.Now(); ; {
		drive(cs, phase{count: cfg.sp.sliceTxns, checkpoint: true})
		if time.Since(t0) >= cfg.window()/20 {
			break
		}
	}
	out.tally(cs)

	snap := max(int(float64(cfg.sp.snapSlices)*cfg.seconds/20+0.5), 1)
	win, err := driveWindow(sys, cs, yard, cfg.window(), snap, out)
	if err != nil {
		return nil, err
	}
	if win.writes == 0 || win.reads == 0 {
		return nil, fmt.Errorf("window committed %d write and %d read transactions (%v)", win.writes, win.reads, win.firstErr)
	}

	// Redo tail: no checkpoint from here to the crash.
	drive(cs, phase{count: scaleCount(tailTxns, cfg.scale) / len(cs), mix: mixWrites})
	if cfg.dropWrite {
		cs[0].gen.drop = true
		drive(cs[:1], phase{count: 1, mix: mixWrites})
	}
	out.tally(cs)
	if guarded, err := sys.beforeCrash(); err != nil {
		return nil, err
	} else if guarded {
		out.notes = append(out.notes, emptyTailNote)
	}
	if err := leaveLosers(sys, parts); err != nil {
		return nil, err
	}
	sys.crashAll()
	if _, _, err := sys.recoverAll(); err != nil {
		return nil, err
	}
	if err := out.verify(sys, parts); err != nil {
		return nil, err
	}

	// A timed metric is the median over the slices of the slice's figure at
	// the reference machine's speed: a time is multiplied by the speed the
	// yardstick saw around the slice, a rate divided by it.
	st := win.slices
	m := out.metrics
	m["setup_s"] = median(setups)
	m["txn_per_s"] = medianOf(st, func(s sliceStat) float64 { return s.txnPerSec / s.speed })
	m["write_p50_ms"] = medianOf(st, func(s sliceStat) float64 { return ms(s.writeP50) * s.speed })
	m["write_p95_ms"] = medianOf(st, func(s sliceStat) float64 { return ms(s.writeP95) * s.speed })
	m["read_p50_ms"] = medianOf(st, func(s sliceStat) float64 { return ms(s.readP50) * s.speed })
	m["write_amp"] = float64(win.snapBytes) / float64(win.snapUser)
	m["peak_rss_mb"] = win.snapRSS - yardMiB
	out.notes = append(out.notes,
		fmt.Sprintf("window: %d slices of %d txns per client, %.2fs inside them: %d write + %d read txns; per slice the write quantiles are from about %d samples, read p50 from about %d; write_amp and peak_rss_mb after slice %d (the yardstick's %d MiB array subtracted)",
			len(st), cfg.sp.sliceTxns, win.wall.Seconds(), win.writes, win.reads, win.writes/len(st), win.reads/len(st), snap, yardMiB),
		fmt.Sprintf("machine speed by the yardstick (1 = reference): median %.3f, by slice:%s; last reading %.3g array steps/s, %.3g loopback round trips/s",
			medianOf(st, func(s sliceStat) float64 { return s.speed }), sliceList(st, func(s sliceStat) float64 { return s.speed }), yard.steps, yard.pings),
		fmt.Sprintf("as measured, uncorrected: setup_s=%.6g txn_per_s=%.6g write_p50_ms=%.6g write_p95_ms=%.6g read_p50_ms=%.6g speed=%.4f",
			median(setupsRaw), medianOf(st, func(s sliceStat) float64 { return s.txnPerSec }),
			medianOf(st, func(s sliceStat) float64 { return ms(s.writeP50) }), medianOf(st, func(s sliceStat) float64 { return ms(s.writeP95) }),
			medianOf(st, func(s sliceStat) float64 { return ms(s.readP50) }), medianOf(st, func(s sliceStat) float64 { return s.speed })),
		fmt.Sprintf("write tail over the whole window, uncorrected: p99=%.6g p99.5=%.6g p99.9=%.6g ms from %d samples (%d beyond p99.5)",
			ms(quantile(win.writeLat, 0.99)), ms(quantile(win.writeLat, 0.995)), ms(quantile(win.writeLat, 0.999)), len(win.writeLat), len(win.writeLat)/200),
		fmt.Sprintf("txn/s by slice, uncorrected:%s", sliceList(st, func(s sliceStat) float64 { return s.txnPerSec })))
	return out, nil
}

// sliceList prints one figure of every slice, in time order.
func sliceList(stats []sliceStat, pick func(sliceStat) float64) string {
	var b strings.Builder
	for _, s := range stats {
		fmt.Fprintf(&b, " %.3g", pick(s))
	}
	return b.String()
}

// leaveLosers leaves one uncommitted transaction per TC in the stable log
// just before the crash: two upserts of garbage over real keys, forced but
// never committed. Recovery must undo them, or verify sees the garbage.
func leaveLosers(sys *system, parts []*partition) error {
	garbage := make([]byte, valueBytes)
	for i, p := range parts {
		x, err := sys.dep.Client().Begin(context.Background(), core.TxnOptions{TC: i + 1, Versioned: sys.sp.mixed})
		if err != nil {
			return fmt.Errorf("loser txn on tc %d: %w", i+1, err)
		}
		for _, k := range p.keys[:2] {
			if err := x.Upsert(table, k, garbage); err != nil {
				return fmt.Errorf("loser txn on tc %d: %w", i+1, err)
			}
		}
		sys.tcs[i].Log().Force()
	}
	return nil
}
