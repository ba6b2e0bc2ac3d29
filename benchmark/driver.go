package main

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/cidr09/unbundled/internal/tc"
)

// client is one closed-loop client: it owns a key partition, is pinned to
// one TC, and sends its next transaction only when the previous one has
// returned — a TC's callers are application servers waiting for their
// commit.
type client struct {
	id   int
	gen  *generator
	sys  *system
	wr   *body
	rd   *body
	scan *body

	// Counted since the last reset.
	attempted, failed int
	writes, reads     int
	userBytes         int
	writeLat, readLat []time.Duration
	sinceCkpt         int
	firstErr          error
	// Transactions and time spent in them, split by whether the tracer was
	// on when each started (traced pass only).
	tracedTxns, plainTxns int
	tracedBusy, plainBusy time.Duration
}

func newClients(sys *system, seed int64, parts []*partition) []*client {
	cs := make([]*client, sys.sp.clients)
	for i := range cs {
		g := newGenerator(sys.sp, seed, i, parts)
		cs[i] = &client{id: i, gen: g, sys: sys,
			wr: newBody(g.writeFn), rd: newBody(g.readFn), scan: newBody(g.scanFn)}
	}
	return cs
}

func (c *client) reset() {
	c.attempted, c.failed, c.writes, c.reads, c.userBytes = 0, 0, 0, 0, 0
	c.tracedTxns, c.plainTxns, c.tracedBusy, c.plainBusy = 0, 0, 0, 0
	c.writeLat, c.readLat = c.writeLat[:0], c.readLat[:0]
	c.gen.badVal, c.gen.badMsg, c.firstErr = 0, "", nil
}

type mix uint8

const (
	mixWorkload mix = iota // the workload's own mix: writes, or 80/20 on tcp_mixed
	mixWrites              // write transactions only
	mixReads               // read-only transactions only
)

// phase is one stretch of closed-loop load: it ends after dur or after
// count transactions per client, whichever is set.
type phase struct {
	dur        time.Duration
	count      int
	mix        mix
	checkpoint bool // apply the every-ckptEvery checkpoint policy
	beforeCkpt func(client int)
}

// run drives the phase on one client.
func (c *client) run(ph phase, start time.Time) {
	for n := 0; ph.count == 0 || n < ph.count; n++ {
		read := ph.mix == mixReads || (ph.mix == mixWorkload && c.sys.sp.mixed && c.gen.rng.Intn(5) != 0)
		opts, b := c.gen.writeOpts(), c.wr
		if read {
			opts, b = readOpts(), c.rd
			if c.gen.nextRead() {
				b = c.scan
			}
		} else {
			c.gen.nextWrite()
		}
		t0 := time.Now()
		if ph.dur > 0 && t0.Sub(start) >= ph.dur {
			return
		}
		err := c.sys.exec(c.id, opts, b)
		lat := time.Since(t0)
		c.attempted++
		if c.sys.tr != nil && c.sys.traced[c.id].on {
			c.tracedTxns++
			c.tracedBusy += lat
		} else {
			c.plainTxns++
			c.plainBusy += lat
		}
		switch {
		case err != nil:
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
		case read:
			c.reads++
			c.readLat = append(c.readLat, lat)
		default:
			c.gen.committed()
			c.writes++
			c.userBytes += c.gen.userBytes()
			c.writeLat = append(c.writeLat, lat)
		}
		if !ph.checkpoint {
			continue
		}
		if c.sinceCkpt++; c.sinceCkpt >= ckptEvery {
			c.sinceCkpt = 0
			if ph.beforeCkpt != nil {
				ph.beforeCkpt(c.id)
			}
			// A checkpoint that fails is a failed operation like any other.
			c.attempted++
			if err := c.sys.checkpoint(c.id); err != nil {
				c.failed++
				if c.firstErr == nil {
					c.firstErr = err
				}
			}
		}
	}
}

// drive runs the phase on every client at once and returns its wall time.
func drive(cs []*client, ph phase) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(ph, start)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// sliceStat is what one slice of a window measured: the raw figures, and
// the machine's speed around the slice as the yardstick saw it.
type sliceStat struct {
	speed                       float64
	txnPerSec                   float64
	writeP50, writeP95, readP50 time.Duration
}

// window is a measured window: count-based slices, so every slice is the
// same work with the same number of checkpoints, each bracketed by two
// yardstick measurements.
type window struct {
	slices   []sliceStat
	wall     time.Duration   // in the slices, yardstick and read probe left out
	writes   int             // committed write transactions
	reads    int             // committed read-only transactions, probe included
	writeLat []time.Duration // every write latency of the window, sorted
	firstErr error
	// At the end of slice sp.snapSlices, so over the same transactions on
	// every run and every commit: bytes logged and flushed since the window
	// began, the key+value bytes committed, and the process's peak RSS.
	snapBytes, snapUser uint64
	snapRSS             float64
}

// driveWindow runs slices of sp.sliceTxns transactions per client until dur
// has passed (and at least to the snapshot slice), tallying every slice
// into o. On a workload without reads of its own every slice is followed
// by probeReads read-only transactions per client, which give the slice its
// read figure.
func driveWindow(sys *system, cs []*client, y *yardstick, dur time.Duration, snapSlices int, o *outcome) (*window, error) {
	w := &window{}
	ph := phase{count: sys.sp.sliceTxns, checkpoint: true}
	speed, err := y.speed()
	if err != nil {
		return nil, err
	}
	before := logBytes(sys)
	start := time.Now()
	for n := 1; n <= snapSlices || time.Since(start) < dur; n++ {
		d := drive(cs, ph)
		t := o.tally(cs)
		st := sliceStat{txnPerSec: float64(t.writes+t.reads) / d.Seconds(),
			writeP50: quantile(t.writeLat, 0.50), writeP95: quantile(t.writeLat, 0.95),
			readP50: quantile(t.readLat, 0.50)}
		w.wall += d
		w.writes += t.writes
		w.reads += t.reads
		if n <= snapSlices {
			w.snapUser += uint64(t.userBytes)
		}
		w.writeLat = append(w.writeLat, t.writeLat...)
		if w.firstErr == nil {
			w.firstErr = t.firstErr
		}
		if n == snapSlices {
			w.snapBytes, w.snapRSS = logBytes(sys)-before, peakRSSMB()
		}
		if !sys.sp.mixed {
			drive(cs, phase{count: probeReads, mix: mixReads})
			t = o.tally(cs)
			st.readP50 = quantile(t.readLat, 0.50)
			w.reads += t.reads
			if w.firstErr == nil {
				w.firstErr = t.firstErr
			}
		}
		next, err := y.speed()
		if err != nil {
			return nil, err
		}
		st.speed, speed = (speed+next)/2, next
		w.slices = append(w.slices, st)
	}
	slices.Sort(w.writeLat)
	return w, nil
}

// median is the median of vs, which it sorts.
func median(vs []float64) float64 {
	slices.Sort(vs)
	return (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
}

// medianOf is the median over slices of one of their figures.
func medianOf(stats []sliceStat, pick func(sliceStat) float64) float64 {
	vs := make([]float64, len(stats))
	for i, s := range stats {
		vs[i] = pick(s)
	}
	return median(vs)
}

// totals sums the clients' counters.
type totals struct {
	attempted, failed, writes, reads, userBytes, badVal int
	writeLat, readLat                                   []time.Duration
	firstErr                                            error
	tracedTxns, plainTxns                               int
	tracedBusy, plainBusy                               time.Duration
}

func collect(cs []*client) totals {
	var t totals
	for _, c := range cs {
		t.attempted += c.attempted
		t.failed += c.failed
		t.writes += c.writes
		t.reads += c.reads
		t.userBytes += c.userBytes
		t.tracedTxns += c.tracedTxns
		t.plainTxns += c.plainTxns
		t.tracedBusy += c.tracedBusy
		t.plainBusy += c.plainBusy
		if t.badVal += c.gen.badVal; c.gen.badMsg != "" && t.firstErr == nil {
			t.firstErr = errors.New("bad read: " + c.gen.badMsg)
		}
		t.writeLat = append(t.writeLat, c.writeLat...)
		t.readLat = append(t.readLat, c.readLat...)
		if t.firstErr == nil {
			t.firstErr = c.firstErr
		}
	}
	slices.Sort(t.writeLat)
	slices.Sort(t.readLat)
	return t
}

// quantile is the exact nearest-rank quantile of sorted raw samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

const (
	// preloadBatch is the number of keys one preload transaction writes.
	preloadBatch = 100
	// preloadCkptEvery is the number of preload transactions between
	// checkpoints. Measured on direct_big (200 000 keys): a checkpoint
	// every 10 loads in 2.3 s, every 40 in 5.6 s, every 80 in 16 s.
	preloadCkptEvery = 10
)

// preload writes every key once (seq 0) and ends with a checkpoint of
// every TC, clients in parallel. It checkpoints as it goes: without
// checkpoints abstract-LSN In sets are pruned only at flush while
// Page.Size counts them and splits clone them (README, hazard a).
func preload(sys *system, parts []*partition) error {
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for ci, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			opts := tc.TxnOptions{Versioned: sys.sp.mixed}
			lo := 0
			b := newBody(func(x txnOps) error {
				for i := lo; i < min(lo+preloadBatch, len(p.keys)); i++ {
					if err := x.Upsert(table, p.keys[i], newValue(p.client, i, 0)); err != nil {
						return err
					}
				}
				return nil
			})
			for n := 1; lo < len(p.keys); lo, n = lo+preloadBatch, n+1 {
				if errs[ci] = sys.exec(ci, opts, b); errs[ci] != nil {
					return
				}
				if n%preloadCkptEvery == 0 {
					if errs[ci] = sys.checkpoint(ci); errs[ci] != nil {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for ci := range parts {
		if errs[ci] != nil {
			return fmt.Errorf("preload client %d: %w", ci, errs[ci])
		}
		if err := sys.checkpoint(ci); err != nil {
			return err
		}
	}
	return nil
}

func newPartitions(sp spec) []*partition {
	parts := make([]*partition, sp.clients)
	for i := range parts {
		parts[i] = newPartition(i, sp.keys)
	}
	return parts
}

// verifyChunk is the number of keys one verification scan asks for.
const verifyChunk = 1000

// verify reads every key back through fresh snapshot scans and compares it
// with the oracle: the value the last committed write of the owning client
// stamped. It returns the number of keys that are missing, unexpected or
// hold another value. Each scan is bounded by its limit, not by an end key:
// at this commit a range read with an end key keeps walking leaves to the
// end of the table (README, finding e), which made verifying 200 000 keys
// take 7.7 s instead of 0.3 s.
func verify(sys *system, parts []*partition) (mismatches int, first string, err error) {
	var want [valueBytes]byte
	for _, p := range parts {
		for lo := 0; lo < len(p.keys); lo += verifyChunk {
			hi := min(lo+verifyChunk, len(p.keys))
			var keys []string
			var vals [][]byte
			b := newBody(func(x txnOps) (err error) {
				keys, vals, err = x.Scan(table, p.keys[lo], "", hi-lo)
				return err
			})
			if err := sys.exec(p.client, tc.TxnOptions{ReadOnly: true}, b); err != nil {
				return 0, "", fmt.Errorf("verify scan at %s: %w", p.keys[lo], err)
			}
			if len(keys) != hi-lo {
				mismatches += max(len(keys), hi-lo) - min(len(keys), hi-lo)
				if first == "" {
					first = fmt.Sprintf("scan from %s returned %d keys, want %d", p.keys[lo], len(keys), hi-lo)
				}
			}
			for i := 0; i < min(len(keys), hi-lo); i++ {
				fillValue(want[:], p.client, lo+i, p.last[lo+i])
				if keys[i] != p.keys[lo+i] || !bytes.Equal(vals[i], want[:]) {
					if mismatches++; first == "" {
						seq, ok := checkValue(vals[i], p.client, lo+i)
						first = fmt.Sprintf("key %s (want %s) holds seq %d (well-formed %v), want seq %d",
							keys[i], p.keys[lo+i], seq, ok, p.last[lo+i])
					}
				}
			}
		}
	}
	return mismatches, first, nil
}
