// Package clock is the timestamp source for snapshot reads: a clock that
// reports, alongside every reading, how wrong it might be. The interface
// is modeled on the window-of-uncertainty APIs of datacenter clock
// services (fbclock, TrueTime): Now returns the best estimate of the
// current time and an error bound, and the true time is guaranteed to lie
// within [estimate-uncertainty, estimate+uncertainty].
//
// The TC draws commit timestamps from its clock and a snapshot transaction
// draws its read timestamp from it; neither needs the bound to be tight
// for *consistency* (the safe-timestamp protocol in internal/tc handles
// arbitrary skew), but a fresh snapshot waits out the uncertainty window
// so that every transaction whose commit completed in real time before the
// snapshot began is visible in it — external consistency for reads.
//
// Two implementations: System, a monotonic wall clock for deployments, and
// Fake, a hand-advanced clock for tests that need to prove wait behaviour
// deterministically.
package clock

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Clock reports the current time as a base.TS (nanoseconds on the Unix
// epoch) plus the error bound of that reading. Implementations must be
// safe for concurrent use and must never report a smaller TS after a
// larger one (monotonic per clock instance).
type Clock interface {
	// Now returns the clock's best estimate of the current time and its
	// uncertainty: the true time lies in [ts-unc, ts+unc].
	Now() (ts base.TS, unc time.Duration)
}

// System is a monotonic wall clock. Readings start from time.Now but are
// forced non-decreasing across concurrent callers, so a wall-clock step
// backwards (NTP, VM migration) never yields a retreating timestamp.
//
// Uncertainty is the configured bound on how far this machine's wall
// clock may drift from true time; zero — the default, appropriate for
// single-machine deployments where every component shares one kernel
// clock — means readings are taken at face value and fresh snapshots
// never wait.
type System struct {
	// Uncertainty is the fixed error bound reported with every reading.
	Uncertainty time.Duration

	last atomic.Uint64
}

// Now implements Clock.
func (s *System) Now() (base.TS, time.Duration) {
	ts := uint64(time.Now().UnixNano())
	for {
		prev := s.last.Load()
		if ts <= prev {
			return base.TS(prev), s.Uncertainty
		}
		if s.last.CompareAndSwap(prev, ts) {
			return base.TS(ts), s.Uncertainty
		}
	}
}

// Fake is a hand-advanced clock for tests. The zero value starts at TS 1
// (0 is the "no timestamp" sentinel throughout the system) with zero
// uncertainty unless NewFake names one; Set and Advance move it forward.
// Waiters blocked in WaitUntilAfter observe every change promptly.
type Fake struct {
	mu   sync.Mutex
	ts   base.TS
	unc  time.Duration
	bump chan struct{} // closed and replaced on every change
}

// NewFake returns a Fake reading ts with uncertainty unc.
// Test hook: tc's snapshot tests (TestSnapshotUncertaintyWait and kin).
func NewFake(ts base.TS, unc time.Duration) *Fake {
	return &Fake{ts: ts, unc: unc, bump: make(chan struct{})}
}

// Now implements Clock.
func (f *Fake) Now() (base.TS, time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ts == 0 {
		f.ts = 1
	}
	return f.ts, f.unc
}

// Set moves the clock to ts (never backwards) and wakes waiters.
func (f *Fake) Set(ts base.TS) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ts > f.ts {
		f.ts = ts
	}
	f.wake()
}

// Advance moves the clock forward by d and wakes waiters.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.ts == 0 {
		f.ts = 1
	}
	f.ts += base.TS(d)
	f.wake()
}

func (f *Fake) wake() {
	if f.bump == nil {
		f.bump = make(chan struct{})
	}
	close(f.bump)
	f.bump = make(chan struct{})
}

// changed returns a channel closed on the next clock change.
func (f *Fake) changed() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bump == nil {
		f.bump = make(chan struct{})
	}
	return f.bump
}

// WaitUntilAfter blocks until the clock guarantees the true time is past
// t — that is, until the earliest bound of the uncertainty window,
// Now().ts - unc, exceeds t. This is the uncertainty-window wait of a
// fresh snapshot read: once it returns, no clock anywhere (within the
// bound) can still read t or earlier, so no new commit can be assigned a
// timestamp at or below t.
//
// The wait is cut short by ctx; the returned error is then the
// ErrCancelled-wrapped context error. A System clock with zero
// uncertainty returns immediately.
func WaitUntilAfter(ctx context.Context, c Clock, t base.TS) error {
	for {
		ts, unc := c.Now()
		if ts > t+base.TS(unc) {
			return nil
		}
		// Sleep out (most of) the remaining window; a Fake clock wakes the
		// wait on every change instead of relying on real time passing.
		remain := time.Duration(t+base.TS(unc)-ts) + time.Nanosecond
		var bump <-chan struct{}
		if f, ok := c.(*Fake); ok {
			bump = f.changed()
			remain = time.Second // re-check on fake advance, not on real time
		}
		timer := time.NewTimer(remain)
		select {
		case <-timer.C:
		case <-bump:
			timer.Stop()
		case <-ctx.Done():
			timer.Stop()
			return base.CancelErr(ctx)
		}
	}
}
