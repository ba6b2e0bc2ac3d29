// Package latch provides the short-term physical locks (latches) a data
// component uses to make individual logical operations atomic while staying
// multi-threaded (§4.1.2(1)). As in traditional storage engines, latches
// are held for very short periods and deadlocks are avoided by ordering
// latch requests (tree level first, then page, left before right), which
// the B-tree layer enforces.
//
// Latches are instrumented: contended acquisitions are counted.
package latch

import (
	"sync"
	"sync/atomic"
)

// Latch is an instrumented reader/writer latch. The zero value is ready to
// use.
type Latch struct {
	mu        sync.RWMutex
	contended atomic.Uint64
}

// Lock acquires the latch exclusively.
func (l *Latch) Lock() {
	if l.mu.TryLock() {
		return
	}
	l.contended.Add(1)
	l.mu.Lock()
}

// Unlock releases an exclusive hold.
func (l *Latch) Unlock() { l.mu.Unlock() }

// RLock acquires the latch shared.
func (l *Latch) RLock() {
	if l.mu.TryRLock() {
		return
	}
	l.contended.Add(1)
	l.mu.RLock()
}

// RUnlock releases a shared hold.
func (l *Latch) RUnlock() { l.mu.RUnlock() }

// TryLock attempts an exclusive acquisition without blocking (buffer-pool
// eviction uses this to skip busy victims).
func (l *Latch) TryLock() bool { return l.mu.TryLock() }

// Contended returns the number of acquisitions that had to wait.
func (l *Latch) Contended() uint64 { return l.contended.Load() }
