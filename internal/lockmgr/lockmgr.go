// Package lockmgr implements the TC-side lock manager (§4.1.1(1)).
//
// Because all knowledge of pages is confined to the DC, the lock manager
// deals only in logical resources: records, named by table and key (ranges
// are locked key by key, §3.1 fetch-ahead). Locks are
// acquired *before* the corresponding operation is sent to a DC — this is
// what enforces the requirement that the DC never sees two conflicting
// operations executing concurrently.
//
// Modes are S (shared) and X (exclusive). Waiting is FIFO-fair except lock
// upgrades, which jump the
// queue to reduce upgrade deadlocks. Deadlocks are detected with a
// waits-for graph search at block time; the requester closing the cycle is
// the victim and receives ErrDeadlock.
package lockmgr

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Mode is a lock mode.
type Mode uint8

const (
	// None is the absence of a lock; never stored.
	None Mode = iota
	// S is shared (read) mode.
	S
	// X is exclusive (write) mode.
	X
)

func (m Mode) String() string {
	switch m {
	case S:
		return "S"
	case X:
		return "X"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Compatible reports whether a requested mode can be granted alongside a
// held mode.
func Compatible(req, held Mode) bool { return req == S && held == S }

// Covers reports whether holding mode m satisfies a request for mode r.
func (m Mode) Covers(r Mode) bool { return m == r || m == X }

// Resource names one lockable object: a record, by table and key.
type Resource struct {
	Table string
	Key   string
}

// KeyRes builds a key resource.
func KeyRes(table, key string) Resource { return Resource{Table: table, Key: key} }

func (r Resource) String() string { return fmt.Sprintf("%s/key:%s", r.Table, r.Key) }

// Errors returned by Lock. Both wrap the corresponding taxonomy sentinel,
// so errors.Is(err, base.ErrDeadlock) / base.ErrLockTimeout (and therefore
// base.IsTransient) hold anywhere the failure propagates.
var (
	ErrDeadlock = fmt.Errorf("lockmgr: deadlock victim: %w", base.ErrDeadlock)
	ErrTimeout  = fmt.Errorf("lockmgr: lock wait timeout: %w", base.ErrLockTimeout)
)

// Stats counts lock-manager activity (the benchmark's lockmgr.acquires and
// lockmgr.waits are Acquired and Waited).
type Stats struct {
	Acquired  uint64
	Waited    uint64
	Deadlocks uint64
	Timeouts  uint64
	Cancels   uint64
	Upgrades  uint64
}

type request struct {
	txn     base.TxnID
	mode    Mode
	upgrade bool
	ready   chan error
}

type lockState struct {
	granted map[base.TxnID]Mode
	queue   []*request
}

// Manager is a lock manager. The zero value is not usable; call New.
type Manager struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	held  map[base.TxnID]map[Resource]Mode
	// waiting maps a txn to the resource it is blocked on (at most one).
	waiting map[base.TxnID]Resource

	// Timeout bounds each lock wait; zero means wait forever (deadlock
	// detection still applies).
	Timeout time.Duration

	// poisoned, once set, fails every current and future wait with this
	// error: the manager was superseded (TC crash) and nothing will ever
	// release the locks its waiters are queued behind.
	poisoned error

	acquired, waited, deadlocks, timeouts, cancels, upgrades atomic.Uint64
}

// New returns an empty lock manager.
func New() *Manager {
	return &Manager{
		locks:   make(map[Resource]*lockState),
		held:    make(map[base.TxnID]map[Resource]Mode),
		waiting: make(map[base.TxnID]Resource),
	}
}

// Lock acquires res in mode for txn with the manager's default wait bound,
// blocking until granted, the wait expires, or ctx is done. See LockWait.
func (m *Manager) Lock(ctx context.Context, txn base.TxnID, res Resource, mode Mode) error {
	return m.LockWait(ctx, txn, res, mode, m.Timeout)
}

// LockWait acquires res in mode for txn, blocking until granted. timeout
// bounds this wait (zero: wait forever); it overrides the manager default,
// which lets callers carry a per-transaction bound. It returns ErrDeadlock
// if granting would close a waits-for cycle (the caller should abort the
// transaction), ErrTimeout if the wait expires, or an ErrCancelled-wrapped
// ctx error if ctx is done first. Re-acquiring a covered mode is a no-op;
// requesting a stronger mode upgrades.
func (m *Manager) LockWait(ctx context.Context, txn base.TxnID, res Resource, mode Mode, timeout time.Duration) error {
	m.mu.Lock()
	if err := m.poisoned; err != nil {
		m.mu.Unlock()
		return err
	}
	cur := m.held[txn][res]
	if cur.Covers(mode) {
		m.mu.Unlock()
		return nil
	}
	st := m.locks[res]
	if st == nil {
		st = &lockState{granted: make(map[base.TxnID]Mode, 1)}
		m.locks[res] = st
	}
	upgrade := cur != None
	if upgrade {
		m.upgrades.Add(1)
		// The held mode stays granted while the upgrade waits.
	}
	if m.grantableLocked(st, txn, mode, upgrade) {
		m.grantLocked(st, txn, res, mode)
		m.mu.Unlock()
		return nil
	}
	req := &request{txn: txn, mode: mode, upgrade: upgrade, ready: make(chan error, 1)}
	if upgrade {
		st.queue = append([]*request{req}, st.queue...)
	} else {
		st.queue = append(st.queue, req)
	}
	m.waiting[txn] = res
	if m.cycleLocked(txn) {
		m.removeRequestLocked(st, req)
		delete(m.waiting, txn)
		m.deadlocks.Add(1)
		m.mu.Unlock()
		return ErrDeadlock
	}
	m.waited.Add(1)
	m.mu.Unlock()

	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	// abandon withdraws the request unless a grant won the race; the
	// re-check under the mutex closes the window where wakeLocked already
	// delivered into req.ready.
	abandon := func(count *atomic.Uint64, failure error) error {
		m.mu.Lock()
		select {
		case err := <-req.ready:
			m.mu.Unlock()
			return err
		default:
		}
		m.removeRequestLocked(m.locks[res], req)
		delete(m.waiting, txn)
		count.Add(1)
		m.mu.Unlock()
		return failure
	}
	select {
	case err := <-req.ready:
		return err
	case <-expire:
		return abandon(&m.timeouts, ErrTimeout)
	case <-ctx.Done():
		return abandon(&m.cancels, fmt.Errorf("lockmgr: wait for %v abandoned: %w", res, base.CancelErr(ctx)))
	}
}

// grantableLocked reports whether txn can be granted mode right now:
// compatible with every other holder, and (unless upgrading) no earlier
// waiter exists (FIFO fairness).
func (m *Manager) grantableLocked(st *lockState, txn base.TxnID, mode Mode, upgrade bool) bool {
	for holder, hm := range st.granted {
		if holder == txn {
			continue
		}
		if !Compatible(mode, hm) {
			return false
		}
	}
	if !upgrade {
		for _, w := range st.queue {
			if w.txn != txn {
				return false // someone queued ahead
			}
		}
	}
	return true
}

func (m *Manager) grantLocked(st *lockState, txn base.TxnID, res Resource, mode Mode) {
	st.granted[txn] = mode
	h := m.held[txn]
	if h == nil {
		h = make(map[Resource]Mode, 4)
		m.held[txn] = h
	}
	h[res] = mode
	m.acquired.Add(1)
}

func (m *Manager) removeRequestLocked(st *lockState, req *request) {
	if st == nil {
		return
	}
	for i, r := range st.queue {
		if r == req {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return
		}
	}
}

// Release drops txn's lock on res and wakes newly grantable waiters.
func (m *Manager) Release(txn base.TxnID, res Resource) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releaseLocked(txn, res)
}

func (m *Manager) releaseLocked(txn base.TxnID, res Resource) {
	st := m.locks[res]
	if st == nil {
		return
	}
	delete(st.granted, txn)
	if h := m.held[txn]; h != nil {
		delete(h, res)
		if len(h) == 0 {
			delete(m.held, txn)
		}
	}
	m.wakeLocked(st, res)
	if len(st.granted) == 0 && len(st.queue) == 0 {
		delete(m.locks, res)
	}
}

// wakeLocked grants queued requests in order until one cannot be granted.
func (m *Manager) wakeLocked(st *lockState, res Resource) {
	for len(st.queue) > 0 {
		req := st.queue[0]
		ok := true
		for holder, hm := range st.granted {
			if holder == req.txn {
				continue
			}
			if !Compatible(req.mode, hm) {
				ok = false
				break
			}
		}
		if !ok {
			return
		}
		st.queue = st.queue[1:]
		delete(m.waiting, req.txn)
		m.grantLocked(st, req.txn, res, req.mode)
		req.ready <- nil
	}
}

// Poison fails every blocked waiter with err and makes every future
// LockWait return it immediately. TC.Crash poisons the lock manager it
// discards: the waiters still queued in it belong to the dead
// incarnation — the locks they are blocked behind vanished with the
// table, so nothing will ever wake them — and they must fail out instead
// of sleeping forever. A granted request that raced the poison keeps its
// grant; only waits fail.
func (m *Manager) Poison(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.poisoned != nil {
		return
	}
	m.poisoned = err
	for _, st := range m.locks {
		for _, req := range st.queue {
			req.ready <- err
		}
		st.queue = nil
	}
	m.waiting = make(map[base.TxnID]Resource)
}

// ReleaseAll drops every lock txn holds (commit/abort).
func (m *Manager) ReleaseAll(txn base.TxnID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.held[txn]
	if h == nil {
		return
	}
	resources := make([]Resource, 0, len(h))
	for res := range h {
		resources = append(resources, res)
	}
	for _, res := range resources {
		m.releaseLocked(txn, res)
	}
}

// Held returns the modes txn currently holds (copy; diagnostics/tests).
func (m *Manager) Held(txn base.TxnID) map[Resource]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Resource]Mode, len(m.held[txn]))
	for r, md := range m.held[txn] {
		out[r] = md
	}
	return out
}

// cycleLocked reports whether txn's wait closes a waits-for cycle.
func (m *Manager) cycleLocked(start base.TxnID) bool {
	visited := map[base.TxnID]bool{}
	var dfs func(t base.TxnID) bool
	dfs = func(t base.TxnID) bool {
		res, isWaiting := m.waiting[t]
		if !isWaiting {
			return false
		}
		st := m.locks[res]
		if st == nil {
			return false
		}
		var req *request
		for _, r := range st.queue {
			if r.txn == t {
				req = r
				break
			}
		}
		if req == nil {
			return false
		}
		blockers := map[base.TxnID]bool{}
		for holder, hm := range st.granted {
			if holder != t && !Compatible(req.mode, hm) {
				blockers[holder] = true
			}
		}
		if !req.upgrade {
			for _, w := range st.queue {
				if w == req {
					break
				}
				if w.txn != t {
					blockers[w.txn] = true
				}
			}
		}
		for b := range blockers {
			if b == start {
				return true
			}
			if !visited[b] {
				visited[b] = true
				if dfs(b) {
					return true
				}
			}
		}
		return false
	}
	return dfs(start)
}

// Stats returns a snapshot of activity counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquired:  m.acquired.Load(),
		Waited:    m.waited.Load(),
		Deadlocks: m.deadlocks.Load(),
		Timeouts:  m.timeouts.Load(),
		Cancels:   m.cancels.Load(),
		Upgrades:  m.upgrades.Load(),
	}
}
