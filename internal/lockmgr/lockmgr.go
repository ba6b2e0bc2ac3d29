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
//
// An uncontended acquire-and-release allocates nothing at steady state. A
// lock's holder set is a slice over an array of one inside the lock itself —
// an X lock has exactly one holder, and only a second S holder spills to the
// heap. What a transaction holds is an append-only list of its locks, which
// only ever empties whole (ReleaseAll: strict two-phase locking has no early
// release). Both are recycled on free lists under the manager's mutex,
// scrubbed of their previous owner, and bounded by the locks that ever
// existed at once. "Does this transaction already hold it" is answered by the
// lock's own holder set, not by a per-transaction map of resources: such a
// map costs an allocation per transaction and a second hash of every key,
// and a range scan that locks 10 000 keys grows it by rehashing, where the
// list appends.
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

// holder is one granted lock: who, and how strongly.
type holder struct {
	txn  base.TxnID
	mode Mode
}

// lockState is one lock of the table: the resource it is the entry of, who
// holds it and who waits. holders starts over one; see the package comment.
type lockState struct {
	res     Resource
	one     [1]holder
	holders []holder
	queue   []*request
}

// modeOf is the mode txn holds the lock in, None when it is no holder.
func (st *lockState) modeOf(txn base.TxnID) Mode {
	for i := range st.holders {
		if st.holders[i].txn == txn {
			return st.holders[i].mode
		}
	}
	return None
}

// blockedBy reports whether a holder other than txn excludes mode.
func (st *lockState) blockedBy(txn base.TxnID, mode Mode) bool {
	for _, h := range st.holders {
		if h.txn != txn && !Compatible(mode, h.mode) {
			return true
		}
	}
	return false
}

// heldList is what one transaction holds: its locks in grant order, each once
// (an upgrade changes the mode in the lock, not the list).
type heldList struct {
	locks []*lockState
}

// Manager is a lock manager. The zero value is not usable; call New.
type Manager struct {
	mu    sync.Mutex
	locks map[Resource]*lockState
	held  map[base.TxnID]*heldList
	// freeStates and freeHeld are the recycled entries of the two maps above,
	// scrubbed when they are put here.
	freeStates []*lockState
	freeHeld   []*heldList
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
		held:    make(map[base.TxnID]*heldList),
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
	st := m.locks[res]
	cur := None
	if st == nil {
		st = m.newStateLocked(res)
	} else if cur = st.modeOf(txn); cur.Covers(mode) {
		m.mu.Unlock()
		return nil
	}
	upgrade := cur != None
	if upgrade {
		m.upgrades.Add(1)
		// The held mode stays granted while the upgrade waits.
	}
	if m.grantableLocked(st, txn, mode, upgrade) {
		m.grantLocked(st, txn, mode)
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
	if st.blockedBy(txn, mode) {
		return false
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

// pop takes the last entry off a free list; nil when there is none.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	e := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return e
}

// newStateLocked enters a lock for res into the table, recycled if one is free.
func (m *Manager) newStateLocked(res Resource) *lockState {
	st := pop(&m.freeStates)
	if st == nil {
		st = &lockState{}
		st.holders = st.one[:0]
	}
	st.res = res
	m.locks[res] = st
	return st
}

// grantLocked makes txn a holder of st in mode — an upgrade strengthens the
// entry it already has — and files a new lock on txn's held list.
func (m *Manager) grantLocked(st *lockState, txn base.TxnID, mode Mode) {
	m.acquired.Add(1)
	for i := range st.holders {
		if st.holders[i].txn == txn {
			st.holders[i].mode = mode
			return
		}
	}
	st.holders = append(st.holders, holder{txn, mode})
	h := m.held[txn]
	if h == nil {
		if h = pop(&m.freeHeld); h == nil {
			h = &heldList{}
		}
		m.held[txn] = h
	}
	h.locks = append(h.locks, st)
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

// releaseLocked drops txn from st's holders, wakes newly grantable waiters
// and retires a lock nobody holds or waits for: out of the table and, scrubbed
// of everything its owners left in it, onto the free list.
func (m *Manager) releaseLocked(st *lockState, txn base.TxnID) {
	for i := range st.holders {
		if st.holders[i].txn == txn {
			last := len(st.holders) - 1
			st.holders[i] = st.holders[last]
			st.holders[last] = holder{}
			st.holders = st.holders[:last]
			break
		}
	}
	m.wakeLocked(st)
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(m.locks, st.res)
		// The queue's storage is not kept: dequeuing walks its start forward,
		// and a granted request must not stay reachable from a free lock.
		st.res, st.one[0], st.holders, st.queue = Resource{}, holder{}, st.one[:0], nil
		m.freeStates = append(m.freeStates, st)
	}
}

// wakeLocked grants queued requests in order until one cannot be granted.
func (m *Manager) wakeLocked(st *lockState) {
	for len(st.queue) > 0 {
		req := st.queue[0]
		if st.blockedBy(req.txn, req.mode) {
			return
		}
		st.queue = st.queue[1:]
		delete(m.waiting, req.txn)
		m.grantLocked(st, req.txn, req.mode)
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
	delete(m.held, txn)
	for i, st := range h.locks {
		m.releaseLocked(st, txn)
		h.locks[i] = nil
	}
	h.locks = h.locks[:0]
	m.freeHeld = append(m.freeHeld, h)
}

// Held returns the modes txn currently holds (copy; diagnostics/tests).
func (m *Manager) Held(txn base.TxnID) map[Resource]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[Resource]Mode)
	if h := m.held[txn]; h != nil {
		for _, st := range h.locks {
			out[st.res] = st.modeOf(txn)
		}
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
		for _, h := range st.holders {
			if h.txn != t && !Compatible(req.mode, h.mode) {
				blockers[h.txn] = true
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
