// Package tc implements the Transactional Component (§4.1.1): the purely
// logical half of the unbundled kernel. It performs transactional locking
// (never on pages — it has no idea pages exist), logical undo/redo logging
// in OPSR order, log forcing for durability, operation resend bookkeeping,
// checkpoint negotiation (redo-scan-start-point advancement), and restart.
//
// The TC acts as a client to one or more DCs through base.Service. The LSN of
// an operation's log record doubles as its unique request ID (§4.2); a read
// has no record, needs no request ID and carries none. Strict two-phase
// locking acquired *before* an operation is sent guarantees the DC never sees
// conflicting operations concurrently, which in turn makes the TC-log's LSN
// order an order-preserving serialization of the logical operation history.
//
// How logged operations reach a DC — one delivery routine, run by the
// transaction that needs the acknowledgement — is described in deliver.go;
// everything else a transaction sends leaves through Txn.sendUnlogged. Those
// two are the TC's send sites.
//
// Everything volatile is one incarnation (see the type), published
// atomically: what a TC crash destroys (§5.3.2 "TC Failure" — log buffer, lock
// table, transaction table, resend bookkeeping) vanishes together in Crash and
// is rebuilt together by Recover. A transaction loads the incarnation once, at
// Begin, and works in it alone; whether it has been orphaned is one atomic
// load, and what it may still do to the log is the log generation's to refuse
// (package wal), not a rule its callers remember.
package tc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/clock"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// defaultClock is shared by every TC built without Config.Clock, so
// commit timestamps drawn by co-located TCs are mutually monotonic (the
// System clock forces readings non-decreasing across callers).
var defaultClock clock.Clock = &clock.System{}

// TC-log record kinds.
const (
	recOp         uint8 = iota + 1 // forward logical operation (+ undo info)
	recCLR                         // compensation: inverse logical operation
	recCommit                      // transaction commit (+ versioned write set)
	recAbort                       // transaction abort complete
	recCheckpoint                  // redo scan start point advanced (+ epoch)
	recEpoch                       // incarnation epoch minted at (re)start
)

// Config shapes a TC. How logged operations are shipped and how ranges are
// locked is not configurable: deliver.go and Txn.Scan describe the one way
// each is done.
type Config struct {
	// ID is this TC's identity; a DC tracks abstract LSNs per TC ID.
	ID base.TCID
	// LockTimeout bounds lock waits (0: wait forever, deadlock detection
	// still applies).
	LockTimeout time.Duration
	// ForceDelay simulates stable-log force latency (group commit).
	ForceDelay time.Duration
	// Clock is the timestamp source for commit timestamps and snapshot
	// reads (default: a process-wide monotonic clock.System with zero
	// uncertainty). Deployments spanning machines install a clock whose
	// Uncertainty bounds real inter-machine skew; tests install a
	// clock.Fake.
	Clock clock.Clock
	// SnapshotRetention bounds how far into the past a bounded-staleness
	// snapshot may read, and therefore how long DCs keep superseded
	// versions before the GC horizon releases them (default 10s).
	SnapshotRetention time.Duration
	// Dir, when nonempty, backs the TC-log with a file in that directory
	// (storage.OpenLogStoreFile): forced records survive process death.
	// When the directory already holds a previous incarnation's log, New
	// returns the TC in the needs-recovery state — Recover must run (and
	// reach the DCs) before the TC serves transactions; core runs it
	// automatically for in-process deployments, and cmd/unbundled-tc
	// after its DC connections are up. Empty keeps the in-memory
	// simulated stable log, which dies with the process.
	Dir string
}

const (
	// probeWidth is the fetch-ahead batch size.
	probeWidth = 32
	// watermarkInterval is the period of the EOSL/LWM/safe-timestamp
	// broadcast. (A commit publishes its EOSL and LWM itself; the safe
	// timestamp moves only here.)
	watermarkInterval = time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = defaultClock
	}
	if c.SnapshotRetention <= 0 {
		c.SnapshotRetention = 10 * time.Second
	}
	return c
}

// Stats counts TC activity.
type Stats struct {
	Commits        uint64
	Aborts         uint64
	DeadlockAborts uint64
	OpsSent        uint64
	Probes         uint64
	Checkpoints    uint64
	RedoOps        uint64
	UndoOps        uint64
	// Snapshots counts snapshot transactions begun at this TC. Their
	// reads bypass the lock manager, the TC-log, and OpsSent entirely —
	// the TC's only involvement is handing out the read timestamp.
	Snapshots uint64
}

// dcHandle wraps one DC connection with the recovery gate: while the TC's
// resend to the DC runs (see incarnation.resend), new operations hold off —
// the DC would refuse them anyway. The gate is a channel so waiters can also
// honor context cancellation.
type dcHandle struct {
	svc base.Service
	mu  sync.Mutex
	// running: a resend holds the gate; again: it was asked for meanwhile,
	// so it runs once more before it opens the gate.
	running, again bool
	ready          chan struct{} // closed whenever no resend runs
}

func newDCHandle(svc base.Service) *dcHandle {
	ready := make(chan struct{})
	close(ready)
	return &dcHandle{svc: svc, ready: ready}
}

// waitReady blocks until no resend runs or ctx is done.
func (h *dcHandle) waitReady(ctx context.Context) error {
	h.mu.Lock()
	ch := h.ready
	h.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return base.CancelErr(ctx)
	}
}

// claim closes the gate for a resend and reports whether the caller is to
// run it. False: one is running, and now runs once more before it ends — so
// a DC restart it may have missed is asked about.
func (h *dcHandle) claim() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.running {
		h.again = true
		return false
	}
	h.running, h.ready = true, make(chan struct{})
	return true
}

// release ends a successful (ok) run of the resend that claim handed out,
// and reports whether to run it again; a failed one, or one nobody asked for
// again, opens the gate.
func (h *dcHandle) release(ok bool) (again bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ok && h.again {
		h.again = false
		return true
	}
	h.running, h.again = false, false
	close(h.ready)
	return false
}

// TC is one transactional component instance. What it holds itself survives
// a crash of the component: the configuration, the stable log, the DC
// connections, the counters, and the two timestamp promises already broadcast
// to the DCs. Everything a crash destroys is the incarnation.
type TC struct {
	cfg    Config
	log    *wal.Log
	dcs    []*dcHandle
	router placement.Router
	clock  clock.Clock

	// inc is the serving incarnation: nil while the TC is down. Crash swaps it
	// out, Recover (New, over an empty log) publishes the next one whole.
	inc atomic.Pointer[incarnation]
	// rssp is the redo scan start point: a fact about the stable log, set by
	// restart analysis and advanced by Checkpoint.
	rssp atomic.Uint64

	// tsMu guards the commit-timestamp / safe-timestamp state of the
	// closed-timestamp protocol: a commit timestamp is assigned strictly
	// above every safe timestamp ever broadcast, and a safe timestamp is
	// broadcast strictly below every assigned-but-not-yet-finalized commit
	// timestamp, so "safe >= T" at a DC really does mean no future commit
	// of this TC can become visible at or below T. lastCommit and maxSafeSent
	// are promises already made to the DCs, so they outlive a crash (Recover
	// re-seeds lastCommit from the log for cross-process restarts); the
	// registrations they are computed from die with their transactions and
	// are the incarnation's (commitOut, activeSnaps), under this same mutex.
	tsMu        sync.Mutex
	lastCommit  base.TS // highest commit timestamp assigned
	maxSafeSent base.TS // highest safe timestamp broadcast

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	commits, aborts, deadlocks, opsSent   atomic.Uint64
	probes, checkpoints, redoOps, undoOps atomic.Uint64
	snapshots                             atomic.Uint64
	begun, retries, drainRejects          atomic.Uint64

	// draining is the operations-plane admission gate (see Drain in
	// admin.go): while set, RunTxnOnce refuses new transactions typed
	// with base.ErrDraining; everything already admitted runs to
	// completion. Not persisted — a restarted process comes back serving.
	draining atomic.Bool
}

// incarnation is everything volatile a TC crash destroys (§5.3.2), as one
// value: the lock table, the transaction table and its id counter, the resend
// bookkeeping (ack tracker), the timestamp registrations, and the right to use
// the log. New and Recover build one whole and publish it; Crash drops it. A
// transaction captures the incarnation that began it and uses nothing else of
// the TC that can die, so one that straddles a crash finishes in tables nobody
// reads any more — which is what losing volatile state means — and cannot
// touch its successor's: not its locks, not its transaction ids, and not its
// log, because every record is appended and forced through the log generation
// the crash ended.
type incarnation struct {
	tc *TC
	// epoch is the durable incarnation number: minted strictly larger on
	// every (re)start and forced into the log before anything is stamped
	// with it, so no two incarnations — however they crash — ever share one.
	// Every operation carries it (op.Epoch), and a logged one can only get
	// its LSN from this incarnation's generation of the log: an LSN of the
	// dead incarnation's space never travels under a live epoch. The DC-side
	// fence installed by BeginRestart compares the same stamp to refuse
	// requests of dead incarnations still on the wire (CodeStaleEpoch).
	epoch base.Epoch
	log   wal.Generation
	locks *lockmgr.Manager
	acks  *ackTracker
	// bound holds, per DC, the DC incarnation this incarnation's resend to
	// it is stamped with: zero from the bracket's BeginRestart until the
	// first CodeStaleDC names it (see resend).
	bound []atomic.Uint64

	mu      sync.Mutex // guards txns and nextTxn
	txns    map[base.TxnID]*Txn
	nextTxn uint64

	// Guarded by tc.tsMu, beside the promises they bound.
	commitOut   map[base.TS]struct{} // assigned, finalize not yet acked
	activeSnaps map[base.TS]int      // registered snapshot read timestamps
}

// incarnate builds the incarnation of epoch over one generation of the log:
// every LSN at or below stableEnd counts as complete (redone, or gone for
// good), transaction ids continue above nextTxn. The epoch record is forced
// before the incarnation is returned, so before anything can be stamped with
// the epoch: a crash ahead of that force would let the next incarnation mint
// the same number, and the DC fence cannot tell two such apart. The record
// needs no DC round trip and sits just past the stable end, so the low-water
// mark starts at it.
func (t *TC) incarnate(gen wal.Generation, epoch base.Epoch, stableEnd base.LSN, nextTxn uint64) (*incarnation, error) {
	inc := &incarnation{tc: t, epoch: epoch, log: gen, locks: lockmgr.New(),
		acks: newAckTracker(stableEnd), bound: make([]atomic.Uint64, len(t.dcs)),
		txns: make(map[base.TxnID]*Txn), nextTxn: nextTxn,
		commitOut: make(map[base.TS]struct{}), activeSnaps: make(map[base.TS]int)}
	inc.locks.Timeout = t.cfg.LockTimeout
	lsn := inc.logLocal(&wal.Record{Kind: recEpoch, Payload: encodeEpoch(epoch)})
	if lsn == 0 || !gen.ForceTo(lsn) {
		return nil, ErrTCStopped
	}
	return inc, nil
}

// logLocal appends a record that needs no DC round trip (epoch, commit,
// abort, checkpoint), so its LSN completes at once. Zero (which completes
// nothing): the incarnation's log generation has ended.
func (inc *incarnation) logLocal(rec *wal.Record) base.LSN {
	lsn := inc.log.AppendAssign(rec)
	inc.acks.Complete(lsn)
	return lsn
}

// logOp appends the record of a logged operation and stamps the operation
// with its LSN and this incarnation's epoch; false, and nothing logged, once
// the log generation has ended.
func (inc *incarnation) logOp(op *base.Op, rec *wal.Record) bool {
	op.Epoch, op.LSN = inc.epoch, inc.log.AppendAssign(rec)
	return op.LSN != 0
}

// New builds a TC over the given DC connections. router resolves data
// placement ((table, key) to an index into dcs) and §6.1 update
// ownership; it must be deterministic and stable across restarts, since
// restart redo uses it to re-deliver logged operations. A nil router
// places everything on DC 0 with no ownership partition.
//
// With Config.Dir naming a directory a previous incarnation logged into,
// the TC comes back in the needs-recovery state (NeedsRecovery reports
// true) and must run Recover — the ordinary §5.3.2 restart over the
// reopened stable log — before serving transactions.
func New(cfg Config, dcs []base.Service, router placement.Router) (*TC, error) {
	cfg = cfg.withDefaults()
	if cfg.ID == 0 {
		return nil, errors.New("tc: ID must be nonzero")
	}
	if len(dcs) == 0 {
		return nil, errors.New("tc: need at least one DC")
	}
	if router == nil {
		router = placement.MustParse("*: dc=0")
	}
	var lmedia *storage.LogStore
	if cfg.Dir != "" {
		var err error
		if lmedia, err = storage.OpenLogStoreFile(filepath.Join(cfg.Dir, "tclog")); err != nil {
			return nil, fmt.Errorf("tc %d: open tc-log: %w", cfg.ID, err)
		}
	} else {
		lmedia = storage.NewLogStore()
	}
	lmedia.ForceDelay = cfg.ForceDelay
	log, err := wal.New(lmedia)
	if err != nil {
		return nil, err
	}
	t := &TC{cfg: cfg, log: log, router: router, clock: cfg.Clock, stopCh: make(chan struct{})}
	t.rssp.Store(1)
	for _, svc := range dcs {
		t.dcs = append(t.dcs, newDCHandle(svc))
	}
	if log.LastLSN() == 0 {
		// Never refused: nobody can crash a TC that New has not returned.
		inc, _ := t.incarnate(log.Generation(), 1, 0, 0)
		t.inc.Store(inc)
	}
	// Otherwise the reopened media holds a previous incarnation's log: a
	// process death is a TC crash whose stable log happens to be on disk.
	// Restart must run the full §5.3.2 protocol — analysis, DC reset under a
	// freshly minted epoch, redo, loser undo — which needs the DCs reachable,
	// so the TC starts down and the caller (or core's deployment assembly)
	// runs Recover.
	t.wg.Add(1)
	go t.watermarkLoop()
	return t, nil
}

// ID returns the TC's identity.
func (t *TC) ID() base.TCID { return t.cfg.ID }

// Epoch returns the serving incarnation's epoch (1 for the first
// incarnation; strictly increasing across restarts), zero while down.
func (t *TC) Epoch() base.Epoch {
	if inc := t.inc.Load(); inc != nil {
		return inc.epoch
	}
	return 0
}

// Log exposes the TC-log (the benchmark's wal.bytes_per_txn and
// wal.forces_per_txn read its media counters).
func (t *TC) Log() *wal.Log { return t.log }

// Locks exposes the serving incarnation's lock manager (the benchmark's
// lockmgr.acquires and lockmgr.waits read its stats); the empty table of a TC
// that is down.
func (t *TC) Locks() *lockmgr.Manager {
	if inc := t.inc.Load(); inc != nil {
		return inc.locks
	}
	return lockmgr.New()
}

// RSSP returns the current redo scan start point.
func (t *TC) RSSP() base.LSN { return base.LSN(t.rssp.Load()) }

// NeedsRecovery reports whether the TC has no serving incarnation — it
// crashed, or was built over a previous incarnation's log (Config.Dir) — and
// stays down until the §5.3.2 restart protocol completes against its DCs.
func (t *TC) NeedsRecovery() bool { return t.inc.Load() == nil }

// Owner exposes the router's §6.1 ownership axis (0: unowned).
func (t *TC) Owner(table, key string) (base.TCID, error) {
	return t.router.Owner(table, key)
}

// dcIndex resolves the data placement of (table, key) to an index into
// the TC's DC connections, failing typed on tables the placement does not
// cover (base.ErrUnknownTable) and loudly on indices the deployment does
// not have (a misdeclared spec; deployments validate at build time).
func (t *TC) dcIndex(table, key string) (int, error) {
	idx, err := t.router.DC(table, key)
	if err != nil {
		return 0, fmt.Errorf("tc %d: %w", t.cfg.ID, err)
	}
	if idx < 0 || idx >= len(t.dcs) {
		return 0, fmt.Errorf("tc %d: placement puts %s/%q on DC %d of a %d-DC deployment",
			t.cfg.ID, table, key, idx, len(t.dcs))
	}
	return idx, nil
}

// ActiveTxns returns the number of transactions currently executing at
// this TC; the deployment client uses it as the least-inflight routing
// signal.
func (t *TC) ActiveTxns() int {
	inc := t.inc.Load()
	if inc == nil {
		return 0
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return len(inc.txns)
}

// Close stops background work (the TC stays usable for reads of state).
// Logged operations being resent fail with ErrTCStopped so their
// transactions — and the finisher of a cancelled Commit, which Close does
// not wait for — unblock; one already inside a wire call against a down DC
// unblocks only once that client stub is closed too — close the TC first
// and then the stubs, as core.Deployment.Close does.
func (t *TC) Close() {
	t.stopOnce.Do(func() { close(t.stopCh) })
	t.wg.Wait()
}

// watermarkLoop broadcasts end_of_stable_log, low_water_mark and the safe
// timestamp to all DCs on a tick (§4.2.1). It is what bounds every delay a
// watermark can suffer: the messages are one-way hints on a lossy network,
// a transport may hold the first two for a frame to ride (base.Service), and
// the safe timestamp moves with the clock whether or not anything commits.
func (t *TC) watermarkLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(watermarkInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.stopCh:
			return
		case <-tick.C:
			if inc := t.inc.Load(); inc != nil {
				inc.broadcastWatermarks()
			}
		}
	}
}

// publishStable tells every DC how far the log is stable and how far the
// acks are gapless — the two marks that move with work this TC did. Commit
// calls it with nothing else: over a wire the two are held and ride the next
// request toward that DC, in process they are two direct calls. It returns
// nothing at all once the incarnation is dead.
func (inc *incarnation) publishStable() {
	t := inc.tc
	eosl := t.log.EOSL()
	lwm := inc.acks.LWM()
	for _, h := range t.dcs {
		h.svc.EndOfStableLog(t.cfg.ID, inc.epoch, eosl)
		h.svc.LowWaterMark(t.cfg.ID, inc.epoch, lwm)
	}
}

// broadcastWatermarks is the full broadcast: publishStable, then the safe
// timestamp, the call a transport sends on — so everything published is at
// the DC (or on the connection, ahead of whatever the caller sends next)
// when it returns. The tick runs it, Checkpoint before its control calls,
// which depend on the marks, and a resend once it has ended, the moment a
// DC takes the marks again.
func (inc *incarnation) broadcastWatermarks() {
	inc.publishStable()
	safe, horizon := inc.safeTS()
	for _, h := range inc.tc.dcs {
		h.svc.SafeTS(inc.tc.cfg.ID, inc.epoch, safe, horizon)
	}
}

// assignCommitTS draws a commit timestamp: the clock reading, pushed
// above both the previous commit and everything already promised safe to
// the DCs. The timestamp stays registered in commitOut — holding the safe
// timestamp below it — until the transaction's commit-versions finalize
// operations are acknowledged (Txn.finish).
func (inc *incarnation) assignCommitTS() base.TS {
	t := inc.tc
	now, _ := t.clock.Now()
	t.tsMu.Lock()
	ts := now
	if ts <= t.lastCommit {
		ts = t.lastCommit + 1
	}
	if ts <= t.maxSafeSent {
		ts = t.maxSafeSent + 1
	}
	t.lastCommit = ts
	inc.commitOut[ts] = struct{}{}
	t.tsMu.Unlock()
	return ts
}

// safeTS computes the closed-timestamp pair broadcast to the DCs.
//
// safe is the promise "no commit of this TC will ever become visible at
// or below safe from now on": the clock reading (an idle TC's safe tracks
// real time, so fresh snapshots wait at most one broadcast tick), clamped
// below every assigned-but-unfinalized commit timestamp, and never
// retreating. assignCommitTS keeps the promise forward by assigning
// strictly above maxSafeSent.
//
// horizon is the version-GC watermark: versions invisible at every
// timestamp above it may be pruned. It trails the clock by
// SnapshotRetention and never passes a registered snapshot; zero means
// "no constraint known — do not prune".
func (inc *incarnation) safeTS() (safe, horizon base.TS) {
	t := inc.tc
	now, _ := t.clock.Now()
	t.tsMu.Lock()
	safe = now
	if t.lastCommit > safe {
		safe = t.lastCommit
	}
	for ts := range inc.commitOut {
		if ts-1 < safe {
			safe = ts - 1
		}
	}
	if safe < t.maxSafeSent {
		// Invariant: outstanding commit timestamps are strictly above
		// maxSafeSent, so the clamp never undoes an earlier promise.
		safe = t.maxSafeSent
	}
	t.maxSafeSent = safe
	if ret := base.TS(t.cfg.SnapshotRetention); now > ret {
		horizon = now - ret
	}
	for ts := range inc.activeSnaps {
		if ts < horizon {
			horizon = ts
		}
	}
	t.tsMu.Unlock()
	return safe, horizon
}

// Checkpoint advances the redo scan start point (§4.2.1 checkpoint,
// "contract termination"): force the log, ask every DC to make stable all
// pages containing operations below the proposed point, then advance and
// truncate. Returns the new RSSP. ctx bounds the per-DC control calls.
func (t *TC) Checkpoint(ctx context.Context) (base.LSN, error) {
	inc := t.inc.Load()
	if inc == nil {
		return 0, fmt.Errorf("tc: down: %w", base.ErrUnavailable)
	}
	// Everything acknowledged so far is a candidate.
	newRSSP := inc.acks.LWM() + 1
	if cur := t.RSSP(); newRSSP <= cur {
		return cur, nil
	}
	// The DC flush gates require log stability through the checkpointed
	// operations (causality).
	inc.log.Force()
	inc.broadcastWatermarks()
	for _, h := range t.dcs {
		if err := h.svc.Checkpoint(ctx, t.cfg.ID, inc.epoch, newRSSP); err != nil {
			return 0, fmt.Errorf("tc %d: checkpoint: %w", t.cfg.ID, err)
		}
	}
	oldest := inc.oldestActiveFirstLSN()
	// The checkpoint record carries the current epoch so that truncation
	// (which may discard the recEpoch record) never erases the incarnation
	// history: the newest checkpoint record always survives its own
	// truncation. Logged through the incarnation's generation: a checkpoint
	// that straddles a crash stops here, before it can move the successor's
	// scan start point or truncate its log on a dead incarnation's say-so.
	ckpt := &wal.Record{Kind: recCheckpoint, Payload: encodeCheckpoint(newRSSP, inc.epoch)}
	if inc.logLocal(ckpt) == 0 || !inc.log.Force() {
		return 0, fmt.Errorf("tc %d: checkpoint: %w", t.cfg.ID, ErrTCStopped)
	}
	t.rssp.Store(uint64(newRSSP))
	// Truncate below both the RSSP (redo needs nothing older) and the
	// oldest active transaction's first record (undo might), through the
	// generation too: a checkpoint that straddles Crash after forcing its
	// record discards nothing of the successor's log.
	trunc := newRSSP
	if oldest != 0 && oldest < trunc {
		trunc = oldest
	}
	if !inc.log.Truncate(trunc) {
		return 0, fmt.Errorf("tc %d: checkpoint: %w", t.cfg.ID, ErrTCStopped)
	}
	t.checkpoints.Add(1)
	return newRSSP, nil
}

// oldestActiveFirstLSN is the truncation bound undo imposes: the first
// logged record of any transaction still in the table. A transaction leaves
// the table in finish(), so one that has committed but not yet released its
// locks holds the bound a moment longer than undo needs — harmless, and it
// keeps this read to the one field a writer publishes atomically
// (Txn.firstLSN) instead of racing Txn.state.
func (inc *incarnation) oldestActiveFirstLSN() base.LSN {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	var oldest base.LSN
	for _, txn := range inc.txns {
		if first := base.LSN(txn.firstLSN.Load()); first != 0 && (oldest == 0 || first < oldest) {
			oldest = first
		}
	}
	return oldest
}

// Stats returns a snapshot of counters.
func (t *TC) Stats() Stats {
	return Stats{
		Commits:        t.commits.Load(),
		Aborts:         t.aborts.Load(),
		DeadlockAborts: t.deadlocks.Load(),
		OpsSent:        t.opsSent.Load(),
		Probes:         t.probes.Load(),
		Checkpoints:    t.checkpoints.Load(),
		RedoOps:        t.redoOps.Load(),
		UndoOps:        t.undoOps.Load(),
		Snapshots:      t.snapshots.Load(),
	}
}

// ackTracker computes the low-water mark: the highest LSN such that every
// record at or below it has completed (its operation acknowledged by the DC,
// or a local record needing no DC round trip). Every LSN is a record's, so
// Complete has two callers: logLocal, and deliver's complete.
type ackTracker struct {
	mu   sync.Mutex
	lwm  base.LSN
	done map[base.LSN]struct{}
}

// newAckTracker returns a tracker based at baseLSN: every LSN at or below it
// counts as complete (after a restart they are either stably logged and
// redone, or gone forever).
func newAckTracker(baseLSN base.LSN) *ackTracker {
	return &ackTracker{lwm: baseLSN, done: make(map[base.LSN]struct{})}
}

// Complete marks lsn done and advances the contiguous prefix. Completions
// at or below the mark (restart's redo replies, a refused LSN of zero) are
// ignored.
func (a *ackTracker) Complete(lsn base.LSN) {
	a.mu.Lock()
	if lsn <= a.lwm {
		a.mu.Unlock()
		return
	}
	a.done[lsn] = struct{}{}
	for {
		if _, ok := a.done[a.lwm+1]; !ok {
			break
		}
		delete(a.done, a.lwm+1)
		a.lwm++
	}
	a.mu.Unlock()
}

// LWM returns the current low-water mark. An LSN is taken only when its
// operation is about to leave — a write's record is appended at the barrier
// that ships it (see deliver.go), and a read takes none — so the mark, and
// with it the RSSP a checkpoint may propose and the prefix a DC may fold out
// of its abstract LSNs, trails only logged operations actually in flight,
// never a transaction that wrote and then idles or waits for a lock.
func (a *ackTracker) LWM() base.LSN {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lwm
}
