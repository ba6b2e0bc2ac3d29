// Package tc implements the Transactional Component (§4.1.1): the purely
// logical half of the unbundled kernel. It performs transactional locking
// (never on pages — it has no idea pages exist), logical undo/redo logging
// in OPSR order, log forcing for durability, operation resend bookkeeping,
// checkpoint negotiation (redo-scan-start-point advancement), and restart.
//
// The TC acts as a client to one or more DCs through base.Service. Its log
// sequence numbers double as unique operation request IDs (§4.2); reads
// consume LSNs without log records. Strict two-phase locking acquired
// *before* an operation is sent guarantees the DC never sees conflicting
// operations concurrently, which in turn makes the TC-log's LSN order an
// order-preserving serialization of the logical operation history.
//
// How logged operations reach a DC — one delivery routine, run by the
// transaction that needs the acknowledgement — is described in deliver.go.
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

// dcHandle wraps one DC connection with the recovery gate: while the DC is
// being redone after its crash, new operations hold off (in-flight resends
// of old operations are harmless — they are part of the redo stream). The
// gate is a channel so waiters can also honor context cancellation.
type dcHandle struct {
	svc        base.Service
	mu         sync.Mutex
	recovering bool
	ready      chan struct{} // closed whenever not recovering
}

func newDCHandle(svc base.Service) *dcHandle {
	ready := make(chan struct{})
	close(ready)
	return &dcHandle{svc: svc, ready: ready}
}

// waitReady blocks until the DC is out of recovery or ctx is done.
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

func (h *dcHandle) setRecovering(v bool) {
	h.mu.Lock()
	if v != h.recovering {
		h.recovering = v
		if v {
			h.ready = make(chan struct{})
		} else {
			close(h.ready)
		}
	}
	h.mu.Unlock()
}

// TC is one transactional component instance.
type TC struct {
	cfg    Config
	log    *wal.Log
	locks  *lockmgr.Manager
	dcs    []*dcHandle
	router placement.Router
	clock  clock.Clock

	mu      sync.Mutex
	down    bool
	txns    map[base.TxnID]*Txn
	nextTxn uint64
	rssp    base.LSN

	// tsMu guards the commit-timestamp / safe-timestamp state of the
	// closed-timestamp protocol: a commit timestamp is assigned strictly
	// above every safe timestamp ever broadcast, and a safe timestamp is
	// broadcast strictly below every assigned-but-not-yet-finalized commit
	// timestamp, so "safe >= T" at a DC really does mean no future commit
	// of this TC can become visible at or below T.
	tsMu        sync.Mutex
	lastCommit  base.TS              // highest commit timestamp assigned
	maxSafeSent base.TS              // highest safe timestamp broadcast
	commitOut   map[base.TS]struct{} // assigned, finalize not yet acked
	activeSnaps map[base.TS]int      // registered snapshot read timestamps

	acks *ackTracker

	// epoch is the durable incarnation number: minted strictly larger on
	// every (re)start and forced into the log *before* it is stamped on any
	// operation, so no two incarnations — however they crash — ever share
	// one. Every operation carries its incarnation's stamp (op.Epoch, set
	// before the LSN is assigned), which serves as the TC-side generation
	// fence — calls in flight across a crash cannot feed the reset ack
	// tracker (deliver, performOn) — and as the DC-side fence
	// installed by BeginRestart that refuses requests of dead incarnations
	// still on the wire (CodeStaleEpoch).
	epoch atomic.Uint64

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
	t := &TC{
		cfg:         cfg,
		log:         log,
		locks:       lockmgr.New(),
		router:      router,
		clock:       cfg.Clock,
		txns:        make(map[base.TxnID]*Txn),
		acks:        newAckTracker(),
		stopCh:      make(chan struct{}),
		rssp:        1,
		commitOut:   make(map[base.TS]struct{}),
		activeSnaps: make(map[base.TS]int),
	}
	t.locks.Timeout = cfg.LockTimeout
	if log.LastLSN() > 0 {
		// The reopened media holds a previous incarnation's log: a process
		// death is a TC crash whose stable log happens to be on disk.
		// Restart must run the full §5.3.2 protocol — analysis, DC reset
		// under a freshly minted epoch, redo, loser undo — which needs the
		// DCs reachable, so the TC starts down and the caller (or core's
		// deployment assembly) runs Recover.
		t.down = true
	} else {
		// Mint incarnation epoch 1 and force it before any operation can be
		// stamped with it: a crash before this force would otherwise let a
		// second incarnation mint the same epoch (the log would look empty),
		// and the DC fence cannot tell two same-numbered incarnations apart.
		t.epoch.Store(1)
		eLSN := t.log.AppendAssign(&wal.Record{Kind: recEpoch, Payload: encodeEpoch(1)})
		t.acks.Complete(eLSN) // local record: no DC round trip
		t.log.ForceTo(eLSN)
	}
	for _, svc := range dcs {
		t.dcs = append(t.dcs, newDCHandle(svc))
	}
	t.wg.Add(1)
	go t.watermarkLoop()
	return t, nil
}

// ID returns the TC's identity.
func (t *TC) ID() base.TCID { return t.cfg.ID }

// Epoch returns the current incarnation epoch (1 for the first
// incarnation; strictly increasing across restarts).
func (t *TC) Epoch() base.Epoch { return base.Epoch(t.epoch.Load()) }

// Log exposes the TC-log (the benchmark's wal.bytes_per_txn and
// wal.forces_per_txn read its media counters).
func (t *TC) Log() *wal.Log { return t.log }

// Locks exposes the lock manager (the benchmark's lockmgr.acquires and
// lockmgr.waits read its stats).
func (t *TC) Locks() *lockmgr.Manager { return t.locks }

// RSSP returns the current redo scan start point.
func (t *TC) RSSP() base.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rssp
}

// NeedsRecovery reports whether the TC was built over a previous
// incarnation's log (Config.Dir) and has not yet run Recover: it is down
// until the §5.3.2 restart protocol completes against its DCs.
func (t *TC) NeedsRecovery() bool { return t.isDown() }

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
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.txns)
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
			if t.isDown() {
				continue
			}
			t.broadcastWatermarks()
		}
	}
}

// publishStable tells every DC how far the log is stable and how far the
// acks are gapless — the two marks that move with work this TC did. Commit
// calls it with nothing else: over a wire the two are held and ride the next
// request toward that DC, in process they are two direct calls. It returns
// the epoch it stamped.
func (t *TC) publishStable() base.Epoch {
	eosl := t.log.EOSL()
	lwm := t.acks.LWM()
	epoch := t.Epoch()
	for _, h := range t.dcs {
		h.svc.EndOfStableLog(t.cfg.ID, epoch, eosl)
		h.svc.LowWaterMark(t.cfg.ID, epoch, lwm)
	}
	return epoch
}

// broadcastWatermarks is the full broadcast: publishStable, then the safe
// timestamp, the call a transport sends on — so everything published is at
// the DC (or on the connection, ahead of whatever the caller sends next)
// when it returns. The tick runs it, and Checkpoint, Recover and RecoverDC
// where their control calls depend on the marks.
func (t *TC) broadcastWatermarks() {
	epoch := t.publishStable()
	safe, horizon := t.safeTS()
	for _, h := range t.dcs {
		h.svc.SafeTS(t.cfg.ID, epoch, safe, horizon)
	}
}

// assignCommitTS draws a commit timestamp: the clock reading, pushed
// above both the previous commit and everything already promised safe to
// the DCs. The timestamp stays registered in commitOut — holding the safe
// timestamp below it — until the transaction's commit-versions finalize
// operations are acknowledged (Txn.finish).
func (t *TC) assignCommitTS() base.TS {
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
	t.commitOut[ts] = struct{}{}
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
func (t *TC) safeTS() (safe, horizon base.TS) {
	now, _ := t.clock.Now()
	t.tsMu.Lock()
	safe = now
	if t.lastCommit > safe {
		safe = t.lastCommit
	}
	for ts := range t.commitOut {
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
	for ts := range t.activeSnaps {
		if ts < horizon {
			horizon = ts
		}
	}
	t.tsMu.Unlock()
	return safe, horizon
}

func (t *TC) isDown() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down
}

// performOn sends one unlogged operation — a read, probe or range read,
// whose LSN is a request ID with no log record behind it — to the resolved
// DC handle, once, and feeds the ack tracker. (Operations that do hold a
// log record go through deliver.) The ack is epoch-fenced like deliver's:
// a zombie call whose reply lands after a Crash+Recover must not complete
// an LSN the new incarnation is reusing.
//
// Cancellation: ctx is the transaction's. An abandoned or refused read
// still completes its LSN: reads mutate nothing and are never reflected in
// cached pages, so the low-water mark may pass them, and not completing
// would leave a permanent gap that stalls checkpoints.
func (t *TC) performOn(ctx context.Context, h *dcHandle, op *base.Op) *base.Result {
	op.Epoch = t.Epoch()
	res := &base.Result{LSN: op.LSN, Code: base.CodeCancelled}
	if err := h.waitReady(ctx); err == nil {
		t.opsSent.Add(1)
		res = h.svc.Perform(ctx, op)
	}
	t.completeRead(op, res)
	return res
}

// completeRead feeds an unlogged operation's LSN to the ack tracker unless
// the reply belongs to a dead incarnation (see performOn).
func (t *TC) completeRead(op *base.Op, res *base.Result) {
	if op.Epoch == t.Epoch() && res.Code != base.CodeStaleEpoch {
		t.acks.Complete(op.LSN)
	}
}

// performBatchOn is performOn for the point reads a write barrier sends to
// one DC (Txn.fetchPriors): one PerformBatch, one result per read, and every
// LSN completed under the same epoch fence, answered, refused or abandoned.
func (t *TC) performBatchOn(ctx context.Context, h *dcHandle, ops []*base.Op) []*base.Result {
	epoch := t.Epoch()
	for _, op := range ops {
		op.Epoch = epoch
	}
	var results []*base.Result
	if err := h.waitReady(ctx); err == nil {
		t.opsSent.Add(uint64(len(ops)))
		results = h.svc.PerformBatch(ctx, ops)
	} else {
		results = make([]*base.Result, len(ops))
		for i, op := range ops {
			results[i] = &base.Result{LSN: op.LSN, Code: base.CodeCancelled}
		}
	}
	for i, op := range ops {
		t.completeRead(op, results[i])
	}
	return results
}

// Checkpoint advances the redo scan start point (§4.2.1 checkpoint,
// "contract termination"): force the log, ask every DC to make stable all
// pages containing operations below the proposed point, then advance and
// truncate. Returns the new RSSP. ctx bounds the per-DC control calls.
func (t *TC) Checkpoint(ctx context.Context) (base.LSN, error) {
	if t.isDown() {
		return 0, fmt.Errorf("tc: down: %w", base.ErrUnavailable)
	}
	// Everything acknowledged so far is a candidate.
	newRSSP := t.acks.LWM() + 1
	t.mu.Lock()
	if newRSSP <= t.rssp {
		cur := t.rssp
		t.mu.Unlock()
		return cur, nil
	}
	t.mu.Unlock()
	// The DC flush gates require log stability through the checkpointed
	// operations (causality).
	t.log.Force()
	t.broadcastWatermarks()
	for _, h := range t.dcs {
		if err := h.svc.Checkpoint(ctx, t.cfg.ID, t.Epoch(), newRSSP); err != nil {
			return 0, fmt.Errorf("tc %d: checkpoint: %w", t.cfg.ID, err)
		}
	}
	t.mu.Lock()
	t.rssp = newRSSP
	oldest := t.oldestActiveFirstLSNLocked()
	t.mu.Unlock()

	// The checkpoint record carries the current epoch so that truncation
	// (which may discard the recEpoch record) never erases the incarnation
	// history: the newest checkpoint record always survives its own
	// truncation.
	ckptLSN := t.log.AppendAssign(&wal.Record{Kind: recCheckpoint,
		Payload: encodeCheckpoint(newRSSP, t.Epoch())})
	t.acks.Complete(ckptLSN) // local record: no DC round trip
	t.log.Force()
	// Truncate below both the RSSP (redo needs nothing older) and the
	// oldest active transaction's first record (undo might).
	trunc := newRSSP
	if oldest != 0 && oldest < trunc {
		trunc = oldest
	}
	t.log.Truncate(trunc)
	t.checkpoints.Add(1)
	return newRSSP, nil
}

// oldestActiveFirstLSNLocked is the truncation bound undo imposes: the
// first logged record of any transaction still in the table. A transaction
// leaves the table in finish(), so one that has committed but not yet
// released its locks holds the bound a moment longer than undo needs —
// harmless, and it keeps this read to the one field a writer publishes
// atomically (Txn.firstLSN) instead of racing Txn.state.
func (t *TC) oldestActiveFirstLSNLocked() base.LSN {
	var oldest base.LSN
	for _, txn := range t.txns {
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
// allocated LSN at or below it has completed (reply received, or the LSN
// belongs to a local record needing no DC round trip).
type ackTracker struct {
	mu   sync.Mutex
	lwm  base.LSN
	done map[base.LSN]struct{}
}

func newAckTracker() *ackTracker {
	return &ackTracker{done: make(map[base.LSN]struct{})}
}

// Complete marks lsn done and advances the contiguous prefix. Completions
// at or below the mark (stale acks racing a restart's Reset) are ignored.
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
// operation is about to leave — a read as it is sent, a write's record at
// the barrier that ships it (see deliver.go) — so the mark, and with it the
// RSSP a checkpoint may propose and the prefix a DC may fold out of its
// abstract LSNs, trails only operations actually in flight, never a
// transaction that wrote and then idles or waits for a lock.
func (a *ackTracker) LWM() base.LSN {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lwm
}

// Reset re-bases the tracker after a restart: every LSN at or below base
// is considered complete (they are either stably logged and redone, or
// gone forever).
func (a *ackTracker) Reset(baseLSN base.LSN) {
	a.mu.Lock()
	a.lwm = baseLSN
	a.done = make(map[base.LSN]struct{})
	a.mu.Unlock()
}
