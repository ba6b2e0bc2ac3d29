// Package tc implements the Transactional Component (§4.1.1): the purely
// logical half of the unbundled kernel. It performs transactional locking
// (never on pages — it has no idea pages exist), logical redo logging in
// OPSR order, log forcing for durability, operation resend bookkeeping,
// checkpoint negotiation (redo-scan-start-point advancement), and restart.
// It logs no undo information: a transaction's writes leave only at its
// commit, in one log batch with the commit record, and reach a DC only once
// that batch is forced (see deliver.go), so neither an aborted transaction
// nor a crashed one leaves anything to undo, here or at a DC.
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
// table, transaction table — here a count — and resend bookkeeping) vanishes
// together in Crash and is rebuilt together by Recover. A transaction loads
// the incarnation once, at Begin, and works in it alone; whether it has been
// orphaned is one atomic load, and what it may still do to the log is the log
// generation's to refuse (package wal), not a rule its callers remember.
package tc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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

// TC-log record kinds. Kinds 2 and 4 were the compensation and abort
// records of a TC that logged undo; Recover refuses a log that holds one.
const (
	recOp         uint8 = 1 // logical write, in its commit's batch
	recCommit     uint8 = 3 // transaction commit (+ commit timestamp)
	recCheckpoint uint8 = 5 // redo scan start point advanced (+ epoch)
	recEpoch      uint8 = 6 // incarnation epoch minted at (re)start
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
	// Snapshots counts snapshot transactions begun at this TC. Their
	// reads bypass the lock manager, the TC-log, and OpsSent entirely —
	// the TC's only involvement is handing out the read timestamp.
	Snapshots uint64
}

// dcHandle wraps one DC connection with the recovery gate: while the TC's
// resend to the DC runs (see incarnation.resend), new operations hold off —
// the DC would refuse them anyway. The gate is a channel so waiters can also
// honor context cancellation; while no resend runs there is none, and a sender
// passes the gate with one atomic load.
type dcHandle struct {
	svc base.Service
	// gate is nil while no resend runs; otherwise it points at the channel the
	// resend's release closes. Stored under mu, loaded without it.
	gate atomic.Pointer[chan struct{}]
	mu   sync.Mutex
	// again: a resend was asked for while one ran, so that one runs once more
	// before it opens the gate.
	again bool
}

func newDCHandle(svc base.Service) *dcHandle { return &dcHandle{svc: svc} }

// waitReady blocks until no resend runs or ctx is done.
func (h *dcHandle) waitReady(ctx context.Context) error {
	ch := h.gate.Load()
	if ch == nil {
		return nil
	}
	select {
	case <-*ch:
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
	if h.gate.Load() != nil {
		h.again = true
		return false
	}
	ch := make(chan struct{})
	h.gate.Store(&ch)
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
	h.again = false
	close(*h.gate.Swap(nil))
	return false
}

// TC is one transactional component instance. What it holds itself survives
// a crash of the component: the configuration, the stable log, the DC
// connections, the counters, and the timestamp promises already broadcast to
// the DCs. Everything a crash destroys is the incarnation.
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
	// ckptMu runs Checkpoint calls one at a time, so that neither an
	// incarnation's candidate nor the RSSP ever moves backward.
	ckptMu sync.Mutex

	// tsMu guards the commit-timestamp / safe-timestamp state of the
	// closed-timestamp protocol: a commit timestamp is assigned strictly
	// above every safe timestamp ever broadcast, and a safe timestamp is
	// broadcast strictly below every commit timestamp whose commit record
	// is not yet forced, so "safe >= T" at a DC really does mean that every
	// version this TC stamped at or below T is committed and that no future
	// commit of this TC can become visible at or below T. lastCommit,
	// maxSafeSent and maxHorizonSent are promises already made to the DCs,
	// so they outlive a crash (Recover re-seeds lastCommit and
	// maxHorizonSent from the log and the clock for cross-process
	// restarts); the registrations they are computed from die with their
	// transactions and are the incarnation's (commitOut, activeSnaps),
	// under this same mutex.
	tsMu           sync.Mutex
	lastCommit     base.TS // highest commit timestamp assigned
	maxSafeSent    base.TS // highest safe timestamp broadcast
	maxHorizonSent base.TS // highest version-GC horizon broadcast

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup

	commits, aborts, deadlocks, opsSent atomic.Uint64
	probes, checkpoints, redoOps        atomic.Uint64
	snapshots                           atomic.Uint64
	begun, retries, drainRejects        atomic.Uint64

	// draining is the operations-plane admission gate (see Drain in
	// admin.go): while set, RunTxnOnce refuses new transactions typed
	// with base.ErrDraining; everything already admitted runs to
	// completion. Not persisted — a restarted process comes back serving.
	draining atomic.Bool
}

// incarnation is everything volatile a TC crash destroys (§5.3.2), as one
// value: the lock table, the count of its transactions and their id counter,
// the resend bookkeeping (ack tracker), the timestamp registrations, and the
// right to use the log. New and Recover build one whole and publish it; Crash
// drops it. A transaction captures the incarnation that began it and uses
// nothing else of the TC that can die, so one that straddles a crash finishes
// in tables nobody reads any more — which is what losing volatile state means
// — and cannot touch its successor's: not its locks, not its count, not its
// transaction ids, and not its log, because every record is appended and
// forced through the log generation the crash ended.
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

	// active counts the transactions begun and not yet finished (ActiveTxns);
	// nextTxn is the last transaction id handed out. Nothing else of a
	// transaction is kept here: it holds its own state, and the lock table
	// what it locked.
	active  atomic.Int64
	nextTxn atomic.Uint64

	// Guarded by tc.tsMu, beside the promises they bound.
	commitOut   map[base.TS]struct{} // assigned, commit record not yet forced
	activeSnaps map[base.TS]int      // registered snapshot read timestamps
	staleness   base.TS              // largest bounded Staleness asked lately; each broadcast halves it

	// candidate is the low-water mark + 1 the incarnation's previous
	// Checkpoint took, which its next one proposes: zero before the first
	// in New's incarnation, and in a restarted one the mark Recover took once
	// its resends had ended. Guarded by tc.ckptMu.
	candidate base.LSN
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
		commitOut: make(map[base.TS]struct{}), activeSnaps: make(map[base.TS]int)}
	inc.nextTxn.Store(nextTxn)
	inc.locks.Timeout = t.cfg.LockTimeout
	lsn := inc.logLocal(&wal.Record{Kind: recEpoch, Payload: encodeEpoch(epoch)})
	if lsn == 0 || !gen.ForceTo(lsn) {
		return nil, ErrTCStopped
	}
	return inc, nil
}

// logLocal appends a record that needs no DC round trip (epoch,
// checkpoint), so its LSN completes at once. A commit record needs none
// either, but rides its writes' batch (Txn.appendQueued). Zero (which completes
// nothing): the incarnation's log generation has ended.
func (inc *incarnation) logLocal(rec *wal.Record) base.LSN {
	lsn := inc.log.AppendAssign(rec)
	inc.acks.Complete(lsn)
	return lsn
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
		// A DC takes the minimum horizon of the TCs it has heard from, so
		// every DC hears this TC's before any snapshot of it can begin:
		// the clock's reading, which no peer's horizon (at least a tick
		// below its safe timestamp) has passed, and which leaves the
		// broadcast a tick to arrive before a peer's could. A DC that takes
		// a peer's horizon past a snapshot before it hears this one refuses
		// the snapshot's reads (base.CodeSnapshotTooOld).
		t.maxHorizonSent, _ = t.clock.Now()
		inc.broadcastWatermarks()
		t.inc.Store(inc)
	}
	// Otherwise the reopened media holds a previous incarnation's log: a
	// process death is a TC crash whose stable log happens to be on disk.
	// Restart must run the full §5.3.2 protocol — analysis, a freshly minted
	// epoch fenced at every DC, redo — which needs the DCs reachable,
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
// this TC — begun by its serving incarnation and not yet finished; an orphan
// counts in the incarnation it died with — as one atomic load. The
// deployment client uses it as the least-inflight routing signal.
func (t *TC) ActiveTxns() int {
	inc := t.inc.Load()
	if inc == nil {
		return 0
	}
	return int(inc.active.Load())
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
//
// The low-water mark sent is never above the end of the stable log. A record
// that needs no DC round trip completes its LSN at its append (logLocal, a
// commit record), so the ack tracker's mark can pass the stable end, and a
// DC raises a page's LSNlw to the mark it is sent: a mark above what a crash
// keeps would make the page claim LSNs the restarted TC hands out again, and
// skip their operations as duplicates.
func (inc *incarnation) publishStable() {
	t := inc.tc
	eosl := t.log.EOSL()
	lwm := min(inc.acks.LWM(), eosl)
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
// DC takes the marks again. A dead incarnation sends no safe timestamp.
func (inc *incarnation) broadcastWatermarks() {
	inc.publishStable()
	safe, horizon, live := inc.safeTS()
	if !live {
		return
	}
	for _, h := range inc.tc.dcs {
		h.svc.SafeTS(inc.tc.cfg.ID, inc.epoch, safe, horizon)
	}
}

// assignCommitTS draws a commit timestamp, at Commit (the lock
// point): the clock reading, pushed above both the previous commit and
// everything already promised safe to the DCs. The timestamp stays
// registered in commitOut — holding the safe timestamp below it, so that no
// DC takes the versions stamped with it for committed — until the
// transaction's commit record is forced, or its append is refused and no
// stamped write left (Txn.finish).
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
// safe is the promise "every version this TC stamped at or below safe is
// committed, and no commit of this TC will ever become visible at or below
// safe from now on": the clock reading (an idle TC's safe tracks real time,
// so fresh snapshots, and committed reads of a just-committed version, wait
// at most one broadcast tick), clamped below every commit timestamp whose
// commit record is not yet forced, and never retreating. assignCommitTS
// keeps the promise forward by assigning strictly above maxSafeSent.
//
// horizon is the version-GC watermark: versions invisible at every
// timestamp above it may be pruned. Versions exist only to serve readers
// (§6.2.2), so it is held down by the oldest registered snapshot and
// otherwise trails safe by the largest Staleness bounded snapshots asked
// for lately, and by at least one broadcast tick (how far a peer TC's safe
// timestamp can trail this one). Bounded readers that keep coming thus read
// exactly as far back as they ask, where every peer has already promised,
// and do not wait at the DC; the DCs keep that much history for them and no
// more. Each broadcast halves what it remembers, so after a lull in bounded
// readers the horizon closes in over a few ticks: a jump to one tick behind
// would send the next readers up against the peers' safe timestamps. It never retreats below maxHorizonSent,
// which beginSnapshot raises every snapshot to, so no registered snapshot
// holds it lower and no snapshot reads below a horizon this TC has sent;
// New and Recover raise maxHorizonSent to the clock before their first
// broadcast, which sends it.
//
// A dead incarnation promises nothing (live false): its orphans release their
// commit timestamps (Txn.finish) with their stamped writes neither committed
// nor taken back, and a tick of it still under way must not pass them. An
// orphan releases one under tsMu after it saw the crash, so the check, made
// under tsMu too, sees the crash whenever the release has happened.
func (inc *incarnation) safeTS() (safe, horizon base.TS, live bool) {
	t := inc.tc
	now, _ := t.clock.Now()
	t.tsMu.Lock()
	defer t.tsMu.Unlock()
	if !inc.log.Live() {
		return 0, 0, false
	}
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
	horizon = t.maxHorizonSent
	lag := base.TS(watermarkInterval)
	if inc.staleness > lag {
		lag = inc.staleness
	}
	inc.staleness /= 2
	if safe > horizon+lag {
		horizon = safe - lag
	}
	for ts := range inc.activeSnaps {
		if ts < horizon {
			horizon = ts
		}
	}
	if horizon > t.maxHorizonSent {
		t.maxHorizonSent = horizon
	}
	return safe, horizon, true
}

// Checkpoint advances the redo scan start point (§4.2.1 checkpoint,
// "contract termination"): force the log, ask every DC to make stable all
// pages containing operations below the proposed point, then advance and
// truncate. Returns the RSSP, which it leaves where it is when it proposes
// nothing.
//
// The point proposed is not the low-water mark but the candidate (LWM+1) the
// incarnation's previous call took, and this call's own candidate waits for
// the next one: fuzzy checkpointing with restart from the penultimate
// checkpoint. A page rewritten within every interval is then written back
// every other checkpoint, not at each, for one more interval of log kept
// and redone at restart. A new TC's first call only takes its candidate; a
// restarted incarnation's proposes the one Recover took, everything its
// resends delivered. Two calls with no write between them leave every page
// of this TC stable. Calls run one at a time. ctx bounds the per-DC control
// calls.
func (t *TC) Checkpoint(ctx context.Context) (base.LSN, error) {
	t.ckptMu.Lock()
	defer t.ckptMu.Unlock()
	inc := t.inc.Load()
	if inc == nil {
		return 0, fmt.Errorf("tc: down: %w", base.ErrUnavailable)
	}
	// Everything acknowledged so far is the next call's candidate.
	newRSSP := inc.candidate
	inc.candidate = inc.acks.LWM() + 1
	if cur := t.RSSP(); newRSSP <= cur {
		return cur, nil
	}
	// Forced, so that the low-water mark the broadcast sends, which never
	// passes the stable end (publishStable), covers every candidate.
	inc.log.Force()
	inc.broadcastWatermarks()
	for _, h := range t.dcs {
		if err := h.svc.Checkpoint(ctx, t.cfg.ID, inc.epoch, newRSSP); err != nil {
			return 0, fmt.Errorf("tc %d: checkpoint: %w", t.cfg.ID, err)
		}
	}
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
	// Truncate below the RSSP: redo needs nothing older, and no record is
	// ever read to undo its operation. A commit batch the cut splits keeps
	// its commit record, the batch's last. Through the generation too: a
	// checkpoint that straddles Crash after forcing its record discards
	// nothing of the successor's log.
	if !inc.log.Truncate(newRSSP) {
		return 0, fmt.Errorf("tc %d: checkpoint: %w", t.cfg.ID, ErrTCStopped)
	}
	t.checkpoints.Add(1)
	return newRSSP, nil
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
		Snapshots:      t.snapshots.Load(),
	}
}

// ackTracker computes the low-water mark: the highest LSN such that every
// record at or below it has completed (its operation acknowledged by the DC,
// or a local record needing no DC round trip). Every LSN is a record's, so
// Complete has two callers: logLocal, and deliver's complete.
//
// A completion of the LSN just above the mark moves the mark, and nothing is
// stored: a commit batch completes its records in order, so that is nearly
// every completion. Only an LSN completed ahead of a gap — a concurrent
// commit's, acknowledged first — is kept, in ahead, until the gap closes.
type ackTracker struct {
	mu  sync.Mutex
	lwm base.LSN
	// ahead holds the LSNs completed above lwm+1, ascending and each once.
	ahead []base.LSN
}

// newAckTracker returns a tracker based at baseLSN: every LSN at or below it
// counts as complete (after a restart they are either stably logged and
// redone, or gone forever).
func newAckTracker(baseLSN base.LSN) *ackTracker {
	return &ackTracker{lwm: baseLSN}
}

// Complete marks lsn done and advances the contiguous prefix. Completions
// at or below the mark (restart's redo replies, a refused LSN of zero) and
// repeated ones are ignored.
func (a *ackTracker) Complete(lsn base.LSN) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if lsn <= a.lwm {
		return
	}
	if lsn > a.lwm+1 {
		if i, found := slices.BinarySearch(a.ahead, lsn); !found {
			a.ahead = slices.Insert(a.ahead, i, lsn)
		}
		return
	}
	a.lwm = lsn
	n := 0
	for n < len(a.ahead) && a.ahead[n] == a.lwm+1 {
		a.lwm++
		n++
	}
	if n > 0 {
		a.ahead = a.ahead[:copy(a.ahead, a.ahead[n:])]
	}
}

// LWM returns the current low-water mark. An LSN is taken only when its
// operation is about to leave — a write's record is appended at the commit
// that ships it (see deliver.go), and a read takes none — so the mark, and
// with it the RSSP a checkpoint may propose and the prefix a DC may fold out
// of its abstract LSNs, trails only logged operations actually in flight,
// never a transaction that wrote and then idles or waits for a lock.
func (a *ackTracker) LWM() base.LSN {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lwm
}
