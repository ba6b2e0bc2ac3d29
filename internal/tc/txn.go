package tc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/clock"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/wal"
)

// Errors surfaced to transaction code.
var (
	// ErrTxnDone is returned when using a committed/aborted transaction.
	ErrTxnDone = errors.New("tc: transaction already finished")
	// ErrNotFound mirrors base.CodeNotFound at the transaction API.
	ErrNotFound = errors.New("tc: key not found")
	// ErrDuplicate mirrors base.CodeDuplicate.
	ErrDuplicate = errors.New("tc: key already exists")
	// ErrScanUnstable is returned when the fetch-ahead protocol cannot
	// stabilize a range read (sustained insert churn in the range).
	ErrScanUnstable = errors.New("tc: fetch-ahead scan did not stabilize")
)

// SnapshotPolicy selects how a read-only transaction obtains its
// consistent view.
type SnapshotPolicy uint8

const (
	// SnapshotFresh (the default) reads at a fresh timestamp: the clock
	// reading plus its uncertainty bound. Begin waits out the uncertainty
	// window, so every transaction whose commit completed in real time
	// before the snapshot began is visible — external consistency. With
	// the default zero-uncertainty System clock the wait is free.
	SnapshotFresh SnapshotPolicy = iota
	// SnapshotBounded reads at now minus TxnOptions.Staleness (clamped to
	// the TC's SnapshotRetention): no uncertainty wait and usually no
	// safe-timestamp wait either, trading freshness for latency.
	SnapshotBounded
	// SnapshotLocked is the pre-snapshot posture: a read-only transaction
	// that still takes shared locks and reads current state through the
	// TC. It exists for callers that need read-your-lock semantics against
	// unversioned writers.
	SnapshotLocked
)

// TxnOptions shapes one transaction. The zero value is a plain
// (unversioned, read-write) transaction using the TC's configured lock
// timeout.
type TxnOptions struct {
	// Versioned makes writes keep before versions (§6.2.2), enabling
	// cross-TC read-committed readers and cheap undo. Versioned commits
	// carry a commit timestamp, which is what makes the writes visible to
	// snapshot readers.
	Versioned bool
	// ReadOnly refuses every mutation with base.ErrReadOnly and — unless
	// Snapshot is SnapshotLocked — turns the transaction into a snapshot
	// read: Begin draws a read timestamp, and every Read/Scan is served
	// by the DC at that timestamp without locks and without any TC round
	// trip.
	ReadOnly bool
	// Snapshot selects the read-only view policy; ignored unless ReadOnly.
	Snapshot SnapshotPolicy
	// Staleness is how far behind now a SnapshotBounded view may read
	// (clamped to the TC's SnapshotRetention); ignored otherwise.
	Staleness time.Duration
	// LockTimeout overrides the TC's configured lock-wait bound for this
	// transaction: positive bounds each wait, negative waits forever, zero
	// keeps the TC default.
	LockTimeout time.Duration
}

// lockWait resolves the per-transaction lock-wait bound against the TC
// default (0 means wait forever at the lock manager).
func (o TxnOptions) lockWait(def time.Duration) time.Duration {
	switch {
	case o.LockTimeout > 0:
		return o.LockTimeout
	case o.LockTimeout < 0:
		return 0
	default:
		return def
	}
}

type txnState uint8

const (
	txnActive txnState = iota
	txnCommitted
	txnAborted
	// txnStopped: the TC had no serving incarnation when the transaction was
	// begun, or the one that began it crashed (Txn.die).
	txnStopped
)

// doneErr is what a call on a transaction answers in each state: the entry
// check of every method.
var doneErr = [...]error{txnCommitted: ErrTxnDone, txnAborted: ErrTxnDone, txnStopped: ErrTCStopped}

type tableKey struct{ table, key string }

type cachedVal struct {
	val   []byte
	found bool
}

// queued is one operation of a transaction between being accepted and being
// acknowledged: a write waiting for the next barrier, which logs and ships it,
// or a finalize operation of a commit, logged as it is queued. dc is the DC
// it routes to. prior/priorFound are the undo information a write's op record
// will carry; needPrior marks a prior the cache could not supply at call time,
// which the barrier's batched pre-read fetches (see Txn.fetchPriors).
type queued struct {
	op         base.Op
	dc         int
	prior      []byte
	priorFound bool
	needPrior  bool
}

// slabOps is how many operations a transaction has room for between two
// barriers in its writeSlab; more spill to the heap, by append's doubling.
const slabOps = 8

// writeSlab is the storage a writing transaction needs at its barriers, as
// one allocation made by its first write (a transaction that only reads never
// pays for it): the queue, the read operations of a pre-read, and the list of
// operations handed to one DC (Txn.ship sends to one DC at a time). An
// operation in here is its barrier's: the base.Service it is sent to must be
// done with it when the call returns.
type writeSlab struct {
	queue [slabOps]queued
	reads [slabOps]base.Op
	send  [slabOps]*base.Op
}

// Txn is one user transaction executing at this TC. A transaction is used
// from a single goroutine (many transactions run concurrently). It carries
// the context it was begun with: every lock wait and read honors that
// context's cancellation and deadline, while the delivery of logged writes
// deliberately does not (see appendQueued). After Commit or Abort has
// returned, every method answers ErrTxnDone from the state field alone: a
// cancelled Commit leaves the rest of the transaction to its finisher
// goroutine, which never touches state.
type Txn struct {
	tc *TC
	// inc is the incarnation that began the transaction. Everything of the TC
	// a crash destroys — locks, transaction table, acks, timestamps, the right
	// to log — is reached through it and nowhere else.
	inc   *incarnation
	ctx   context.Context
	opts  TxnOptions
	id    base.TxnID
	state txnState
	// firstLSN/lastLSN delimit the undo chain in the TC-log. firstLSN is
	// atomic because a concurrent Checkpoint reads it to bound truncation;
	// everything else here belongs to the transaction's own goroutine.
	firstLSN atomic.Uint64
	lastLSN  base.LSN
	// cache holds values read or written under locks this transaction
	// already holds; locked values cannot change underfoot (strict 2PL),
	// so cached copies are authoritative and spare read-before-write
	// round trips to the DC.
	cache map[tableKey]cachedVal
	// versioned tracks keys written with versioning; commit/abort send
	// the §6.2.2 finalize operations for them.
	versioned map[tableKey]struct{}
	// queue holds the writes accepted since the last barrier, in call order:
	// X lock held, cache updated, nothing logged and no LSN taken yet. flush
	// logs and ships it; Abort drops it. A commit's finalize operations
	// collect in it too, after its writes have left.
	queue []queued
	// slab backs the queue and what a barrier builds from it; nil until the
	// first write is accepted.
	slab *writeSlab
	// enc is where every record payload of the transaction is encoded: the
	// log keeps its own copy (wal.AppendAssign).
	enc []byte
	// snapTS is the snapshot read timestamp (nonzero only for snapshot
	// transactions): every read is served by the DC at this timestamp.
	snapTS base.TS
	// commitTS is the commit timestamp assigned when a versioned
	// transaction commits; it holds the TC's safe timestamp down until
	// the finalize operations are acknowledged.
	commitTS base.TS
}

// Begin starts a transaction shaped by opts, bound to ctx. A nil ctx is
// treated as context.Background(). While the TC is down there is nothing to
// begin it on: the transaction returned takes no id, lock or LSN, every call
// on it answers ErrTCStopped, and its Abort is nil.
func (t *TC) Begin(ctx context.Context, opts TxnOptions) *Txn {
	if ctx == nil {
		ctx = context.Background()
	}
	inc := t.inc.Load()
	if inc == nil {
		return &Txn{tc: t, ctx: ctx, state: txnStopped}
	}
	t.begun.Add(1)
	x := &Txn{tc: t, inc: inc, ctx: ctx, opts: opts, cache: make(map[tableKey]cachedVal)}
	if opts.Versioned {
		x.versioned = make(map[tableKey]struct{})
	}
	inc.mu.Lock()
	inc.nextTxn++
	x.id = base.TxnID(inc.nextTxn)
	inc.txns[x.id] = x
	inc.mu.Unlock()
	if opts.ReadOnly && opts.Snapshot != SnapshotLocked {
		x.beginSnapshot()
	}
	return x
}

// beginSnapshot draws the transaction's read timestamp and registers it
// so the TC's GC horizon cannot pass it while the snapshot is live. A
// fresh snapshot then waits out the clock's uncertainty window: once
// WaitUntilAfter returns, no clock in the deployment can still read
// snapTS or earlier, so no later-starting commit can be assigned a
// timestamp at or below it — reads at snapTS are externally consistent.
// A cancelled wait is not an error here; the reads themselves honor the
// context and will fail promptly.
func (x *Txn) beginSnapshot() {
	t := x.tc
	now, unc := t.clock.Now()
	snap := now + base.TS(unc)
	if x.opts.Snapshot == SnapshotBounded {
		back := x.opts.Staleness
		if back > t.cfg.SnapshotRetention {
			back = t.cfg.SnapshotRetention
		}
		snap = 1
		if now > base.TS(back) {
			snap = now - base.TS(back)
		}
	}
	t.tsMu.Lock()
	if x.opts.Snapshot != SnapshotBounded && t.lastCommit > snap {
		// Never read below this TC's own newest commit: guarantees fresh
		// snapshots observe local commits even when the clock has not yet
		// caught the allocator up (frozen test clocks, bursts of commits
		// within one clock tick).
		snap = t.lastCommit
	}
	x.snapTS = snap
	x.inc.activeSnaps[snap]++
	t.tsMu.Unlock()
	t.snapshots.Add(1)
	if x.opts.Snapshot != SnapshotBounded && unc > 0 {
		_ = clock.WaitUntilAfter(x.ctx, t.clock, snap)
	}
}

// SnapshotTS returns the snapshot read timestamp, zero for transactions
// that are not snapshot reads.
func (x *Txn) SnapshotTS() base.TS { return x.snapTS }

// RunTxnOnce runs fn inside a single transaction attempt: commit on
// success, abort on failure, no retry. Callers owning their own retry
// policy (the deployment client) build on this.
func (t *TC) RunTxnOnce(ctx context.Context, opts TxnOptions, fn func(*Txn) error) error {
	if t.draining.Load() {
		// The admission gate of the drain protocol (see Drain): refuse
		// before anything is locked or logged, typed and transient so the
		// deployment client re-routes to another TC or retries later.
		t.drainRejects.Add(1)
		return fmt.Errorf("tc %d: %w", t.cfg.ID, base.ErrDraining)
	}
	if t.inc.Load() == nil {
		// Down: as transient, and as early. A crash between this check and
		// Begin, or under fn, surfaces as ErrTCStopped from the transaction.
		return fmt.Errorf("tc %d: down: %w", t.cfg.ID, base.ErrUnavailable)
	}
	x := t.Begin(ctx, opts)
	if err := fn(x); err != nil {
		_ = x.Abort()
		return err
	}
	return x.Commit()
}

// RunTxn runs fn inside a transaction, committing on success and retrying
// immediately (with a fresh transaction) on deadlock or lock-timeout
// aborts, up to a bounded number of attempts. The deployment-level client
// adds routing and backoff on top of RunTxnOnce instead.
func (t *TC) RunTxn(ctx context.Context, opts TxnOptions, fn func(*Txn) error) error {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		err = t.RunTxnOnce(ctx, opts, fn)
		if err == nil {
			return nil
		}
		if !errors.Is(err, base.ErrDeadlock) && !errors.Is(err, base.ErrLockTimeout) {
			return err
		}
		t.retries.Add(1)
	}
	return err
}

// ID returns the transaction identifier.
func (x *Txn) ID() base.TxnID { return x.id }

// Context returns the context the transaction was begun with.
func (x *Txn) Context() context.Context { return x.ctx }

// lock acquires a transactional lock. The wait honors the transaction's
// context and per-transaction lock timeout; any failure aborts the
// transaction (locks may not be left half-acquired). A wait the crash of the
// incarnation failed (its poisoned lock table answers ErrTCStopped) is an
// orphan's, and Abort retires it as one.
func (x *Txn) lock(res lockmgr.Resource, mode lockmgr.Mode) error {
	err := x.inc.locks.LockWait(x.ctx, x.id, res, mode, x.opts.lockWait(x.tc.cfg.LockTimeout))
	if err != nil {
		if errors.Is(err, base.ErrDeadlock) {
			x.tc.deadlocks.Add(1)
		}
		_ = x.Abort()
	}
	return err
}

// orphaned reports whether the incarnation that began x has crashed: one
// atomic load, of the log generation Crash ends first.
func (x *Txn) orphaned() bool { return !x.inc.log.Live() }

// die is an orphan's exit, from a failed lock wait or from any barrier
// (flush, Commit, Abort). Restart analysis owns the undo of whatever the dead
// incarnation logged, so the orphan rolls nothing back; it could not if it
// tried — it logs nothing, so gets no LSN, and ships nothing (see incarnation) —
// and the locks and registrations it still holds are in tables that died with
// it. It drops what it queued and reports a transient failure, as does every
// later call on it.
func (x *Txn) die() error {
	x.state = txnStopped
	x.queue = nil
	return ErrTCStopped
}

// Read returns the value of key as of the transaction's view. In a
// snapshot transaction that is the version visible at the snapshot
// timestamp, served by the DC without locks and without TC involvement;
// otherwise it is the committed-by-lock value in this TC's partition
// (plain read under a shared lock; the owner also sees its own writes).
func (x *Txn) Read(table, key string) ([]byte, bool, error) {
	if err := doneErr[x.state]; err != nil {
		return nil, false, err
	}
	if c, ok := x.cache[tableKey{table, key}]; ok {
		return c.val, c.found, nil
	}
	if x.snapTS != 0 {
		// The view at a fixed timestamp is immutable, so what it returns is
		// cached like a locked read.
		return x.readOp(table, key, base.ReadSnapshot, true)
	}
	if err := x.lock(lockmgr.KeyRes(table, key), lockmgr.S); err != nil {
		return nil, false, err
	}
	return x.readOp(table, key, base.ReadPlain, true)
}

// readOp is the point read: one operation of the given flavor, whose answer
// is cached when the caller holds what keeps it true (a lock, or a snapshot's
// fixed timestamp).
func (x *Txn) readOp(table, key string, flavor base.ReadFlavor, cache bool) ([]byte, bool, error) {
	idx, err := x.route(table, key)
	if err != nil {
		return nil, false, err
	}
	res, _, err := x.sendUnlogged(idx, &base.Op{TC: x.tc.cfg.ID, Kind: base.OpRead,
		Table: table, Key: key, Flavor: flavor}, nil)
	if err == nil && res.Code != base.CodeOK && res.Code != base.CodeNotFound {
		err = res.Err()
	}
	if err != nil {
		return nil, false, fmt.Errorf("tc: read %s/%s: %w", table, key, err)
	}
	found := res.Code == base.CodeOK
	if cache {
		x.cache[tableKey{table, key}] = cachedVal{val: res.Value, found: found}
	}
	return res.Value, found, nil
}

// route resolves the DC an operation on (table, key) is sent to. Reads are
// placement-routed but never ownership-checked: §6.1 partitions update
// responsibility only — every TC may read everywhere. An operation the
// placement has no clause for aborts the transaction like a failed lock
// would: it cannot proceed, and locks must not leak.
func (x *Txn) route(table, key string) (int, error) {
	idx, err := x.tc.dcIndex(table, key)
	if err != nil {
		_ = x.Abort()
	}
	return idx, err
}

// sendUnlogged is the one way an operation without a log record — a point
// read, a scan probe, a range read, a barrier's pre-reads — leaves the TC:
// op alone by Perform, or batch, what one barrier has for DC idx, by
// PerformBatch. (Operations that do hold a record go through deliver.) Such
// an operation carries no request ID: op.LSN stays zero, because the DC has
// nothing to recognise — a read is idempotent, so a resent frame just runs
// again, and it is never redone — so it takes nothing from the log, owes the
// ack tracker nothing, and the low-water mark never waits for it.
//
// The sender stamps what is the transaction's to give: the incarnation's
// epoch and, on a snapshot-flavored read, the snapshot timestamp. A dead
// incarnation sends nothing, and an answer that straddled the crash —
// the DC's epoch fence refuses the operation once the successor has announced
// itself (CodeStaleEpoch) — is the crash's, not a verdict on the request: the
// transaction dies as at any barrier (transient ErrTCStopped) instead of
// passing on the fence's permanent ErrStaleEpoch. New operations wait at the
// DC's recovery gate, and that wait, like the call, is the transaction's
// context's to cut short. A CodeStaleDC — the DC restarted, and this TC owes
// it its resend — starts the resend as deliver does, and the operation is
// sent again once it has ended.
//
// A snapshot read — recognised as the DC recognises it, by flavor and
// timestamp — is answered CodeUnavailable when the DC gave up waiting for some
// TC's safe timestamp to cover it (a TC partitioned or down); it is sent again
// after a pause, bounded only by the caller's context, because the condition
// clears as soon as the lagging TC's broadcasts resume. Every other operation
// is sent until no CodeStaleDC answers it, and counted: Stats.OpsSent is every
// operation handed to a DC except snapshot reads, whose transactions cost
// their TC a timestamp and nothing else.
func (x *Txn) sendUnlogged(idx int, op *base.Op, batch []*base.Op) (*base.Result, []*base.Result, error) {
	h := x.tc.dcs[idx]
	n, snapshot := len(batch), false
	if op != nil {
		op.Epoch = x.inc.epoch
		if op.Flavor == base.ReadSnapshot {
			op.TS = x.snapTS
		}
		n, snapshot = 1, op.Flavor == base.ReadSnapshot && op.TS != 0
	}
	for _, o := range batch {
		o.Epoch = x.inc.epoch
	}
	var pause pacer
	defer pause.stop()
	for {
		if x.orphaned() {
			return nil, nil, x.die()
		}
		if err := h.waitReady(x.ctx); err != nil {
			return nil, nil, err
		}
		if !snapshot {
			x.tc.opsSent.Add(uint64(n))
		}
		var res *base.Result
		var results []*base.Result
		if op != nil {
			res = h.svc.Perform(x.ctx, op)
		} else {
			results = h.svc.PerformBatch(x.ctx, batch)
		}
		switch {
		case x.orphaned():
			return nil, nil, x.die()
		case x.ctx.Err() != nil:
			// Whatever the answer says: a wait abandoned under way reports
			// CodeCancelled, and this carries the context's own error.
			return nil, nil, base.CancelErr(x.ctx)
		case res != nil && res.Code == base.CodeStaleDC || staleDC(results) != 0:
			x.inc.startResend(idx)
		case !snapshot || res.Code != base.CodeUnavailable:
			return res, results, nil
		}
		select {
		case <-pause.after(10 * time.Millisecond):
		case <-x.ctx.Done():
			return nil, nil, base.CancelErr(x.ctx)
		}
	}
}

// ReadCommitted reads the last committed version of a key that may belong
// to another TC's update partition. It takes no locks and never blocks:
// versioned data makes this safe (§6.2.2).
func (x *Txn) ReadCommitted(table, key string) ([]byte, bool, error) {
	return x.readUnlocked(table, key, base.ReadCommitted)
}

// ReadDirty reads the latest (possibly uncommitted) version without
// locking (§6.2.1). "Latest" is what has reached the DC: this transaction's
// own writes are shipped first (flush), but another TC's transaction shows
// its uncommitted versions only from its next barrier on — a scan, an
// unlocked read, a full batch, its commit — not from the call that wrote
// them.
func (x *Txn) ReadDirty(table, key string) ([]byte, bool, error) {
	return x.readUnlocked(table, key, base.ReadDirty)
}

// readUnlocked is a point read that bypasses locks and the transaction
// cache, behind a barrier so that it observes the transaction's own writes.
func (x *Txn) readUnlocked(table, key string, flavor base.ReadFlavor) ([]byte, bool, error) {
	if err := doneErr[x.state]; err != nil {
		return nil, false, err
	}
	if err := x.flush(); err != nil {
		return nil, false, err
	}
	return x.readOp(table, key, flavor, false)
}

// valueOf returns the current value under an already-held X lock, going to
// the DC only when the transaction cache cannot answer.
func (x *Txn) valueOf(table, key string) ([]byte, bool, error) {
	if c, ok := x.cache[tableKey{table, key}]; ok {
		return c.val, c.found, nil
	}
	return x.readOp(table, key, base.ReadPlain, true)
}

// Insert adds a new record; ErrDuplicate if the key exists.
func (x *Txn) Insert(table, key string, val []byte) error {
	return x.write(base.OpInsert, table, key, val)
}

// Update overwrites an existing record; ErrNotFound if absent.
func (x *Txn) Update(table, key string, val []byte) error {
	return x.write(base.OpUpdate, table, key, val)
}

// Upsert writes the record regardless of prior existence.
func (x *Txn) Upsert(table, key string, val []byte) error {
	return x.write(base.OpUpsert, table, key, val)
}

// Delete removes a record; ErrNotFound if absent.
func (x *Txn) Delete(table, key string) error {
	return x.write(base.OpDelete, table, key, nil)
}

// write implements all mutations: ownership and routing checks, X lock, the
// existence check of the kinds whose answer depends on it, and then the
// write joins the transaction's queue — it is logged and shipped at the next
// barrier (flush), not here. From this call on the transaction cache is the
// authority for the key: every later point read and existence check of it is
// answered there, never by a DC that has not seen the write yet.
//
// The undo information an op record carries is the key's value before the
// write. Insert, Update and Delete learn it from the existence check their
// return value needs anyway (a read through the cache, one DC call when the
// cache is cold). Upsert's result does not depend on it, so an Upsert the
// cache cannot answer reads nothing here: the barrier fetches every such
// prior in one batch per DC. A versioned Upsert needs none at all — the DC
// keeps the before version and the inverse is abort-versions.
//
// Cancellation points are the lock wait and the existence-check read.
func (x *Txn) write(kind base.OpKind, table, key string, val []byte) error {
	if err := doneErr[x.state]; err != nil {
		return err
	}
	if x.opts.ReadOnly {
		return fmt.Errorf("tc: %s %s/%s: %w", kind, table, key, base.ErrReadOnly)
	}
	// §6.1 enforcement: update responsibility is partitioned among the
	// TCs, and this TC refuses to write outside its own partition —
	// before anything is locked or logged, so a misrouted transaction
	// aborts cleanly with the permanent ErrWrongOwner and its effects
	// never reach a DC owned by somebody else's lock space.
	owner, err := x.tc.router.Owner(table, key)
	if err != nil {
		_ = x.Abort()
		return fmt.Errorf("tc %d: %s %s/%q: %w", x.tc.cfg.ID, kind, table, key, err)
	}
	if owner != 0 && owner != x.tc.cfg.ID {
		_ = x.Abort()
		return fmt.Errorf("tc %d: %s %s/%q is owned by tc %d: %w",
			x.tc.cfg.ID, kind, table, key, owner, base.ErrWrongOwner)
	}
	// Resolved before the write is accepted, so only routable operations
	// ever consume a logged LSN.
	dcIdx, err := x.route(table, key)
	if err != nil {
		return err
	}
	if err := x.lock(lockmgr.KeyRes(table, key), lockmgr.X); err != nil {
		return err
	}
	tk := tableKey{table, key}
	q := queued{dc: dcIdx}
	switch kind {
	case base.OpInsert, base.OpUpdate, base.OpDelete:
		// Checked here so that every logged operation succeeds at the DC:
		// restart undo can then blindly invert every chained record.
		p, found, err := x.valueOf(table, key)
		switch {
		case err != nil:
			return err
		case kind == base.OpInsert && found:
			return ErrDuplicate
		case kind != base.OpInsert && !found:
			return ErrNotFound
		}
		q.prior, q.priorFound = p, found
	case base.OpUpsert:
		if x.opts.Versioned {
			break
		}
		if c, ok := x.cache[tk]; ok {
			q.prior, q.priorFound = c.val, c.found
		} else {
			q.needPrior = true
		}
	}
	q.op = base.Op{TC: x.tc.cfg.ID, Kind: kind, Table: table, Key: key,
		Value: val, Versioned: x.opts.Versioned}
	if x.slab == nil {
		x.slab = new(writeSlab)
		x.queue = x.slab.queue[:0]
	}
	x.queue = append(x.queue, q)
	if kind == base.OpDelete {
		x.cache[tk] = cachedVal{found: false}
	} else {
		x.cache[tk] = cachedVal{val: val, found: true}
	}
	if x.opts.Versioned {
		x.versioned[tk] = struct{}{}
	}
	if len(x.queue) >= maxBatch {
		return x.flush()
	}
	return nil
}

// ErrCommitAmbiguous marks a Commit that failed after the commit record
// was appended: the transaction's outcome is decided by the log (a winner
// if the record reaches stability, lost otherwise), not by this error.
// Callers must NOT re-execute the transaction on it — re-running could
// apply its effects twice — even when the underlying failure (a closed
// component, a cancelled wait) would otherwise classify as transient.
var ErrCommitAmbiguous = errors.New("tc: commit outcome decided by the log, not by this error")

// Commit makes the transaction durable: append and force the commit
// record (group commit), finalize versioned writes (§6.2.2 — removing the
// before versions; non-blocking for readers, no two-phase commit), then
// release locks (strict two-phase locking).
//
// Commit is the transaction's last write barrier, in two parts. The part
// that can still be given up runs here, under the transaction's context: the
// orphan check and the pre-read of missing undo images. A failure there has
// logged nothing and is a clean abort. Everything from the first log append
// on is commitLogged, which never consults the context.
//
// Who runs commitLogged follows from the context. One that can never be
// cancelled (context.Background, the usual case) gets a plain call. Under one
// that can, it runs on a goroutine of its own and Commit returns on whichever
// comes first: its result — looked at first, so a commit that already
// finished is never reported ambiguous — or the cancellation. A cancelled
// Commit returns promptly with an error wrapping ErrCommitAmbiguous and
// base.ErrCancelled, and abandons only the wait, never the protocol: the
// goroutine is the transaction's detached finisher, it holds the locks until
// every shipped operation is acknowledged and the commit record is stable, so
// no other transaction can observe a not-yet-applied write or a
// not-yet-durable commit. The transaction is marked done for its caller
// before the hand-off: a later Abort or Commit (a deferred Abort, say) is an
// ErrTxnDone no-op that cannot race the finisher.
func (x *Txn) Commit() error {
	if err := doneErr[x.state]; err != nil {
		return err
	}
	err := x.preRead()
	if err != nil {
		_ = x.Abort() // a no-op for an orphan, which preRead has retired
		return fmt.Errorf("tc: commit txn %d: %w", x.id, err)
	}
	x.state = txnCommitted
	if x.lastLSN == 0 && len(x.queue) == 0 {
		// Read-only (or no-op) commit: the transaction wrote nothing, so
		// there is no outcome to make durable — no commit record, no log
		// force. Restart treats an unlogged transaction as having no
		// effects, which is exactly right.
		x.tc.commits.Add(1)
		x.finish()
		return nil
	}
	if x.ctx.Done() == nil {
		err = x.commitLogged()
	} else {
		done := make(chan error, 1) // one send, never blocked on an absent caller
		go func() { done <- x.commitLogged() }()
		select {
		case err = <-done:
		case <-x.ctx.Done():
			select {
			case err = <-done:
			default:
				return fmt.Errorf("tc: commit txn %d: %w: %w", x.id, ErrCommitAmbiguous, base.CancelErr(x.ctx))
			}
		}
	}
	if err != nil && !errors.Is(err, ErrCommitAmbiguous) {
		x.state = txnAborted // commitLogged rolled it back
	}
	return err
}

// commitLogged is Commit from the first log append to the lock release, one
// straight line that no cancellation interrupts: log the queued writes and
// ship them, one batch per DC, acknowledged before the commit record is
// appended — so a ship that fails (the TC stopped underneath) still rolls the
// transaction back and is a plain failure; append and force the commit
// record; publish the new stable boundary; log and ship the finalize
// operations of a versioned commit as a second batch; release the locks. A
// failure after the commit record is reported wrapping ErrCommitAmbiguous:
// the outcome is the log's, restart treats the transaction as a winner and
// re-delivers its logged operations. Locks are released only after every
// write and finalize is acknowledged and the commit record is stable.
//
// It may run on the finisher goroutine of a cancelled Commit, so it leaves
// x.state — all the caller's goroutine still reads — alone.
func (x *Txn) commitLogged() error {
	t, inc := x.tc, x.inc
	var vkeys []tableKey
	for tk := range x.versioned {
		vkeys = append(vkeys, tk)
	}
	err := x.appendQueued()
	if err == nil {
		err = x.ship()
	}
	if err != nil {
		x.rollback()
		return fmt.Errorf("tc: commit txn %d: %w", x.id, err)
	}
	if len(vkeys) > 0 {
		// The commit timestamp is the snapshot visibility point of this
		// transaction's versioned writes. Logged in the commit record so
		// restart re-finalizes winners at the same timestamp.
		x.commitTS = inc.assignCommitTS()
	}
	x.enc = appendCommit(x.enc[:0], vkeys, x.commitTS)
	cLSN := inc.logLocal(&wal.Record{Kind: recCommit, Txn: x.id, Prev: x.lastLSN, Payload: x.enc})
	if cLSN == 0 {
		// The incarnation died before the commit record: a loser, restart's
		// to undo, with nothing to release but dead tables.
		return fmt.Errorf("tc: commit txn %d: %w", x.id, ErrTCStopped)
	}
	if !inc.log.ForceTo(cLSN) {
		// It died under the force: whether the record reached the stable log
		// first is the log's to say, and restart reads it there.
		return fmt.Errorf("tc: commit txn %d: %w: %w", x.id, ErrCommitAmbiguous, ErrTCStopped)
	}
	// Publish the new stable boundary: cached pages with this transaction's
	// operations become flushable (causality). No frame is sent for it — it
	// rides this TC's next request toward each DC (the finalize batch below,
	// the next transaction's pre-read) or, from an idle TC, the next tick.
	inc.publishStable()
	t.commits.Add(1)
	// §6.2.2: "When an updating TC commits the transaction, it sends
	// updates to the DC to eliminate the before versions." These are
	// logged so restart re-delivers them for winners. They travel like the
	// writes they finalize — one batch per DC, ordered after those writes —
	// and are acknowledged before lock release.
	err = x.finalize(vkeys)
	x.finish()
	if err != nil {
		return fmt.Errorf("tc: commit barrier for txn %d: %w: %w", x.id, ErrCommitAmbiguous, err)
	}
	return nil
}

// finish releases the transaction's locks and drops it from the table:
// the 2PL release point. Runs exactly once per transaction, as the last step
// of commitLogged or rollback. It also releases the transaction's timestamp
// registrations: the snapshot pin on the GC horizon, and the outstanding
// commit timestamp (every path reaching finish after a commit has the
// finalize operations acknowledged, so the safe timestamp may now pass it).
// All of it in the transaction's own incarnation: an orphan's finish lands in
// dead tables, never on a successor's transaction of the same id.
func (x *Txn) finish() {
	inc := x.inc
	if x.snapTS != 0 || x.commitTS != 0 {
		x.tc.tsMu.Lock()
		if x.snapTS != 0 {
			if inc.activeSnaps[x.snapTS]--; inc.activeSnaps[x.snapTS] <= 0 {
				delete(inc.activeSnaps, x.snapTS)
			}
		}
		if x.commitTS != 0 {
			delete(inc.commitOut, x.commitTS)
		}
		x.tc.tsMu.Unlock()
	}
	inc.locks.ReleaseAll(x.id)
	inc.mu.Lock()
	delete(inc.txns, x.id)
	inc.mu.Unlock()
}

// finalize logs and ships the commit-versions operations of a committed
// transaction's versioned write set. A failure is reported for the commit
// barrier's sake only: the operations are logged, so restart re-delivers
// them for winners.
func (x *Txn) finalize(vkeys []tableKey) error {
	var first error
	for _, tk := range vkeys {
		first = firstErr(first, x.finalizeOp(tk))
	}
	return firstErr(first, x.ship())
}

// finalizeOp logs one commit-versions operation and queues it for its DC; a
// queue that reaches maxBatch is shipped, and that ship's failure returned.
func (x *Txn) finalizeOp(tk tableKey) error {
	t := x.tc
	// The forward write resolved this key's placement when it was issued,
	// so under a stable placement this cannot fail; resolving before the
	// record is appended keeps the invariant that only routable
	// operations ever consume a logged LSN.
	idx, err := t.dcIndex(tk.table, tk.key)
	if err != nil {
		return nil
	}
	// Commit-versions operations carry the commit timestamp: the DC stamps
	// it on the record as it removes the before version, making the write
	// visible to snapshot reads at or above it. The payload keeps the TS
	// (only LSN and epoch are zeroed), so restart redo re-finalizes at the
	// same timestamp.
	x.queue = append(x.queue, queued{dc: idx, op: base.Op{TC: t.cfg.ID,
		Kind: base.OpCommitVersions, Table: tk.table, Key: tk.key, TS: x.commitTS}})
	op := &x.queue[len(x.queue)-1].op
	x.enc = appendOpPayload(x.enc[:0], op, nil, false)
	if !x.inc.logOp(op, &wal.Record{Kind: recOp, Txn: x.id, Prev: 0, Payload: x.enc}) {
		x.queue = x.queue[:len(x.queue)-1] // never logged, so never shipped
		return ErrTCStopped
	}
	if len(x.queue) >= maxBatch {
		return x.ship()
	}
	return nil
}

// Abort rolls the transaction back (§4.1.1(2b)) and releases its locks; see
// rollback. A transaction that never logged anything appends nothing, like
// the read-only commit. Abort does not honor cancellation: the rollback
// protocol must complete before the locks can be released (a cancelled
// transaction still aborts cleanly).
func (x *Txn) Abort() error {
	if x.state != txnActive {
		if x.state == txnCommitted {
			return ErrTxnDone
		}
		return nil
	}
	if x.orphaned() {
		return x.die()
	}
	x.rollback()
	x.state = txnAborted
	return nil
}

// rollback walks the undo chain in reverse chronological order, sending
// inverse logical operations (logged as compensation records so restart
// never undoes twice), then releases the locks. Writes still queued were
// never logged or shipped: they are dropped, with nothing to invert. Every
// logged write was acknowledged at the barrier that logged it, so an inverse
// can never overtake the forward operation it undoes and every CLR finds the
// effect it compensates.
func (x *Txn) rollback() {
	x.queue = nil
	if x.lastLSN != 0 && !x.orphaned() { // an orphan's undo is restart's; see die
		x.inc.undoChain(x.id, x.lastLSN, false)
		x.inc.logLocal(&wal.Record{Kind: recAbort, Txn: x.id, Prev: x.lastLSN})
	}
	x.finish()
	x.tc.aborts.Add(1)
}

// undoChain applies inverse operations for the chain starting at lastLSN.
// Compensation records jump via NextUndo so an undo interrupted by a crash
// never repeats completed work. Shared by Abort and restart undo, whose
// inverses are delivered inside its resend brackets (bracket).
func (inc *incarnation) undoChain(txn base.TxnID, lastLSN base.LSN, bracket bool) {
	t := inc.tc
	var enc []byte // every CLR's payload: the log keeps its own copy
	cur := lastLSN
	for cur != 0 {
		rec := t.log.Get(cur)
		if rec == nil {
			return // truncated below the chain: nothing older to undo
		}
		switch rec.Kind {
		case recOp:
			op, prior, priorFound, err := decodeOpPayload(rec.Payload)
			if err != nil {
				return
			}
			if inv := inverseOp(op, prior, priorFound); inv != nil {
				// The forward op routed when it was logged; a failure here
				// means the placement changed underneath a live log, which
				// nothing can undo against — stop like a truncated chain.
				idx, err := t.dcIndex(inv.Table, inv.Key)
				if err != nil {
					return
				}
				enc = appendOpPayload(enc[:0], inv, nil, false)
				clr := &wal.Record{Kind: recCLR, Txn: txn, Prev: cur, NextUndo: rec.Prev, Payload: enc}
				if !inc.logOp(inv, clr) {
					return // the incarnation died: the rest is its successor's
				}
				// The CLR is logged: if delivery is cut short (TC stopping, the
				// DC restarting under a bracket), a resend delivers it.
				_ = inc.deliverOne(context.Background(), idx, inv, bracket)
				t.undoOps.Add(1)
			}
			cur = rec.Prev
		case recCLR:
			cur = rec.NextUndo
		default:
			cur = rec.Prev
		}
	}
}

// inverseOp builds the logical inverse (§4.1.1(2b)). Versioned writes
// invert via abort-versions — the DC discards the uncommitted version and
// restores the before version (§6.2.2). Finalize operations have no
// inverse (they only run post-commit).
func inverseOp(op *base.Op, prior []byte, priorFound bool) *base.Op {
	if op.Kind == base.OpCommitVersions || op.Kind == base.OpAbortVersions {
		return nil
	}
	if op.Versioned {
		return &base.Op{TC: op.TC, Kind: base.OpAbortVersions, Table: op.Table, Key: op.Key}
	}
	switch op.Kind {
	case base.OpInsert:
		return &base.Op{TC: op.TC, Kind: base.OpDelete, Table: op.Table, Key: op.Key}
	case base.OpUpdate:
		return &base.Op{TC: op.TC, Kind: base.OpUpdate, Table: op.Table, Key: op.Key, Value: prior}
	case base.OpUpsert:
		if priorFound {
			return &base.Op{TC: op.TC, Kind: base.OpUpdate, Table: op.Table, Key: op.Key, Value: prior}
		}
		return &base.Op{TC: op.TC, Kind: base.OpDelete, Table: op.Table, Key: op.Key}
	case base.OpDelete:
		return &base.Op{TC: op.TC, Kind: base.OpInsert, Table: op.Table, Key: op.Key, Value: prior}
	}
	return nil
}

// Scan reads [lo, hi) in this TC's partition with full locking. Of the §3.1
// range protocols fetch-ahead is the one implemented; static range locks are
// not. hi == "" scans to the end of the table's partition; limit <= 0 means
// unlimited.
func (x *Txn) Scan(table, lo, hi string, limit int) (keys []string, vals [][]byte, err error) {
	if err := doneErr[x.state]; err != nil {
		return nil, nil, err
	}
	if x.snapTS != 0 {
		// Snapshot scans need none of the §3.1 range protocols: the view
		// at the snapshot timestamp is immutable, so one unlocked range
		// read is already stable.
		return x.scanUnlocked(table, lo, hi, limit, base.ReadSnapshot)
	}
	if err := x.flush(); err != nil {
		return nil, nil, err
	}
	return x.fetchAheadScan(table, lo, hi, limit)
}

// fetchAheadScan implements the §3.1 fetch-ahead protocol: speculatively
// probe for the keys in the range, lock them, then read; if the read
// returns keys that were not locked, the read doubles as the next probe.
func (x *Txn) fetchAheadScan(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	locked := make(map[string]bool)
	probeLimit := limit
	if limit <= 0 || limit > probeWidth {
		probeLimit = probeWidth
	}
	// Initial speculative probe.
	x.tc.probes.Add(1)
	probe, err := x.rangeOp(base.OpScanProbe, table, lo, hi, probeLimit, base.ReadPlain)
	if err != nil {
		return nil, nil, err
	}
	toLock := probe.Keys
	for attempt := 0; attempt < 16; attempt++ {
		for _, k := range toLock {
			if locked[k] {
				continue
			}
			if err := x.lock(lockmgr.KeyRes(table, k), lockmgr.S); err != nil {
				return nil, nil, err
			}
			locked[k] = true
		}
		res, err := x.rangeOp(base.OpRangeRead, table, lo, hi, limit, base.ReadPlain)
		if err != nil {
			return nil, nil, err
		}
		// Should the records read differ from the ones locked, this read
		// becomes the next speculative probe (§3.1).
		stable := true
		for _, k := range res.Keys {
			if !locked[k] {
				stable = false
				break
			}
		}
		if stable {
			return res.Keys, res.Values, nil
		}
		toLock = res.Keys
		x.tc.probes.Add(1)
	}
	_ = x.Abort()
	return nil, nil, ErrScanUnstable
}

// ScanCommitted range-reads committed versions across TC ownership
// boundaries without locks (§6.2.2; used by reader TCs like Figure 2's
// TC3).
func (x *Txn) ScanCommitted(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	return x.scanUnlocked(table, lo, hi, limit, base.ReadCommitted)
}

// ScanDirty range-reads latest versions without locks (§6.2.1).
func (x *Txn) ScanDirty(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	return x.scanUnlocked(table, lo, hi, limit, base.ReadDirty)
}

// scanUnlocked is readUnlocked for a range.
func (x *Txn) scanUnlocked(table, lo, hi string, limit int, flavor base.ReadFlavor) ([]string, [][]byte, error) {
	if err := doneErr[x.state]; err != nil {
		return nil, nil, err
	}
	if err := x.flush(); err != nil {
		return nil, nil, err
	}
	res, err := x.rangeOp(base.OpRangeRead, table, lo, hi, limit, flavor)
	if err != nil {
		return nil, nil, err
	}
	return res.Keys, res.Values, nil
}

// rangeOp issues one operation over [lo, hi) — a range read of the given
// flavor, or a scan probe — routed by the low key: the range protocols scan
// within one table partition. Any answer but CodeOK is its error.
func (x *Txn) rangeOp(kind base.OpKind, table, lo, hi string, limit int, flavor base.ReadFlavor) (*base.Result, error) {
	idx, err := x.route(table, lo)
	if err != nil {
		return nil, err
	}
	res, _, err := x.sendUnlogged(idx, &base.Op{TC: x.tc.cfg.ID, Kind: kind, Table: table,
		Key: lo, EndKey: hi, Limit: int32(limit), Flavor: flavor}, nil)
	if err == nil {
		err = res.Err()
	}
	return res, err
}
