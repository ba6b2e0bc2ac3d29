package tc

import (
	"context"
	"errors"
	"fmt"
	"sync"
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
	// SnapshotBounded reads at most TxnOptions.Staleness behind now: at
	// now minus Staleness, or fresher where that is below the last GC
	// horizon this TC sent (the DCs may have pruned what it would see). The
	// horizon trails by the Staleness bounded readers ask for, so while
	// they keep coming they read exactly that far back. No uncertainty wait
	// and usually no safe-timestamp wait either, trading freshness for
	// latency.
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
	// Staleness is how far behind now a SnapshotBounded view may read at
	// most; ignored otherwise.
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

// queued is one write of a transaction between being accepted and being
// acknowledged: it waits for the next barrier, which logs and ships it. dc is
// the DC it routes to. undo is the undo information its op record carries if
// it leaves before the commit barrier; needPrior marks a prior the cache could
// not supply at call time, which such a barrier's batched pre-read fetches
// (see Txn.fetchPriors). At the commit barrier neither is looked at: the
// record is redo-only.
type queued struct {
	op        base.Op
	dc        int
	undo      undoImage
	needPrior bool
}

// slabOps is how many operations a transaction has room for between two
// barriers in its writeSlab; more spill to the heap, by append's doubling.
const slabOps = 8

// writeSlab is the storage a writing transaction needs at its barriers, in its
// txnScratch: the queue, the read operations of a pre-read, the records of one
// log batch (the queue's, and the commit record), and the list of operations
// handed to one DC (Txn.ship sends to one DC at a time). An operation in here
// is its barrier's: the base.Service it is sent to must be done with it when
// the call returns.
type writeSlab struct {
	queue [slabOps]queued
	reads [slabOps]base.Op
	recs  [slabOps + 1]wal.Record
	send  [slabOps]*base.Op
}

// txnScratch is everything a transaction uses on its own goroutine and nothing
// outlives it: the cache, the versioned keys, the queue and what its barriers
// build from it, the payload buffer of a log batch and the operation of a
// point read. Begin takes one from scratchPool and finish gives it back,
// cleared; nothing else does. So a transaction that dies as an orphan, or
// whose commit ends ambiguous, leaves its scratch to the collector, and the
// finisher of a cancelled Commit keeps it until its own finish. An operation
// lent from here to a base.Service is the next transaction's once the call
// has returned and the transaction finished.
type txnScratch struct {
	// cache holds values read or written under locks this transaction
	// already holds; locked values cannot change underfoot (strict 2PL),
	// so cached copies are authoritative and spare read-before-write
	// round trips to the DC.
	cache map[tableKey]cachedVal
	// versioned holds the keys a versioned transaction wrote, true for one
	// whose last write left at an earlier barrier, without the commit
	// timestamp: the commit barrier writes it again (see stamp). Empty for
	// an unversioned transaction.
	versioned map[tableKey]bool
	// queue holds the writes accepted since the last barrier, in call order:
	// X lock held, cache updated, nothing logged and no LSN taken yet. flush
	// logs and ships it; Abort drops it. It starts in slab.queue.
	queue []queued
	// enc is where the record payloads of a log batch are encoded, back to
	// back. The log copies them as it appends (wal.AppendBatch), so enc is
	// free again when the append returns, for the next barrier or the next
	// transaction.
	enc []byte
	// slab backs the queue and what a barrier builds from it; wrote marks it
	// used, so that only a transaction that queued a write pays for clearing it.
	slab  writeSlab
	wrote bool
	// read is the operation of a point read (Txn.readOp).
	read base.Op
}

// A scratch that grew past one slab's worth — its queue spilled past slabOps,
// a map past maxKeptKeys keys, or enc past maxKeptEnc bytes — is left to the
// collector instead of kept, as a wire connection drops an outsized buffer:
// the pool holds only scratch of the size most transactions need.
const (
	maxKeptKeys = 4 * slabOps
	maxKeptEnc  = 4 << 10
)

var scratchPool = sync.Pool{New: func() any {
	s := &txnScratch{cache: make(map[tableKey]cachedVal, slabOps), versioned: make(map[tableKey]bool)}
	s.queue = s.slab.queue[:0]
	return s
}}

// release clears s — so no user value, DC result or key stays reachable from
// the pool — and gives it back, or leaves it to the collector when it grew
// past one slab's worth. Only Txn.finish calls it.
func (s *txnScratch) release() {
	if cap(s.queue) > slabOps || len(s.cache) > maxKeptKeys || len(s.versioned) > maxKeptKeys || cap(s.enc) > maxKeptEnc {
		return
	}
	clear(s.cache)
	clear(s.versioned)
	if s.wrote {
		s.slab, s.wrote = writeSlab{}, false
	}
	s.queue = s.slab.queue[:0]
	s.read = base.Op{}
	scratchPool.Put(s)
}

// Txn is one user transaction executing at this TC. A transaction is used
// from a single goroutine (many transactions run concurrently). It carries
// the context it was begun with: every lock wait and read honors that
// context's cancellation and deadline, while the delivery of logged writes
// deliberately does not (see appendQueued). After Commit or Abort has
// returned, every method answers ErrTxnDone from the state field alone: a
// cancelled Commit leaves the rest of the transaction, its scratch included,
// to its finisher goroutine, which never touches state.
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
	// txnScratch is the transaction's from Begin to finish; nil before (a
	// transaction begun while the TC was down has none) and after.
	*txnScratch
	// snapTS is the snapshot read timestamp (nonzero only for snapshot
	// transactions): every read is served by the DC at this timestamp.
	snapTS base.TS
	// commitTS is the commit timestamp a versioned transaction's commit
	// barrier assigns and stamps on its writes; it holds the TC's safe
	// timestamp down until the commit record is forced.
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
	x := &Txn{tc: t, inc: inc, ctx: ctx, opts: opts, txnScratch: scratchPool.Get().(*txnScratch)}
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
// so the TC's GC horizon cannot pass it while the snapshot is live. Both
// happen under tsMu, and the timestamp is raised to the last horizon sent
// (the DCs may have pruned below it), so no horizon broadcast before or
// after passes it: a bounded snapshot reads at most Staleness back, and a
// fresh one that read the clock just before a broadcast reads where that
// broadcast let the DCs prune. A fresh snapshot then waits out the clock's
// uncertainty window: once WaitUntilAfter returns, no clock in the
// deployment can still read snapTS or earlier, so no later-starting commit
// can be assigned a timestamp at or below it — reads at snapTS are
// externally consistent. A cancelled wait is not an error here; the reads
// themselves honor the context and will fail promptly.
func (x *Txn) beginSnapshot() {
	t := x.tc
	now, unc := t.clock.Now()
	snap := now + base.TS(unc)
	bounded := x.opts.Snapshot == SnapshotBounded
	var back base.TS // how far back a bounded snapshot asks to read
	if bounded {
		back = base.TS(max(x.opts.Staleness, 0))
		snap = 1
		if now > back {
			snap = now - back
		}
	}
	t.tsMu.Lock()
	if back > x.inc.staleness {
		x.inc.staleness = back
	}
	if !bounded && t.lastCommit > snap {
		// Never read below this TC's own newest commit: guarantees fresh
		// snapshots observe local commits even when the clock has not yet
		// caught the allocator up (frozen test clocks, bursts of commits
		// within one clock tick).
		snap = t.lastCommit
	}
	if snap < t.maxHorizonSent {
		snap = t.maxHorizonSent
	}
	x.snapTS = snap
	x.inc.activeSnaps[snap]++
	t.tsMu.Unlock()
	t.snapshots.Add(1)
	if !bounded && unc > 0 {
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
	x.read = base.Op{TC: x.tc.cfg.ID, Kind: base.OpRead, Table: table, Key: key, Flavor: flavor}
	res, _, err := x.sendUnlogged(idx, &x.read, nil)
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
// write, and only a write that leaves before the commit barrier needs it: one
// still queued at commit is logged redo-only, in one batch with the commit
// record. Insert, Update and Delete learn it from the existence check their
// return value needs anyway (a read through the cache, one DC call when the
// cache is cold). Upsert's result does not depend on it, so an Upsert the
// cache cannot answer reads nothing here: an earlier barrier fetches every
// such prior in one batch per DC, and the commit barrier none. A versioned
// Upsert needs none at all — the DC keeps the before version and the inverse
// is abort-versions.
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
		q.undo = undoImage{prior: p, found: found}
	case base.OpUpsert:
		if x.opts.Versioned {
			break
		}
		if c, ok := x.cache[tk]; ok {
			q.undo = undoImage{prior: c.val, found: c.found}
		} else {
			q.needPrior = true
		}
	}
	q.op = base.Op{TC: x.tc.cfg.ID, Kind: kind, Table: table, Key: key,
		Value: val, Versioned: x.opts.Versioned}
	x.queue, x.wrote = append(x.queue, q), true
	if kind == base.OpDelete {
		x.cache[tk] = cachedVal{found: false}
	} else {
		x.cache[tk] = cachedVal{val: val, found: true}
	}
	if x.opts.Versioned {
		x.versioned[tk] = false
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

// Commit makes the transaction durable: log its last writes — a versioned
// transaction's stamped with its commit timestamp (§6.2.2; see stamp) — and
// its commit record as one batch, ship the writes, force the batch (group
// commit), then release locks (strict two-phase locking). No two-phase
// commit, and no second message to eliminate the before versions: a DC takes
// a stamped version for committed once the TC's safe timestamp passes its
// timestamp.
//
// The writes still queued here are logged redo-only: they take no pre-read
// of their undo images, because their records are stable exactly when the
// commit record is (deferred update; Bernstein, Hadzilacos & Goodman 1987,
// ch. 6). A crash that loses the batch loses the transaction, and the DCs
// roll its shipped writes back themselves (DC.BeginRestart). So a
// transaction that crossed no earlier barrier costs one round trip per DC.
//
// Commit is the transaction's last write barrier, in two parts. The part
// that can still be given up runs here, under the transaction's context: the
// orphan check and the context's own. A failure there has logged nothing and
// is a clean abort. Everything from the log append on is commitLogged, which
// never consults the context.
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
	if x.orphaned() {
		return fmt.Errorf("tc: commit txn %d: %w", x.id, x.die())
	}
	if x.ctx.Err() != nil {
		_ = x.Abort()
		return fmt.Errorf("tc: commit txn %d: %w", x.id, base.CancelErr(x.ctx))
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
	var err error
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

// commitLogged is Commit from the log append to the lock release, one
// straight line that no cancellation interrupts: stamp a versioned
// transaction's writes with its commit timestamp; append the queued writes'
// redo-only records and the commit record as one batch; ship the writes, one
// batch per DC; force the batch; publish the new stable boundary; release the
// locks and the commit timestamp. Only a refused append — the incarnation
// died first — is a plain failure: nothing of the batch is logged. Any
// failure after it is reported wrapping ErrCommitAmbiguous, with the locks
// held, because the commit record is in the log and the outcome is the log's:
// restart treats a transaction whose commit record is stable as a winner and
// re-delivers its logged operations, and one whose batch is lost as never
// having written it. A peer's group force may make the batch stable before
// the ship is acknowledged. A failed ship ends the incarnation if the crash of
// the TC has not already (TC.end), so a live TC never holds a winner whose
// writes it did not deliver.
//
// It may run on the finisher goroutine of a cancelled Commit, so it leaves
// x.state — all the caller's goroutine still reads — alone.
func (x *Txn) commitLogged() error {
	t, inc := x.tc, x.inc
	if len(x.versioned) > 0 {
		// The commit barrier is the lock point: the transaction holds every
		// lock it will take, so its commit timestamp, the snapshot
		// visibility point of its versioned writes, is drawn here and rides
		// them. Logged in the commit record so restart re-seeds the
		// allocator above it.
		x.commitTS = inc.assignCommitTS()
		x.stamp()
	}
	cLSN, err := x.appendQueued(true)
	if err != nil {
		// The incarnation died before the batch: a loser whose earlier
		// barriers, if any, are restart's to undo, with nothing to release
		// but dead tables.
		x.rollback()
		return fmt.Errorf("tc: commit txn %d: %w", x.id, err)
	}
	if err := x.ship(); err != nil {
		// The commit record is in the log, so this incarnation can no longer
		// take the writes back, nor can it deliver them. If it still lives
		// — a closed TC or stub, a refusal at the DC — it ends here, before a
		// peer's force can make the transaction a winner whose writes only a
		// restart's redo delivers: restart decides the outcome.
		t.end(inc)
		return fmt.Errorf("tc: commit txn %d: %w: %w", x.id, ErrCommitAmbiguous, err)
	}
	if !inc.log.ForceTo(cLSN) {
		// It died under the force: whether the batch reached the stable log
		// first is the log's to say, and restart reads it there.
		return fmt.Errorf("tc: commit txn %d: %w: %w", x.id, ErrCommitAmbiguous, ErrTCStopped)
	}
	// Publish the new stable boundary: cached pages with this transaction's
	// operations become flushable (causality). No frame is sent for it — it
	// rides this TC's next request toward each DC (the next transaction's
	// write batch) or, from an idle TC, the next tick.
	inc.publishStable()
	t.commits.Add(1)
	x.finish()
	return nil
}

// stamp readies a versioned commit's barrier: each key whose last write left
// at an earlier barrier, unstamped, is queued again as the ordinary versioned
// Upsert or Delete that leaves it as the transaction cache holds it — the DC
// overwrites its own pending head — and every write in the queue carries the
// commit timestamp.
func (x *Txn) stamp() {
	for tk, shipped := range x.versioned {
		if !shipped {
			continue
		}
		// Routed when the key was first written, so under a stable
		// placement this cannot fail.
		idx, err := x.tc.dcIndex(tk.table, tk.key)
		if err != nil {
			continue
		}
		c := x.cache[tk]
		q := queued{dc: idx, op: base.Op{TC: x.tc.cfg.ID, Kind: base.OpUpsert,
			Table: tk.table, Key: tk.key, Value: c.val, Versioned: true}}
		if !c.found {
			q.op.Kind = base.OpDelete
		}
		x.queue = append(x.queue, q)
	}
	for i := range x.queue {
		x.queue[i].op.TS = x.commitTS
	}
}

// finish releases the transaction's locks and drops it from the table:
// the 2PL release point. Runs exactly once per transaction, as the last step
// of commitLogged or rollback. It also releases the transaction's timestamp
// registrations: the snapshot pin on the GC horizon, and the outstanding
// commit timestamp (every path reaching finish after a commit has the
// stamped writes acknowledged and the commit record forced, or the writes
// taken back by their inverses, so the safe timestamp may now pass it).
// All of it in the transaction's own incarnation: an orphan's finish lands in
// dead tables, never on a successor's transaction of the same id. Last, it
// gives the transaction's scratch back: every call that was lent an operation
// from it has returned.
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
	s := x.txnScratch
	x.txnScratch = nil
	s.release()
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
// never undoes twice), one delivery per DC, then releases the locks. Writes
// still queued were never logged or shipped: they are dropped, with nothing
// to invert. Every logged write was acknowledged at the barrier that logged
// it, so an inverse can never overtake the forward operation it undoes and
// every CLR finds the effect it compensates.
func (x *Txn) rollback() {
	x.queue = nil
	if x.lastLSN != 0 && !x.orphaned() { // an orphan's undo is restart's; see die
		// A live transaction's chain holds no redo-only record: its commit
		// batch is the last thing it appends, and nothing rolls it back.
		byDC, _ := x.inc.undoChain(x.id, x.lastLSN)
		for idx, invs := range byDC {
			_ = x.inc.deliver(context.Background(), idx, invs, false) // logged: restart redoes what is cut short
		}
		x.inc.logLocal(&wal.Record{Kind: recAbort, Txn: x.id, Prev: x.lastLSN})
	}
	x.finish()
	x.tc.aborts.Add(1)
}

// undoChain logs the inverse operations for the chain starting at lastLSN as
// compensation records and returns them by DC, each DC's in log order.
// Compensation records jump via NextUndo so an undo interrupted by a crash
// never repeats completed work. Shared by Abort, which delivers them, and
// restart undo, whose resends deliver them with the rest of the log.
//
// A redo-only record in the chain is an error, and nothing is inverted from
// it: it was logged in one batch with the transaction's commit record, so a
// chain that holds it without that record is a log the batch rule did not
// write.
func (inc *incarnation) undoChain(txn base.TxnID, lastLSN base.LSN) ([][]*base.Op, error) {
	t := inc.tc
	byDC := make([][]*base.Op, len(t.dcs))
	var enc []byte // every CLR's payload: the log keeps its own copy
	cur := lastLSN
	for cur != 0 {
		rec := t.log.Get(cur)
		if rec == nil {
			return byDC, nil // truncated below the chain: nothing older to undo
		}
		switch rec.Kind {
		case recOp:
			op, undo, err := decodeOpPayload(rec.Payload)
			if err != nil {
				return byDC, nil
			}
			if undo.redoOnly {
				return byDC, fmt.Errorf("tc: undo of txn %d: op record @%d is redo-only, its commit record is not in the log", txn, cur)
			}
			if inv := inverseOp(op, undo); inv != nil {
				// The forward op routed when it was logged; a failure here
				// means the placement changed underneath a live log, which
				// nothing can undo against — stop like a truncated chain.
				idx, err := t.dcIndex(inv.Table, inv.Key)
				if err != nil {
					return byDC, nil
				}
				enc = appendOpPayload(enc[:0], inv, undoImage{})
				clr := &wal.Record{Kind: recCLR, Txn: txn, Prev: cur, NextUndo: rec.Prev, Payload: enc}
				if !inc.logOp(inv, clr) {
					return byDC, nil // the incarnation died: the rest is its successor's
				}
				byDC[idx] = append(byDC[idx], inv)
				t.undoOps.Add(1)
			}
			cur = rec.Prev
		case recCLR:
			cur = rec.NextUndo
		default:
			cur = rec.Prev
		}
	}
	return byDC, nil
}

// inverseOp builds the logical inverse (§4.1.1(2b)). Versioned writes
// invert via abort-versions — the DC discards the uncommitted version and
// restores the before version (§6.2.2); abort-versions has no inverse.
func inverseOp(op *base.Op, undo undoImage) *base.Op {
	if op.Kind == base.OpAbortVersions {
		return nil
	}
	if op.Versioned {
		return &base.Op{TC: op.TC, Kind: base.OpAbortVersions, Table: op.Table, Key: op.Key}
	}
	switch op.Kind {
	case base.OpInsert:
		return &base.Op{TC: op.TC, Kind: base.OpDelete, Table: op.Table, Key: op.Key}
	case base.OpUpdate:
		return &base.Op{TC: op.TC, Kind: base.OpUpdate, Table: op.Table, Key: op.Key, Value: undo.prior}
	case base.OpUpsert:
		if undo.found {
			return &base.Op{TC: op.TC, Kind: base.OpUpdate, Table: op.Table, Key: op.Key, Value: undo.prior}
		}
		return &base.Op{TC: op.TC, Kind: base.OpDelete, Table: op.Table, Key: op.Key}
	case base.OpDelete:
		return &base.Op{TC: op.TC, Kind: base.OpInsert, Table: op.Table, Key: op.Key, Value: undo.prior}
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
