package tc

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
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
	// cross-TC read-committed readers. Versioned commits carry a commit
	// timestamp, which is what makes the writes visible to snapshot readers.
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

// cachedVal is the transaction's own copy of a key it holds a lock on: what
// it read, or — written — what it wrote, which no DC has seen before Commit.
type cachedVal struct {
	val     []byte
	found   bool
	written bool
}

// queued is one write of a transaction between being accepted and its
// commit, which logs and ships it. dc is the DC it routes to.
type queued struct {
	op base.Op
	dc int
}

// slabOps is how many writes a new scratch has room for in its writeSlab.
// Beyond that the queue grows by append's doubling, and the commit's records
// and send list once, to their final length; a scratch keeps what it grew to.
const slabOps = 8

// writeSlab is the storage a new scratch starts its write slices in: the
// queue, the records of the commit's log batch (the queue's, and the commit
// record), and the list of operations handed to one DC (Txn.ship sends to one
// DC at a time).
type writeSlab struct {
	queue [slabOps]queued
	recs  [slabOps + 1]wal.Record
	send  [slabOps]*base.Op
}

// txnScratch is everything a transaction uses on its own goroutine and nothing
// outlives it: the cache, the queue and what its commit builds from it, the
// payload buffer of the commit's log batch and the operation sent alone. Begin
// takes one from scratchPool and finish gives it back, cleared; nothing else
// does. So a transaction that dies as an orphan, or whose commit ends
// ambiguous, leaves its scratch to the collector, and the finisher of a
// cancelled Commit keeps it until its own finish. An operation lent from here
// to a base.Service is the next transaction's once the call has returned and
// the transaction finished.
type txnScratch struct {
	// cache holds values read or written under locks this transaction
	// already holds; locked values cannot change underfoot (strict 2PL),
	// so cached copies are authoritative and spare read-before-write
	// round trips to the DC.
	cache map[tableKey]cachedVal
	// queue holds the writes accepted so far, in call order: X lock held,
	// cache updated, nothing logged and no LSN taken yet. Commit logs and
	// ships it; Abort drops it.
	queue []queued
	// recs and send are what the commit builds from the queue: the records of
	// its log batch, and the operations of the queue handed to one DC. An
	// operation in send is its commit's: the base.Service it is sent to must
	// be done with it when the call returns.
	recs []wal.Record
	send []*base.Op
	// enc is where the record payloads of the commit's log batch are
	// encoded, back to back. The log copies them as it appends
	// (wal.AppendBatch), so enc is free again when the append returns, for
	// the next transaction.
	enc []byte
	// wrote is how many writes the transaction queued: as much of queue, recs
	// and send as release clears.
	wrote int
	// bulk is a cache map a transaction grew past slabOps keys, kept aside
	// and empty: a map never shrinks, so a small transaction keeps to the
	// small map cache starts as, and one that outgrows it moves into bulk
	// (remember) instead of growing a map again. nil until a transaction of
	// this scratch first grew its cache.
	bulk map[tableKey]cachedVal
	// slab is where queue, recs and send start.
	slab writeSlab
	// one is the operation Txn.sendOne sends, as the batch oneOps.
	one    base.Op
	oneOps [1]*base.Op
}

// A scratch is kept whatever it grew to for a bulk commit, up to maxKeptWrites
// writes — its queue's capacity or its cache's keys — and maxKeptEnc bytes of
// payload (a quarter of a KiB a write), so the next bulk commit finds its
// queue, records, send list, payload buffer and cache map grown already. A
// scratch past either is left to the collector instead, as a wire connection
// drops an outsized buffer. A kept scratch costs a small transaction nothing:
// it keeps to the small cache map and to the first entries of the grown
// slices, and release clears only those.
const (
	maxKeptWrites = 4 * maxBatch
	maxKeptEnc    = maxKeptWrites << 8
)

var scratchPool = sync.Pool{New: func() any {
	s := &txnScratch{cache: make(map[tableKey]cachedVal, slabOps)}
	s.queue, s.recs, s.send = s.slab.queue[:0], s.slab.recs[:0], s.slab.send[:0]
	s.oneOps[0] = &s.one
	return s
}}

// release clears s — so no user value, DC result or key stays reachable from
// the pool — and gives it back, or leaves it to the collector when it grew
// past maxKeptWrites or maxKeptEnc. Only Txn.finish calls it.
func (s *txnScratch) release() {
	if cap(s.queue) > maxKeptWrites || len(s.cache) > maxKeptWrites || cap(s.enc) > maxKeptEnc {
		return
	}
	grown := len(s.cache) > slabOps // the transaction moved into bulk, or grew cache into one
	clear(s.cache)
	if grown {
		if s.bulk == nil {
			s.bulk = make(map[tableKey]cachedVal, slabOps)
		}
		s.cache, s.bulk = s.bulk, s.cache
	}
	clear(s.queue[:s.wrote])
	clear(s.recs[:min(s.wrote+1, cap(s.recs))])
	clear(s.send[:min(s.wrote, cap(s.send))])
	s.queue, s.wrote = s.queue[:0], 0
	s.one = base.Op{}
	scratchPool.Put(s)
}

// remember caches v as the value of k. A cache that k would grow past
// slabOps keys moves into the scratch's bulk map first, when it has one.
func (s *txnScratch) remember(k tableKey, v cachedVal) {
	if len(s.cache) == slabOps && s.bulk != nil {
		if _, ok := s.cache[k]; !ok {
			maps.Copy(s.bulk, s.cache)
			clear(s.cache)
			s.cache, s.bulk = s.bulk, s.cache
		}
	}
	s.cache[k] = v
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
	// a crash destroys — locks, the count of transactions, acks, timestamps,
	// the right to log — is reached through it and nowhere else.
	inc   *incarnation
	ctx   context.Context
	opts  TxnOptions
	id    base.TxnID
	state txnState
	// locked: the transaction asked the lock table for a lock (Txn.lock), so
	// finish has locks to release there. A snapshot reader never does.
	locked bool
	// txnScratch is the transaction's from Begin to finish; nil before (a
	// transaction begun while the TC was down has none) and after.
	*txnScratch
	// snapTS is the snapshot read timestamp (nonzero only for snapshot
	// transactions): every read is served by the DC at this timestamp.
	snapTS base.TS
	// commitTS is the commit timestamp a versioned transaction's Commit
	// assigns and stamps on its writes; it holds the TC's safe timestamp
	// down until the commit record is forced.
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
	x.id = base.TxnID(inc.nextTxn.Add(1))
	inc.active.Add(1)
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
	x.locked = true
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

// die is an orphan's exit, from a failed lock wait, a read, Commit or Abort.
// The transaction has logged nothing — only its commit logs, and it is past
// that — so it has nothing to roll back, and the locks and registrations it
// still holds are in tables that died with the incarnation. It drops what it
// queued and reports a transient failure, as does every later call on it.
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
	res, err := x.sendOne(idx, base.Op{TC: x.tc.cfg.ID, Kind: base.OpRead, Table: table, Key: key, Flavor: flavor})
	if err == nil && res.Code != base.CodeOK && res.Code != base.CodeNotFound {
		err = res.Err()
	}
	if err != nil {
		return nil, false, fmt.Errorf("tc: read %s/%s: %w", table, key, err)
	}
	found := res.Code == base.CodeOK
	if cache {
		x.remember(tableKey{table, key}, cachedVal{val: res.Value, found: found})
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

// sendUnlogged is the one way operations without a log record — a point
// read, a scan probe, a range read — leave the TC:
// ops, all one DC's, as one PerformBatch to DC idx. (Operations that do hold a
// record go through deliver.) Such an operation carries no request ID: its
// LSN stays zero, because the DC has nothing to recognise — a read is
// idempotent, so a resent frame just runs again, and it is never redone — so
// it takes nothing from the log, owes the ack tracker nothing, and the
// low-water mark never waits for it.
//
// The sender stamps what is the transaction's to give: the incarnation's
// epoch and, on a snapshot-flavored read, the snapshot timestamp. A dead
// incarnation sends nothing, and an answer that straddled the crash —
// the DC's epoch fence refuses the operation once the successor has announced
// itself (CodeStaleEpoch) — is the crash's, not a verdict on the request: the
// transaction dies (transient ErrTCStopped) instead of
// passing on the fence's permanent ErrStaleEpoch. New operations wait at the
// DC's recovery gate, and that wait, like the call, is the transaction's
// context's to cut short. A CodeStaleDC — the DC restarted, and this TC owes
// it its resend — starts the resend as deliver does, and the operations are
// sent again once it has ended.
//
// A snapshot read — recognised as the DC recognises it, by flavor and
// timestamp, and sent alone — is answered CodeUnavailable when the DC gave up
// waiting for some TC's safe timestamp to cover it (a TC partitioned or
// down); it is sent again after a pause, bounded only by the caller's
// context, because the condition clears as soon as the lagging TC's
// broadcasts resume. Every other batch is sent until no CodeStaleDC answers
// it, and counted: Stats.OpsSent is every operation handed to a DC except
// snapshot reads, whose transactions cost their TC a timestamp and nothing
// else.
func (x *Txn) sendUnlogged(idx int, ops []*base.Op) ([]*base.Result, error) {
	h := x.tc.dcs[idx]
	for _, o := range ops {
		o.Epoch = x.inc.epoch
		if o.Flavor == base.ReadSnapshot {
			o.TS = x.snapTS
		}
	}
	snapshot := ops[0].Flavor == base.ReadSnapshot && ops[0].TS != 0
	var pause pacer
	defer pause.stop()
	for {
		if x.orphaned() {
			return nil, x.die()
		}
		if err := h.waitReady(x.ctx); err != nil {
			return nil, err
		}
		if !snapshot {
			x.tc.opsSent.Add(uint64(len(ops)))
		}
		results := h.svc.PerformBatch(x.ctx, ops)
		switch {
		case x.orphaned():
			return nil, x.die()
		case x.ctx.Err() != nil:
			// Whatever the answer says: a wait abandoned under way reports
			// CodeCancelled, and this carries the context's own error.
			return nil, base.CancelErr(x.ctx)
		case staleDC(results) != 0:
			x.inc.startResend(idx)
		case !snapshot || !unavailable(results):
			return results, nil
		}
		select {
		case <-pause.after(10 * time.Millisecond):
		case <-x.ctx.Done():
			return nil, base.CancelErr(x.ctx)
		}
	}
}

// sendOne is sendUnlogged of op alone, a batch of one in the scratch.
func (x *Txn) sendOne(idx int, op base.Op) (*base.Result, error) {
	x.one = op
	results, err := x.sendUnlogged(idx, x.oneOps[:])
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// ReadCommitted reads the last committed version of a key that may belong
// to another TC's update partition. It takes no locks and never blocks:
// versioned data makes this safe (§6.2.2). The transaction's own writes are
// answered as the DC would answer them once they were there (see seesOwn).
func (x *Txn) ReadCommitted(table, key string) ([]byte, bool, error) {
	return x.readUnlocked(table, key, base.ReadCommitted)
}

// ReadDirty reads the latest version without locking (§6.2.1): this
// transaction's own writes from its cache, everything else from the DC.
// "Latest" is what has reached the DC, and a transaction's writes reach a DC
// only once its commit record is stable, so another transaction's writes
// show only once they are committed in its TC's log: still locked, maybe
// not yet at every DC, and for a versioned write maybe not yet covered by
// its TC's safe timestamp, under which ReadCommitted still reads the before
// version.
func (x *Txn) ReadDirty(table, key string) ([]byte, bool, error) {
	return x.readUnlocked(table, key, base.ReadDirty)
}

// readUnlocked is a point read that bypasses locks and the transaction
// cache, except for a key the transaction wrote, whose value no DC has yet.
func (x *Txn) readUnlocked(table, key string, flavor base.ReadFlavor) ([]byte, bool, error) {
	if err := doneErr[x.state]; err != nil {
		return nil, false, err
	}
	if c, ok := x.cache[tableKey{table, key}]; ok && c.written && x.seesOwn(flavor) {
		return c.val, c.found, nil
	}
	return x.readOp(table, key, flavor, false)
}

// seesOwn reports whether a read of flavor sees the transaction's own writes,
// as it would were they at the DC: a plain or dirty read sees the latest
// version, and so does a committed read of an unversioned write, which keeps
// no before version; a committed read of a versioned write sees the version
// before it, which is the DC's.
func (x *Txn) seesOwn(flavor base.ReadFlavor) bool {
	return flavor != base.ReadCommitted || !x.opts.Versioned
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
// write joins the transaction's queue — it is logged and shipped at Commit,
// not here. From this call on the transaction cache is the authority for the
// key: every later read of it by this transaction is answered there, never
// by a DC that has not seen the write. Insert, Update and Delete read the
// key through the cache for their answer (one DC call when the cache is
// cold); Upsert's answer does not depend on it, so it reads nothing.
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
	if kind != base.OpUpsert {
		// Checked here so that every logged operation succeeds at the DC.
		_, found, err := x.valueOf(table, key)
		switch {
		case err != nil:
			return err
		case kind == base.OpInsert && found:
			return ErrDuplicate
		case kind != base.OpInsert && !found:
			return ErrNotFound
		}
	}
	x.queue = append(x.queue, queued{dc: dcIdx, op: base.Op{TC: x.tc.cfg.ID, Kind: kind,
		Table: table, Key: key, Value: val, Versioned: x.opts.Versioned}})
	x.wrote = len(x.queue)
	x.remember(tableKey{table, key}, cachedVal{val: val, found: kind != base.OpDelete, written: true})
	return nil
}

// ErrCommitAmbiguous marks a Commit that failed after the commit record
// was appended: the transaction's outcome is decided by the log (a winner
// if the record reaches stability, lost otherwise), not by this error.
// Callers must NOT re-execute the transaction on it — re-running could
// apply its effects twice — even when the underlying failure (a closed
// component, a cancelled wait) would otherwise classify as transient.
var ErrCommitAmbiguous = errors.New("tc: commit outcome decided by the log, not by this error")

// Commit makes the transaction durable: log its writes — a versioned
// transaction's stamped with its commit timestamp (§6.2.2) — and its commit
// record as one batch, force the batch (group commit), ship the writes, then
// release locks (strict two-phase locking). No two-phase commit, and no second
// message to eliminate the before versions: a DC takes a stamped version for
// committed once the TC's safe timestamp passes its timestamp.
//
// It is the one point at which a transaction's writes leave, and their
// records carry no undo image, because they are stable exactly when the
// commit record is (deferred update; Bernstein, Hadzilacos & Goodman 1987,
// ch. 6). A crash that loses the batch loses the transaction, of which no DC
// has seen anything: the ship follows the force. So a
// transaction costs one round trip per DC for every maxBatch of its writes
// there.
//
// The part of Commit that can still be given up runs here, under the
// transaction's context: the orphan check and the context's own. A failure
// there has logged nothing and is a clean abort. Everything from the log
// append on is commitLogged, which never consults the context.
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
	if len(x.queue) == 0 {
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
		x.state = txnAborted // commitLogged dropped it
	}
	return err
}

// commitLogged is Commit from the log append to the lock release, one
// straight line that no cancellation interrupts: stamp a versioned
// transaction's writes with its commit timestamp; append the writes' records
// and the commit record as one batch; force the batch; publish the new stable
// boundary; ship the writes, one batch per DC; release the locks and the
// commit timestamp. So a write reaches a DC only once its record is stable,
// and a TC crash never leaves a DC holding a write its restart does not redo.
// Only a refused append — the incarnation died first — is a plain failure:
// nothing of the batch is logged. Any failure after it is reported wrapping
// ErrCommitAmbiguous, with the locks held, because the commit record is in
// the log and the outcome is the log's: restart treats a transaction whose
// commit record is stable as a winner and re-delivers its logged operations,
// and one whose batch is lost as never having written it. A failed ship ends
// the incarnation if the crash of the TC has not already (TC.end), so a live
// TC never holds a winner whose writes it did not deliver.
//
// It may run on the finisher goroutine of a cancelled Commit, so it leaves
// x.state — all the caller's goroutine still reads — alone.
func (x *Txn) commitLogged() error {
	t, inc := x.tc, x.inc
	if x.opts.Versioned {
		// Commit is the lock point: the transaction holds every lock it will
		// take, so its commit timestamp, the snapshot visibility point of its
		// versioned writes, is drawn here and rides them. It is logged once,
		// in the commit record, which closes the writes' records in the log:
		// redo stamps them from it, and restart re-seeds the allocator above
		// it.
		x.commitTS = inc.assignCommitTS()
		for i := range x.queue {
			x.queue[i].op.TS = x.commitTS
		}
	}
	cLSN, err := x.appendQueued()
	if err != nil {
		// The incarnation died before the batch: nothing to release but dead
		// tables.
		x.rollback()
		return fmt.Errorf("tc: commit txn %d: %w", x.id, err)
	}
	if !inc.log.ForceTo(cLSN) {
		// It died under the force: whether the batch reached the stable log
		// first is the log's to say, and restart reads it there. No DC holds
		// any of it.
		return fmt.Errorf("tc: commit txn %d: %w: %w", x.id, ErrCommitAmbiguous, ErrTCStopped)
	}
	// Publish the new stable boundary. No frame is sent for it — it rides
	// the ship below toward each DC it writes to, and this TC's next request
	// or tick toward the others.
	inc.publishStable()
	if err := x.ship(); err != nil {
		// The transaction is a winner in the stable log, which this
		// incarnation can no longer deliver. If it still lives — a closed TC
		// or stub, a refusal at the DC — it ends here: restart's redo
		// delivers the writes.
		t.end(inc)
		return fmt.Errorf("tc: commit txn %d: %w: %w", x.id, ErrCommitAmbiguous, err)
	}
	t.commits.Add(1)
	x.finish()
	return nil
}

// finish releases the transaction's locks, if it took any, and drops it from
// the count of active transactions: the 2PL release point. Runs exactly once
// per transaction, as the last step of commitLogged or rollback. It also
// releases the transaction's timestamp registrations: the snapshot pin on the
// GC horizon, and the outstanding commit timestamp (every path reaching
// finish after a commit has the stamped writes acknowledged and the commit
// record forced, so the safe timestamp may now pass it; one whose append was
// refused stamped nothing that left). All of it in the transaction's own
// incarnation: an orphan's finish lands in dead tables, never on a
// successor's transaction of the same id. Last, it gives the transaction's
// scratch back: every call that was lent an operation from it has returned.
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
	if x.locked {
		inc.locks.ReleaseAll(x.id)
	}
	inc.active.Add(-1)
	s := x.txnScratch
	x.txnScratch = nil
	s.release()
}

// Abort rolls the transaction back (§4.1.1(2b)) and releases its locks. Its
// writes were never logged or shipped — only Commit does either — so the
// rollback is dropping them: nothing is sent, and nothing is appended, not
// even an abort record. An orphan's Abort is its death (die).
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

// rollback drops the queued writes with the scratch and releases the locks.
func (x *Txn) rollback() {
	x.finish()
	x.tc.aborts.Add(1)
}

// Scan reads [lo, hi) in this TC's partition with full locking. Of the §3.1
// range protocols fetch-ahead is the one implemented; static range locks are
// not. hi == "" scans to the end of the table's partition; limit <= 0 means
// unlimited. The transaction's own writes in the range are in the answer as
// they would be were they at the DC (see rangeRead).
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
	return x.fetchAheadScan(table, lo, hi, limit)
}

// fetchAheadScan implements the §3.1 fetch-ahead protocol: speculatively
// probe for the keys in the range, lock them, then read; if the read
// returns keys that were not locked, the read doubles as the next probe. The
// keys the transaction wrote are X-locked already.
func (x *Txn) fetchAheadScan(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	idx, err := x.route(table, lo)
	if err != nil {
		return nil, nil, err
	}
	own := x.ownIn(idx, table, lo, hi, base.ReadPlain)
	locked := make(map[string]bool, len(own))
	for _, k := range own {
		locked[k] = true
	}
	probeLimit := limit
	if limit <= 0 || limit > probeWidth {
		probeLimit = probeWidth
	}
	// Initial speculative probe.
	x.tc.probes.Add(1)
	probe, err := x.rangeOp(idx, base.OpScanProbe, table, lo, hi, probeLimit, base.ReadPlain)
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
		keys, vals, err := x.rangeRead(idx, own, table, lo, hi, limit, base.ReadPlain)
		if err != nil {
			return nil, nil, err
		}
		// Should the records read differ from the ones locked, this read
		// becomes the next speculative probe (§3.1).
		stable := true
		for _, k := range keys {
			if !locked[k] {
				stable = false
				break
			}
		}
		if stable {
			return keys, vals, nil
		}
		toLock = keys
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
	idx, err := x.route(table, lo)
	if err != nil {
		return nil, nil, err
	}
	return x.rangeRead(idx, x.ownIn(idx, table, lo, hi, flavor), table, lo, hi, limit, flavor)
}

// ownIn returns, sorted and each once, the keys of table in [lo, hi) that the
// transaction wrote and that route to DC idx, if a read of flavor sees them
// (seesOwn); only those could be in that DC's answer, were they there.
func (x *Txn) ownIn(idx int, table, lo, hi string, flavor base.ReadFlavor) []string {
	if !x.seesOwn(flavor) {
		return nil
	}
	var own []string
	for i := range x.queue {
		if q := &x.queue[i]; q.dc == idx && q.op.Table == table && q.op.Key >= lo && (hi == "" || q.op.Key < hi) {
			own = append(own, q.op.Key)
		}
	}
	slices.Sort(own)
	return slices.Compact(own)
}

// rangeRead is one range read of [lo, hi) at DC idx with the transaction's
// own writes there, own (see ownIn), merged over the DC's answer: a written
// key takes its value from the cache, or leaves the answer if the
// transaction deleted it, and a written key the DC lacks joins it. A limited
// read asks the DC for len(own) keys more than limit, as many as the
// transaction's deletes can take out, so the first limit keys of the merge
// are the first limit keys of the range as it would be with the writes
// applied.
func (x *Txn) rangeRead(idx int, own []string, table, lo, hi string, limit int, flavor base.ReadFlavor) ([]string, [][]byte, error) {
	ask := limit
	if limit > 0 {
		ask += len(own)
	}
	res, err := x.rangeOp(idx, base.OpRangeRead, table, lo, hi, ask, flavor)
	if err != nil {
		return nil, nil, err
	}
	if len(own) == 0 {
		return res.Keys, res.Values, nil
	}
	var keys []string
	var vals [][]byte
	i, j := 0, 0
	for (i < len(res.Keys) || j < len(own)) && (limit <= 0 || len(keys) < limit) {
		if j == len(own) || i < len(res.Keys) && res.Keys[i] < own[j] {
			keys, vals = append(keys, res.Keys[i]), append(vals, res.Values[i])
			i++
			continue
		}
		if i < len(res.Keys) && res.Keys[i] == own[j] {
			i++
		}
		if c := x.cache[tableKey{table, own[j]}]; c.found {
			keys, vals = append(keys, own[j]), append(vals, c.val)
		}
		j++
	}
	return keys, vals, nil
}

// rangeOp issues one operation over [lo, hi) to DC idx — a range read of the
// given flavor, or a scan probe. The range protocols scan within one table
// partition, the one the low key routes to. Any answer but CodeOK is its
// error.
func (x *Txn) rangeOp(idx int, kind base.OpKind, table, lo, hi string, limit int, flavor base.ReadFlavor) (*base.Result, error) {
	res, err := x.sendOne(idx, base.Op{TC: x.tc.cfg.ID, Kind: kind, Table: table,
		Key: lo, EndKey: hi, Limit: int32(limit), Flavor: flavor})
	if err == nil {
		err = res.Err()
	}
	return res, err
}
