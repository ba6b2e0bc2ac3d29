package tc

import (
	"context"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/wal"
)

// Shipping logged operations. Every operation that holds a TC-log record —
// a forward write, a finalize, an inverse (CLR), a restart resend — reaches
// its DC through deliver, the one implementation of the §4.2 contract:
// unique request IDs, idempotence at the DC, resend until acknowledged.
// It runs on the goroutine of whoever needs the acknowledgement: a
// transaction at its barrier, Abort and restart for inverses and resends.
//
// A write neither logs nor ships when it is called. The call takes the X
// lock — which freezes the key — answers what its kind must answer (Insert,
// Update and Delete check existence, so that every logged operation succeeds
// at the DC), records the new value in the transaction cache and joins the
// transaction's queue. Everything else happens at the transaction's next
// barrier: its commit, a read that bypasses its cache (scans,
// ReadCommitted/ReadDirty), or the queue reaching maxBatch. Txn.flush then
//
//  1. fetches, in one PerformBatch of reads per DC, every prior value the
//     cache could not supply when the write was accepted (the undo
//     information of §4.1.1; only unversioned Upserts of keys the
//     transaction never read need it) — reads like any other: no LSN, no
//     record, sent by Txn.sendUnlogged, nothing owed if they are abandoned;
//  2. appends the op records in call order — appended at the barrier, under
//     the lock, so the TC-log order is still an OPSR order; and
//  3. ships them, one batch per DC.
//
// So a transaction of n unversioned upserts costs two request/reply calls per
// DC however large n is (up to maxBatch), an abort before the first barrier
// costs none and logs nothing, and a write holds no LSN while its
// transaction idles or waits for a lock.
//
// What it allocates is sized once per transaction or once per batch, never
// once per key. The queue holds its operations by value, in a slab the first
// write allocates (Txn.slab: room for slabOps writes, their pre-reads and one
// DC's batch); every record payload is encoded into one scratch buffer, grown
// once to the computed size, because the log copies what it appends; the lock
// manager recycles its entries; and a DC answers a batch from one slab of
// results. The price is a rule of ownership, stated at base.Service: an
// operation is lent to the service for the call, a result is the caller's.
// TestWriteTxnAllocs holds the count (17 for four upserts and a commit, TC and
// in-process DC together), BenchmarkWriteTxn is where to profile.
//
// The rules that keep the barrier correct:
//
//   - Same-key order inside a transaction is queue order, which is log order,
//     which is batch order (one key routes to one DC, and a DC executes a
//     batch in order). Cross-transaction conflicts stay excluded by strict
//     2PL: finish() releases locks only after the last batch is acknowledged.
//     Point reads and existence checks of a key with a queued write never
//     reach the DC — x.cache answers them.
//   - The undo information is in the TC-log before the operation can reach
//     the DC, let alone become stable there (§4.1.1, §5.1): step 2 precedes
//     step 3. A crash after step 1 leaves restart nothing of the barrier; a
//     crash after step 2 is the state "logged, never sent" that restart has
//     always handled — redo delivers it, undo inverts losers.
//   - An orphan of a crashed incarnation dies at its next barrier (Txn.die)
//     before step 1. The check is a courtesy: one that slips past it while
//     the crash happens sends no pre-read in step 1 (or dies of its answer),
//     gets no LSN in step 2, and deliver sends nothing for a dead incarnation
//     in step 3.
//   - Another TC's ReadDirty/ScanDirty sees this transaction's uncommitted
//     versions from its next barrier on, not from the call that wrote them.
//
// Step 3 has one rule (Txn.ship): the transaction's own goroutine runs deliver,
// one call — one PerformBatch — per DC, and the barrier returns with the
// operations acknowledged. Nothing sits between a transaction and its DCs.
// Operations of different transactions never conflict while both are in
// flight (strict 2PL), which is all the order §4.2 asks of the wire, so
// concurrent committers each send their own frame.
//
// Cancellation. Everything up to the first log append honors the
// transaction's context; nothing after it does, because a logged operation
// abandoned half-delivered could be overtaken by its own inverse. Commit
// keeps both promises by choosing who runs the uncancellable part
// (Txn.commitLogged) from what it can observe: under a context that can
// never be cancelled it calls it; under one that can, it runs it on one
// goroutine and returns on whichever comes first, the result or the
// cancellation. A cancelled Commit so returns at once — ErrCommitAmbiguous,
// the transaction already marked done for its caller — while that goroutine
// sees the protocol through and only then releases the locks. It is not
// waited for by Close: like any caller parked in deliver it leaves when the
// DC answers, the TC stops or the stub closes.
//
// Two costs of having one path, accepted:
//
//   - The commit-record force does not overlap the write acknowledgements:
//     the writes are acknowledged, then the record is appended and forced.
//     No workload of the repo benchmark has a non-zero force, so the overlap
//     was never measured; should a contended workload show it, it returns as
//     a reordering inside commitLogged (commit record appended before the
//     ship, a failure after it reported ErrCommitAmbiguous), not as a mode.
//   - A scan's or unlocked read's barrier against a DC that is down cannot be
//     abandoned mid-ship: it is past its append, so it waits for the DC like
//     any logged operation.

// maxBatch caps the operations of one PerformBatch message: how many writes a
// transaction may queue (or finalize operations a commit may) before they
// leave ahead of the next barrier.
const maxBatch = 64

// ErrTCStopped is the fate of a logged operation whose delivery was
// abandoned because the TC was closed or crashed, or its DC stub closed,
// before the acknowledgement arrived. The operation itself is in the
// TC-log: recovery re-delivers or undoes it, so the error reports an
// interrupted session, not lost data. It folds into the taxonomy as a
// component-unavailable failure.
var ErrTCStopped = fmt.Errorf("tc: stopped with logged operations unacknowledged: %w", base.ErrUnavailable)

// deliver sends logged operations to one DC, as one message, and does not
// return until each is acknowledged or can never be: the §4.2 resend
// contract. It returns the first failure (nil when every operation was
// acknowledged OK).
//
// Every attempt is the live incarnation's: a delivery parked in the resend
// loop across a TC crash must not reach the DC — its records vanished with
// the unforced log tail, so executing it would apply writes no undo covers
// and record reused LSNs in the abstract-LSN tables (poisoning the restarted
// TC's idempotence checks). A call already on the wire when the crash hit is
// beyond this check's reach; the DC-side epoch fence installed by
// BeginRestart refuses it there (CodeStaleEpoch), closing the window end to
// end: the operations carry the dead incarnation's epoch, and whatever lands
// before the fence is up, BeginRestart sweeps.
//
// New operations wait at the DC's recovery gate; redo marks the resend
// stream of a restart (§5.3.2), which holds that gate and must pass it.
// CodeUnavailable (the DC is down, restarting or draining) triggers a paced
// resend of everything — per-operation idempotence at the DC absorbs
// re-execution of operations that did land. The only ways out of the loop
// are the incarnation dying, the TC stopping and the DC stub being closed;
// ctx carries values to the service and is never cancellable, because a
// logged operation abandoned half-delivered could be overtaken by its own
// inverse.
func (inc *incarnation) deliver(ctx context.Context, h *dcHandle, ops []*base.Op, redo bool) error {
	t := inc.tc
	var one [1]*base.Result
	backoff := 200 * time.Microsecond
	var pace pacer
	defer pace.stop()
	for {
		if !inc.log.Live() {
			return ErrTCStopped
		}
		if !redo {
			_ = h.waitReady(ctx) // ctx is never done
		}
		var results []*base.Result
		if len(ops) == 1 {
			one[0] = h.svc.Perform(ctx, ops[0])
			results = one[:]
		} else {
			results = h.svc.PerformBatch(ctx, ops)
		}
		t.opsSent.Add(uint64(len(ops)))
		unavailable := false
		for _, r := range results {
			if r == nil || r.Code == base.CodeUnavailable {
				unavailable = true
				break
			}
		}
		if !unavailable {
			return inc.complete(ops, results, redo)
		}
		// A closed wire client answers every call with CodeUnavailable
		// forever; retrying would wedge callers that its Close contract
		// ("fail outstanding calls") promises to unblock. Probe for it so
		// out-of-order shutdowns (stubs closed before the TC) still
		// terminate; a plain recovering DC keeps the resend loop.
		c, ok := h.svc.(interface{ Closed() bool })
		stopped := ok && c.Closed()
		if !stopped {
			select {
			case <-t.stopCh:
				stopped = true
			case <-pace.after(backoff):
			}
		}
		if stopped {
			return ErrTCStopped
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// pacer times every pause of one call that retries — a delivery parked
// against a down DC, a snapshot read waiting for a safe timestamp — with one
// timer: made by the first pause, stopped when the call leaves, so however
// long the call stays, it holds one timer and none is left waiting to fire.
type pacer struct{ t *time.Timer }

// after is time.After(d) on the call's timer; the previous pause has fired
// or been abandoned by a caller that is leaving.
func (p *pacer) after(d time.Duration) <-chan time.Time {
	if p.t == nil {
		p.t = time.NewTimer(d)
	} else {
		p.t.Reset(d)
	}
	return p.t.C
}

func (p *pacer) stop() {
	if p.t != nil {
		p.t.Stop()
	}
}

// firstErr keeps the first failure of a delivery.
func firstErr(first, err error) error {
	if first == nil {
		return err
	}
	return first
}

// complete feeds the ack tracker — the source of low-water marks — with the
// operations of an answered delivery and returns their first failure. The
// tracker is the incarnation's own, so a reply that lands after a crash feeds
// one nobody reads and cannot complete an LSN the successor is reusing; the
// delivery is reported interrupted all the same. A stale-epoch nack from the
// DC means the op never executed — the fence fired mid-flight — so its LSN
// must not complete either; it is a permanent failure.
func (inc *incarnation) complete(ops []*base.Op, results []*base.Result, redo bool) (first error) {
	if !inc.log.Live() {
		return ErrTCStopped
	}
	for i, op := range ops {
		code := results[i].Code
		var err error
		if code == base.CodeStaleEpoch {
			err = fmt.Errorf("tc: logged op fenced at DC: %v: %w", op, base.ErrStaleEpoch)
		} else {
			inc.acks.Complete(op.LSN)
			// Repeating history may find the effect already there (or
			// already gone); for a first delivery the pre-check + X-lock
			// invariant excludes every code but OK — surface loudly if it
			// is ever broken.
			if code != base.CodeOK && !(redo && (code == base.CodeDuplicate || code == base.CodeNotFound)) {
				err = fmt.Errorf("tc: logged op failed at DC: %v -> %v", op, code)
			}
		}
		first = firstErr(first, err)
	}
	return first
}

// deliverOne is deliver for a single operation.
func (inc *incarnation) deliverOne(ctx context.Context, h *dcHandle, op *base.Op, redo bool) error {
	one := [1]*base.Op{op}
	return inc.deliver(ctx, h, one[:], redo)
}

// flush is the transaction's write barrier: the writes queued since the last
// one are logged — appended at the barrier, under their X locks — and
// shipped, and flush returns with them acknowledged. It runs before every
// operation that must observe them at the DC (scans and unlocked reads bypass
// the transaction cache, so read-your-writes needs them applied; point reads
// never do, every write is recorded in the cache) and when the queue reaches
// maxBatch. Commit runs the same two halves itself; Abort drops the queue
// instead.
func (x *Txn) flush() error {
	if err := x.preRead(); err != nil {
		return err
	}
	if err := x.appendQueued(); err != nil {
		return err
	}
	return x.ship()
}

// preRead is the cancellable half of a write barrier: the orphan check and
// the batched read of missing undo images, under the transaction's context.
// A failed or cancelled pre-read has logged nothing and leaves the queue as
// it was.
func (x *Txn) preRead() error {
	if x.orphaned() {
		return x.die()
	}
	if len(x.queue) == 0 {
		return nil
	}
	return x.fetchPriors()
}

// fetchPriors is the barrier's pre-read: every prior value the cache could
// not supply when its write was accepted is read now, one PerformBatch of
// reads per DC, and filed with the queued write that needs it. The keys are
// X-locked, so what the DC returns is what the cache would have held; a key
// the transaction wrote more than once is read once, for its first write
// (the later ones found the earlier in the cache). Results go to the queue
// only — the cache already holds the values written. Nothing is logged yet,
// so the reads are unlogged operations like any other (Txn.sendUnlogged): they
// honor the transaction's context, and a failure — a crash of the incarnation
// under the round trip included — leaves a transaction that can still abort
// without a trace.
func (x *Txn) fetchPriors() error {
	t := x.tc
	for dcIdx := range t.dcs {
		reads := x.slab.reads[:0]
		for i := range x.queue {
			if q := &x.queue[i]; q.needPrior && q.dc == dcIdx {
				reads = append(reads, base.Op{TC: t.cfg.ID, Kind: base.OpRead,
					Table: q.op.Table, Key: q.op.Key, Flavor: base.ReadPlain})
			}
		}
		if len(reads) == 0 {
			continue
		}
		ops := x.slab.send[:0]
		for i := range reads {
			ops = append(ops, &reads[i])
		}
		_, results, err := x.sendUnlogged(dcIdx, nil, ops)
		if err != nil {
			return err
		}
		n := 0
		for i := range x.queue {
			q := &x.queue[i]
			if !q.needPrior || q.dc != dcIdx {
				continue
			}
			res := results[n]
			n++
			switch res.Code {
			case base.CodeOK:
				q.prior, q.priorFound, q.needPrior = res.Value, true, false
			case base.CodeNotFound:
				q.needPrior = false
			default:
				return fmt.Errorf("tc: read %s/%s: %w", q.op.Table, q.op.Key, res.Err())
			}
		}
	}
	return nil
}

// appendQueued logs the queued writes in call order — the same op record,
// undo information included, that a write used to append before it returned.
// The X locks are still held, so the TC-log order is an OPSR order exactly as
// when each call appended its own record. From here on delivery is no longer
// cancellable: the resend/redo contract must run to completion, or an
// abandoned forward operation could be overtaken by its own inverse on a
// reordering network. The only failure is the incarnation's death under the
// barrier: what it logged before the crash is restart's to redo and undo, the
// rest was never logged.
func (x *Txn) appendQueued() error {
	for i := range x.queue {
		q := &x.queue[i]
		x.enc = appendOpPayload(x.enc[:0], &q.op, q.prior, q.priorFound)
		if !x.inc.logOp(&q.op, &wal.Record{Kind: recOp, Txn: x.id, Prev: x.lastLSN, Payload: x.enc}) {
			return ErrTCStopped
		}
		// The record is in the log, so it is in the undo chain, whatever the
		// delivery goes on to report: redo will resend it, and an inverse of
		// a forward operation that never landed finds nothing to do.
		if x.firstLSN.Load() == 0 {
			x.firstLSN.Store(uint64(q.op.LSN))
		}
		x.lastLSN = q.op.LSN
	}
	return nil
}

// ship delivers the queue — logged, every operation of it — to the DCs its
// operations route to (resolved with dcIndex before each was accepted, so
// only routable operations consume logged LSNs) and empties it: one deliver
// call (one PerformBatch when there is more than one operation) per DC, in
// queue order, on the calling goroutine, one DC after the other. It returns
// the first failure. Delivery does not honor the transaction's cancellation,
// for the reason appendQueued gives.
func (x *Txn) ship() error {
	if len(x.queue) == 0 {
		return nil
	}
	// The transaction's context stripped of cancellation, made here because a
	// transaction that ships nothing needs none, and only of a context that
	// can be cancelled at all.
	ctx := x.ctx
	if ctx.Done() != nil {
		ctx = context.WithoutCancel(ctx)
	}
	var first error
	for dcIdx, h := range x.tc.dcs {
		ops := x.slab.send[:0]
		for i := range x.queue {
			if q := &x.queue[i]; q.dc == dcIdx {
				ops = append(ops, &q.op)
			}
		}
		if len(ops) > 0 {
			first = firstErr(first, x.inc.deliver(ctx, h, ops, false))
		}
	}
	x.queue = x.queue[:0]
	return first
}
