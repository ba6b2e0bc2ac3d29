package tc

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/wal"
)

// Shipping logged operations. Every operation that holds a TC-log record —
// a transaction's write at its commit, a restart resend — reaches its DC
// through deliver, the one implementation of the §4.2 contract: unique
// request IDs, idempotence at the DC, resend until acknowledged. It runs on
// the goroutine of whoever needs the acknowledgement: a committing
// transaction, or a resend for its redo.
//
// A write neither logs nor ships when it is called. The call takes the X
// lock — which freezes the key — answers what its kind must answer (Insert,
// Update and Delete check existence, so that every logged operation succeeds
// at the DC), records the new value in the transaction cache and joins the
// transaction's queue. Everything else happens at Commit, and at no other
// point: a read that bypasses the cache — a scan, ReadCommitted/ReadDirty —
// merges the transaction's own writes over its DC's answer instead
// (Txn.rangeRead), and Abort drops the queue. Commit (Txn.commitLogged)
//
//  1. appends the queued writes' records in call order and the commit record
//     as one log batch — under the locks, so the TC-log order is still an
//     OPSR order — which the log makes stable whole or not at all
//     (wal.Generation.AppendBatch);
//  2. forces the batch; and
//  3. ships the writes, one batch per DC and window of maxBatch.
//
// This is the TC's side of the §4.2 contract, narrowed: a logged operation
// reaches a DC only once it is stable in its TC's log. The paper lets a TC
// send earlier and makes the DC keep causality — hold back a page until the
// TC's end of stable log covers it, and undo a failed TC's lost operations at
// its restart. Shipping after the force leaves the DC nothing to hold back
// and nothing to undo.
//
// An op record carries its operation and nothing else (§4.1.1): no undo
// information, since it is stable exactly when its transaction's commit
// record is, so it is never a loser's and nothing ever inverts it; and no
// transaction id or commit timestamp, which the commit record that ends its
// batch holds once for all of them. So a transaction of n writes logs n
// records and ships them in one call per DC for every maxBatch of them,
// versioned or not (a versioned one's writes are shipped stamped with its
// commit timestamp); an abort costs nothing and logs nothing, and a write
// holds no LSN while its transaction idles or waits for a lock.
//
// What it allocates per transaction is only what outlives the transaction.
// Everything it uses on its own goroutine is its scratch (txnScratch), taken
// from a pool at Begin and given back, cleared, by finish: the cache map, the
// queue — operations held by value, starting in a slab with room for slabOps
// writes, their log records and one DC's batch — and the one buffer every
// payload of the log batch is encoded into, grown once to the computed size,
// because the log copies what it appends. A scratch keeps what a bulk commit
// grew it to (maxKeptWrites), so the next bulk commit grows nothing. The lock
// manager recycles its entries, and a DC answers a batch from one slab of
// results. The price is a rule of ownership, stated at base.Service: an
// operation is lent to the service for the call — once the transaction has
// finished it is another transaction's — and a result is the caller's.
// TestWriteTxnAllocs bounds the count (at most 10 for four upserts and a
// commit, TC and in-process DC together) and the bytes (at most 2 560),
// TestBulkCommitAllocs a bulk commit's, TestRecycledScratchStartsEmpty and
// TestCancelledCommitKeepsItsScratch the reuse, and BenchmarkWriteTxn is
// where to profile.
//
// The rules that keep the commit correct:
//
//   - Same-key order inside a transaction is queue order, which is log order,
//     which is batch order (one key routes to one DC, and a DC executes a
//     batch in order). Cross-transaction conflicts stay excluded by strict
//     2PL: finish() releases locks only after the last batch is acknowledged
//     and the commit record is stable. Reads of a key the transaction wrote
//     never reach the DC — x.cache answers them.
//   - The record is stable in the TC-log before the operation can reach the
//     DC (§4.1.1, §5.1): step 2 precedes step 3. A crash before step 3 is the
//     state "logged, never sent" that restart handles: if the batch is
//     stable the transaction is a winner and redo delivers it, and if not,
//     no DC has seen any of it.
//   - An orphan of a crashed incarnation dies at Commit (Txn.die) before step
//     1. The check is a courtesy: one that slips past it while the crash
//     happens gets no LSN in step 1, and deliver sends nothing for a dead
//     incarnation in step 3.
//   - Another TC's ReadDirty/ScanDirty sees this transaction's writes from
//     step 3 on: committed in the log, their locks still held.
//
// Step 3 has one rule (Txn.ship): the transaction's own goroutine runs deliver,
// one call per DC — one PerformBatch per window — and the commit goes on
// with the operations acknowledged. Nothing sits between a transaction and
// its DCs. Operations of different transactions never conflict while both
// are in flight (strict 2PL), which is all the order §4.2 asks of the wire,
// so concurrent committers each send their own frame.
//
// Cancellation. Everything up to the log append honors the transaction's
// context; nothing after it does, because the outcome of a transaction whose
// commit record is logged is the log's, and its writes must reach their DCs
// or the incarnation end. Commit keeps both promises by choosing who runs the
// uncancellable part (Txn.commitLogged) from what it can observe: under a
// context that can never be cancelled it calls it; under one that can, it
// runs it on one goroutine and returns on whichever comes first, the result
// or the cancellation. A cancelled Commit so returns at once —
// ErrCommitAmbiguous, the transaction already marked done for its caller —
// while that goroutine sees the protocol through and only then releases the
// locks. It is not waited for by Close: like any caller parked in deliver it
// leaves when the DC answers, the TC stops or the stub closes.
//
// One cost of having one path, accepted: a commit whose ship fails is
// ambiguous to its caller. Its commit record is stable, so restart's redo
// delivers it, and the locks stay held, as after a failed force. A
// ship fails when the incarnation dies under it, the TC or the DC stub is
// closed, or the DC refuses a write (complete: a fence, or a code the
// pre-checks exclude); in all but the first the incarnation still lives, and
// the commit ends it (TC.end) — a TC crash, which the next Recover repairs —
// so that no live TC holds a winner whose writes it never delivered.

// maxBatch caps the operations of one PerformBatch message: deliver ships
// longer lists in windows of it. It bounds a frame, not a transaction: a
// queue of any length waits for its commit.
const maxBatch = 64

// ErrTCStopped is the fate of a logged operation whose delivery was
// abandoned because the TC was closed or crashed, or its DC stub closed,
// before the acknowledgement arrived. The operation itself is in the
// TC-log: recovery re-delivers or drops it, so the error reports an
// interrupted session, not lost data. It folds into the taxonomy as a
// component-unavailable failure.
var ErrTCStopped = fmt.Errorf("tc: stopped with logged operations unacknowledged: %w", base.ErrUnavailable)

// deliver sends logged operations to one DC, in order, one message per window
// of maxBatch, and does not return until each is acknowledged or can never
// be: the §4.2 resend contract. It stops at the first window that fails and
// returns that window's first failure (nil when every operation was
// acknowledged OK).
func (inc *incarnation) deliver(ctx context.Context, idx int, ops []*base.Op, bracket bool) error {
	for len(ops) > 0 {
		n := min(len(ops), maxBatch)
		if err := inc.deliverWindow(ctx, idx, ops[:n], bracket); err != nil {
			return err
		}
		ops = ops[n:]
	}
	return nil
}

// deliverWindow is deliver for one window, sent as one message.
//
// Every attempt is the live incarnation's: once it has died, the delivery
// ends, and its restart's redo delivers the operations, which are stable. A
// call already on the wire when the crash hit is beyond this check's reach:
// it lands before the DC's epoch fence goes up (BeginRestart), and the redo
// finds it applied, or the fence refuses it (CodeStaleEpoch).
//
// New operations wait at the DC's recovery gate, and a CodeStaleDC — the DC
// restarted, and this TC owes it its resend — starts the resend (or asks the
// running one to go again) and sends again once it has ended. The
// operations of a resend bracket (bracket) pass the gate its resend holds
// and are stamped with the DC incarnation the bracket is bound to, learnt
// from the first CodeStaleDC; a CodeStaleDC that answers a stamped operation
// means the DC restarted again, and the delivery gives up with
// errDCRestarted for its resend to start over. CodeUnavailable (the DC is
// down, restarting or draining) triggers a paced resend of everything —
// per-operation idempotence at the DC absorbs re-execution of operations
// that did land. The only other ways out of the loop are the incarnation
// dying, the TC stopping and the DC stub being closed; ctx carries values to
// the service and is never cancellable, because a logged operation is
// delivered or its incarnation ends.
func (inc *incarnation) deliverWindow(ctx context.Context, idx int, ops []*base.Op, bracket bool) error {
	t := inc.tc
	h := t.dcs[idx]
	backoff := 200 * time.Microsecond
	var pace pacer
	defer pace.stop()
	for {
		if !inc.log.Live() {
			return ErrTCStopped
		}
		if bracket {
			for _, op := range ops {
				op.DCInc = base.DCInc(inc.bound[idx].Load())
			}
		} else {
			_ = h.waitReady(ctx) // ctx is never done
		}
		results := h.svc.PerformBatch(ctx, ops)
		t.opsSent.Add(uint64(len(ops)))
		stale := staleDC(results)
		switch {
		case stale != 0 && bracket:
			if !inc.bound[idx].CompareAndSwap(0, uint64(stale)) {
				return errDCRestarted
			}
			continue // stamped now
		case stale != 0:
			inc.startResend(idx)
		case !unavailable(results):
			return inc.complete(ops, results, bracket)
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
func (inc *incarnation) complete(ops []*base.Op, results []*base.Result, bracket bool) (first error) {
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
			// Repeating history (a resend bracket) may find the effect
			// already there (or already gone); for a first delivery the
			// pre-check + X-lock invariant excludes every code but OK —
			// surface loudly if it is ever broken.
			if code != base.CodeOK && !(bracket && (code == base.CodeDuplicate || code == base.CodeNotFound)) {
				err = fmt.Errorf("tc: logged op failed at DC: %v -> %v", op, code)
			}
		}
		first = firstErr(first, err)
	}
	return first
}

// unavailable reports whether any of results is missing or CodeUnavailable.
func unavailable(results []*base.Result) bool {
	return slices.ContainsFunc(results, func(r *base.Result) bool { return r == nil || r.Code == base.CodeUnavailable })
}

// staleDC returns the DC incarnation the first CodeStaleDC among results
// names, zero if there is none.
func staleDC(results []*base.Result) base.DCInc {
	for _, r := range results {
		if r != nil && r.Code == base.CodeStaleDC {
			return r.DCInc
		}
	}
	return 0
}

// appendQueued logs the queued writes in call order and the commit record
// as one batch, each write's record stable exactly when the commit record is,
// and returns the commit record's LSN. The X locks are still held, so the
// TC-log order is an OPSR order exactly as when each call appended its own
// record. From here on delivery is no longer cancellable: the outcome is the
// log's. The only failure is the incarnation's death before the batch, which
// then logs nothing.
func (x *Txn) appendQueued() (base.LSN, error) {
	size := binary.MaxVarintLen64 // the commit payload
	for i := range x.queue {
		size += opPayloadLen(&x.queue[i].op)
	}
	x.enc = slices.Grow(x.enc[:0], size) // so every payload below is a slice of one buffer
	recs := slices.Grow(x.recs[:0], len(x.queue)+1)
	for i := range x.queue {
		start := len(x.enc)
		x.enc = appendOpPayload(x.enc, &x.queue[i].op)
		recs = append(recs, wal.Record{Kind: recOp, Payload: x.enc[start:]})
	}
	start := len(x.enc)
	x.enc = appendCommit(x.enc, x.commitTS)
	recs = append(recs, wal.Record{Kind: recCommit, Txn: x.id, Payload: x.enc[start:]})
	x.recs = recs // kept grown, cleared by release
	first := x.inc.log.AppendBatch(recs)
	if first == 0 {
		return 0, ErrTCStopped
	}
	for i := range x.queue {
		x.queue[i].op.Epoch, x.queue[i].op.LSN = x.inc.epoch, first+base.LSN(i)
	}
	cLSN := first + base.LSN(len(x.queue))
	x.inc.acks.Complete(cLSN) // the commit record needs no DC round trip
	return cLSN, nil
}

// ship delivers the queue — logged, every operation of it — to the DCs its
// operations route to (resolved with dcIndex before each was accepted, so
// only routable operations consume logged LSNs) and empties it: one deliver
// call per DC (one PerformBatch per window of maxBatch), in queue order, on
// the calling goroutine, one DC after the other. It returns the first
// failure. Delivery does not honor the transaction's cancellation, for the
// reason appendQueued gives.
func (x *Txn) ship() error {
	// The transaction's context stripped of cancellation, made only of a
	// context that can be cancelled at all.
	ctx := x.ctx
	if ctx.Done() != nil {
		ctx = context.WithoutCancel(ctx)
	}
	var first error
	ops := slices.Grow(x.send[:0], len(x.queue)) // room for any one DC's list
	x.send = ops                                 // kept grown, cleared by release
	for dcIdx := range x.tc.dcs {
		ops = ops[:0]
		for i := range x.queue {
			if q := &x.queue[i]; q.dc == dcIdx {
				ops = append(ops, &q.op)
			}
		}
		if len(ops) > 0 {
			first = firstErr(first, x.inc.deliver(ctx, dcIdx, ops, false))
		}
	}
	x.queue = x.queue[:0]
	return first
}
