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
// a forward write, an inverse (CLR), a restart resend — reaches
// its DC through deliver, the one implementation of the §4.2 contract:
// unique request IDs, idempotence at the DC, resend until acknowledged.
// It runs on the goroutine of whoever needs the acknowledgement: a
// transaction at its barrier, Abort for its inverses, a resend for its redo.
//
// A write neither logs nor ships when it is called. The call takes the X
// lock — which freezes the key — answers what its kind must answer (Insert,
// Update and Delete check existence, so that every logged operation succeeds
// at the DC), records the new value in the transaction cache and joins the
// transaction's queue. Everything else happens at the transaction's next
// barrier: its commit, or a read that bypasses its cache (scans,
// ReadCommitted/ReadDirty). However long the queue grows, it leaves at one of
// these and at no other point. A barrier short of commit (Txn.flush)
//
//  1. fetches, in one PerformBatch of reads per DC and window of maxBatch,
//     every prior value the cache could not supply when the write was accepted (the undo
//     information of §4.1.1; only unversioned Upserts of keys the
//     transaction never read need it) — reads like any other: no LSN, no
//     record, sent by Txn.sendUnlogged, nothing owed if they are abandoned;
//  2. appends the op records in call order as one log batch — appended at
//     the barrier, under the lock, so the TC-log order is still an OPSR
//     order; and
//  3. ships them, one batch per DC and window of maxBatch.
//
// The commit barrier (Txn.commitLogged) skips step 1: it appends the queued
// writes' records and the commit record as one batch, which the log makes
// stable whole or not at all (wal.Generation.AppendBatch), so those records
// carry no undo image — they are redo-only — and then ships and forces. Undo
// information is needed only by a record that can be stable while its
// transaction's commit record is not, and only writes that leave before
// commit have such records.
//
// So a transaction of n upserts that crosses no earlier barrier logs n
// redo-only records and ships them in one call per DC for every maxBatch of
// them, versioned or not (a versioned one's commit barrier also stamps the
// writes with the commit timestamp: Txn.stamp); an abort before the first
// barrier costs none and logs nothing, and a write holds no LSN while its
// transaction idles or waits for a lock.
//
// What it allocates per transaction is only what outlives the transaction.
// Everything it uses on its own goroutine is its scratch (txnScratch), taken
// from a pool at Begin and given back, cleared, by finish: the cache map, the
// queue — operations held by value, in a slab with room for slabOps writes,
// their pre-reads, their log records and one DC's batch — and the one buffer
// every payload of a log batch is encoded into, grown once to the computed
// size, because the log copies what it appends. The lock manager recycles its
// entries, and a DC answers a batch from one slab of results. The price is a
// rule of ownership, stated at base.Service: an operation is lent to the
// service for the call — once the transaction has finished it is another
// transaction's — and a result is the caller's. TestWriteTxnAllocs holds the
// count (8 for four upserts and a commit, TC and in-process DC together) and
// the bytes, TestRecycledScratchStartsEmpty and
// TestCancelledCommitKeepsItsScratch the reuse, and BenchmarkWriteTxn is where
// to profile.
//
// The rules that keep the barrier correct:
//
//   - Same-key order inside a transaction is queue order, which is log order,
//     which is batch order (one key routes to one DC, and a DC executes a
//     batch in order). Cross-transaction conflicts stay excluded by strict
//     2PL: finish() releases locks only after the last batch is acknowledged.
//     Point reads and existence checks of a key with a queued write never
//     reach the DC — x.cache answers them.
//   - The record is in the TC-log before the operation can reach the DC, let
//     alone become stable there (§4.1.1, §5.1): step 2 precedes step 3. A
//     crash after step 1 leaves restart nothing of the barrier; a crash after
//     step 2 is the state "logged, never sent" that restart has always
//     handled — redo delivers it, undo inverts losers. A commit batch is
//     never a loser's: lost, it takes the commit record with it, and the
//     DCs roll back whatever of it they applied (DC.BeginRestart resets every
//     operation above the stable log, which causality keeps in their caches).
//   - An orphan of a crashed incarnation dies at its next barrier (Txn.die)
//     before step 1. The check is a courtesy: one that slips past it while
//     the crash happens sends no pre-read in step 1 (or dies of its answer),
//     gets no LSN in step 2, and deliver sends nothing for a dead incarnation
//     in step 3.
//   - Another TC's ReadDirty/ScanDirty sees this transaction's uncommitted
//     versions from its next barrier on, not from the call that wrote them.
//
// Step 3 has one rule (Txn.ship): the transaction's own goroutine runs deliver,
// one call per DC — one PerformBatch per window — and the barrier returns
// with the operations acknowledged. Nothing sits between a transaction and its DCs.
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
//   - A commit whose ship fails is ambiguous, not rolled back: its commit
//     record is already in the log, so the outcome is restart's, and the
//     locks stay held, as after a failed force. A ship fails when the
//     incarnation dies under it, the TC or the DC stub is closed, or the DC
//     refuses a write (complete: a fence, or a code the pre-checks exclude);
//     in all but the first the incarnation still lives, and the commit ends
//     it (TC.end) — a TC crash, which the next Recover repairs — so that no
//     live TC holds a winner whose writes it never delivered.
//   - A scan's or unlocked read's barrier against a DC that is down cannot be
//     abandoned mid-ship: it is past its append, so it waits for the DC like
//     any logged operation.

// maxBatch caps the operations of one PerformBatch message: deliver ships
// longer lists in windows of it. It bounds a frame, not a transaction: a
// queue of any length waits for its barrier.
const maxBatch = 64

// ErrTCStopped is the fate of a logged operation whose delivery was
// abandoned because the TC was closed or crashed, or its DC stub closed,
// before the acknowledgement arrived. The operation itself is in the
// TC-log: recovery re-delivers or undoes it, so the error reports an
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
// the service and is never cancellable, because a logged operation abandoned
// half-delivered could be overtaken by its own inverse.
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

// flush is the transaction's write barrier short of commit: the writes queued
// since the last one are logged — appended at the barrier, under their X
// locks, with their undo images — and shipped, and flush returns with them
// acknowledged. It runs before every operation that must observe them at the
// DC (scans and unlocked reads bypass the transaction cache, so
// read-your-writes needs them applied; point reads never do, every write is
// recorded in the cache), and never merely because the queue is long. Commit
// runs the same steps itself, without the pre-read (commitLogged); Abort
// drops the queue instead. A versioned write that leaves here leaves before
// the lock point, without the commit timestamp, and is marked for the commit
// barrier to write again (Txn.stamp).
//
// Its first two steps are cancellable: the orphan check and the batched read
// of missing undo images, under the transaction's context. A failed or
// cancelled pre-read has logged nothing and leaves every write queued, with
// the priors read so far filed.
func (x *Txn) flush() error {
	if x.orphaned() {
		return x.die()
	}
	if len(x.queue) == 0 {
		return nil
	}
	if err := x.fetchPriors(); err != nil {
		return err
	}
	if _, err := x.appendQueued(false); err != nil {
		return err
	}
	if x.opts.Versioned {
		for i := range x.queue {
			x.versioned[tableKey{x.queue[i].op.Table, x.queue[i].op.Key}] = true
		}
	}
	return x.ship()
}

// fetchPriors is the pre-read of a barrier short of commit: every prior value
// the cache could not supply when its write was accepted is read now, one
// PerformBatch of reads per DC for every maxBatch of them, and filed with the
// queued write that needs it. The keys are X-locked, so what the DC returns is
// what the cache would have held; a key the transaction wrote more than once
// is read once, for its first write (the later ones found the earlier in the
// cache). Results go to the queue only — the cache already holds the values
// written. Nothing is logged yet, so the reads are unlogged operations like
// any other (Txn.sendUnlogged): they honor the transaction's context, and a
// failure — a crash of the incarnation under the round trip included — leaves
// a transaction that can still abort without a trace.
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
		ops := x.slab.send[:0]
		for i := range reads {
			ops = append(ops, &reads[i])
		}
		i := 0 // results come in queue order: the next is filed at or after i
		for lo := 0; lo < len(ops); lo += maxBatch {
			results, err := x.sendUnlogged(dcIdx, ops[lo:min(lo+maxBatch, len(ops))])
			if err != nil {
				return err
			}
			for _, res := range results {
				for !x.queue[i].needPrior || x.queue[i].dc != dcIdx {
					i++
				}
				q := &x.queue[i]
				switch res.Code {
				case base.CodeOK:
					q.undo, q.needPrior = undoImage{prior: res.Value, found: true}, false
				case base.CodeNotFound:
					q.needPrior = false
				default:
					return fmt.Errorf("tc: read %s/%s: %w", q.op.Table, q.op.Key, res.Err())
				}
			}
		}
	}
	return nil
}

// appendQueued logs the queued writes in call order, as one batch — and at
// the commit barrier (commit) the commit record with them, each write's record
// then redo-only, since it is stable exactly when the commit record is — and
// returns the LSN of the batch's last record. The X locks are still held, so
// the TC-log order is an OPSR order exactly as when each call appended its
// own record. From here on delivery is no longer cancellable: the
// resend/redo contract must run to completion, or an abandoned forward
// operation could be overtaken by its own inverse on a reordering network.
// The only failure is the incarnation's death before the batch, which then
// logs nothing.
func (x *Txn) appendQueued(commit bool) (base.LSN, error) {
	if len(x.queue) == 0 && !commit {
		return 0, nil
	}
	size := binary.MaxVarintLen64 // the commit payload
	for i := range x.queue {
		size += opPayloadLen(&x.queue[i].op, x.queue[i].logged(commit))
	}
	x.enc = slices.Grow(x.enc[:0], size) // so every payload below is a slice of one buffer
	recs := slices.Grow(x.slab.recs[:0], len(x.queue)+1)
	for i := range x.queue {
		q := &x.queue[i]
		start := len(x.enc)
		x.enc = appendOpPayload(x.enc, &q.op, q.logged(commit))
		recs = append(recs, wal.Record{Kind: recOp, Txn: x.id, Payload: x.enc[start:]})
	}
	if commit {
		start := len(x.enc)
		x.enc = appendCommit(x.enc, x.commitTS)
		recs = append(recs, wal.Record{Kind: recCommit, Txn: x.id, Payload: x.enc[start:]})
	}
	recs[0].Prev = x.lastLSN // the batch chains the rest
	first := x.inc.log.AppendBatch(recs)
	if first == 0 {
		return 0, ErrTCStopped
	}
	for i := range x.queue {
		x.queue[i].op.Epoch, x.queue[i].op.LSN = x.inc.epoch, first+base.LSN(i)
	}
	// The records are in the log, whatever the delivery goes on to report:
	// redo will resend them, and an earlier barrier's are in the undo chain,
	// where an inverse of a forward operation that never landed finds
	// nothing to do.
	if x.firstLSN.Load() == 0 {
		x.firstLSN.Store(uint64(first))
	}
	x.lastLSN = first + base.LSN(len(recs)-1)
	if commit {
		x.inc.acks.Complete(x.lastLSN) // the commit record needs no DC round trip
	}
	return x.lastLSN, nil
}

// ship delivers the queue — logged, every operation of it — to the DCs its
// operations route to (resolved with dcIndex before each was accepted, so
// only routable operations consume logged LSNs) and empties it: one deliver
// call per DC (one PerformBatch per window of maxBatch), in queue order, on
// the calling goroutine, one DC after the other. It returns the first failure. Delivery does not
// honor the transaction's cancellation, for the reason appendQueued gives.
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
	ops := slices.Grow(x.slab.send[:0], len(x.queue)) // room for any one DC's list
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
