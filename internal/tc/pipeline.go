package tc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Shipping logged operations. Every operation that holds a TC-log record —
// a forward write, a finalize, an inverse (CLR), a restart resend — reaches
// its DC through deliver, the one implementation of the §4.2 contract:
// unique request IDs, idempotence at the DC, resend until acknowledged.
// What differs between callers is only who runs it, and when.
//
// In neither mode does a transaction need a write's reply before its commit:
// the X lock freezes the key, the pre-check (or versioned-upsert semantics)
// guarantees the operation succeeds at the DC, and the op record is already
// in the TC-log — appended at call time under the lock, so the log order is
// still an OPSR order — and the resend/redo contract delivers it even
// across failures. The transaction only waits at a barrier: its commit, its
// abort, or a read that bypasses its cache (scans, ReadCommitted/ReadDirty).
//
// Inline (the default): a write appends its record and joins the
// transaction's per-DC unsent list; Txn.flush hands each list to deliver on
// the transaction's own goroutine at the next barrier (or when a list
// reaches maxBatch), so a transaction's writes cross the wire as one
// PerformBatch per DC instead of one round trip per call. The rules that
// keep this correct:
//
//   - Same-key order inside a transaction is list order (one key routes to
//     one DC, and a DC executes a batch in order). Cross-transaction
//     conflicts stay excluded by strict 2PL: finish() releases locks only
//     after the last flush is acknowledged. Point reads and pre-checks of a
//     key with an unsent write never reach the DC — x.cache answers them.
//   - A logged-but-unsent operation is exactly the state "crash between
//     AppendAssign and send" that restart has always handled: redo delivers
//     it, undo inverts losers. An orphan of a crashed incarnation that
//     reaches a barrier has its list retired with ErrTCStopped by deliver's
//     live-epoch filter.
//   - The ack tracker cannot pass an unsent LSN, so the low-water mark (and
//     the RSSP a checkpoint may propose) trails the oldest *unflushed* write
//     of any active transaction; see ackTracker.LWM.
//   - Another TC's ReadDirty/ScanDirty sees this transaction's uncommitted
//     versions from its next barrier on, not from the call that wrote them.
//
// Pipelined (Config.Pipeline): the TC appends the record, posts the op into
// the per-DC pipeline, and returns; replies are collected at the
// transaction's pending barrier. Each DC has one shipping goroutine with
// exactly one batch in flight. That discipline is what keeps the
// logical operation stream ordered per DC: everything queued while the
// previous batch was on the wire is coalesced into the next delivery, which
// the DC executes in arrival order. Same-key operations of one transaction
// always route to the same DC, so they can never reorder;
// cross-transaction conflicts are excluded by strict 2PL plus the ack
// barrier (locks are only released once every shipped operation is
// acknowledged).

// maxBatch caps the operations of one PerformBatch message: what a pipeline
// worker coalesces, and how long a transaction's unsent list may grow before
// it is flushed ahead of the next barrier (which bounds, in operations, how
// far one transaction can hold the low-water mark back).
const maxBatch = 64

// ErrTCStopped is the fate of a logged operation whose delivery was
// abandoned because the TC was closed or crashed, or its DC stub closed,
// before the acknowledgement arrived. The operation itself is in the
// TC-log: recovery re-delivers or undoes it, so the error reports an
// interrupted session, not lost data. It folds into the taxonomy as a
// component-unavailable failure.
var ErrTCStopped = fmt.Errorf("tc: stopped with logged operations unacknowledged: %w", base.ErrUnavailable)

// pending tracks one transaction's outstanding pipelined operations: a
// count plus the first failure. Commit and Abort (and scans, for
// read-your-writes) barrier on it before relying on DC state; with inline
// shipping it is always empty and the wait is one uncontended mutex. The
// barrier signal is a channel so waiters can honor context cancellation.
type pending struct {
	mu          sync.Mutex
	outstanding int
	err         error
	// zero is non-nil only while a waiter needs the outstanding-reached-
	// zero signal; done closes and clears it.
	zero chan struct{}
}

func (p *pending) add() {
	p.mu.Lock()
	p.outstanding++
	p.mu.Unlock()
}

// done retires one operation, recording the first failure.
func (p *pending) done(err error) {
	p.mu.Lock()
	p.outstanding--
	if err != nil && p.err == nil {
		p.err = err
	}
	if p.outstanding == 0 && p.zero != nil {
		close(p.zero)
		p.zero = nil
	}
	p.mu.Unlock()
}

// empty reports whether nothing is outstanding right now.
func (p *pending) empty() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.outstanding == 0
}

// wait blocks until every posted operation has been retired — returning
// the first failure observed (sticky across calls) — or until ctx is done,
// returning the ErrCancelled-wrapped ctx error. An abandoned wait leaves
// the barrier intact: outstanding operations still retire normally.
func (p *pending) wait(ctx context.Context) error {
	for {
		p.mu.Lock()
		if p.outstanding == 0 {
			err := p.err
			p.mu.Unlock()
			return err
		}
		if p.zero == nil {
			p.zero = make(chan struct{})
		}
		ch := p.zero
		p.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return base.CancelErr(ctx)
		}
	}
}

// item is one logged operation on its way to a DC. The incarnation that
// logged it is stamped on the op itself (op.Epoch, set before the op's LSN
// was assigned). pend is the barrier of the transaction that posted it
// into a pipeline; it is nil when the caller runs deliver itself and takes
// the returned error instead.
type item struct {
	op   *base.Op
	pend *pending
}

// retire reports the item's outcome to its barrier, if it has one, and
// folds it into first, the error deliver returns.
func (it item) retire(err, first error) error {
	if it.pend != nil {
		it.pend.done(err)
	}
	if first == nil {
		first = err
	}
	return first
}

// deliver sends logged operations to one DC and does not return until each
// is acknowledged or can never be: the §4.2 resend contract. It returns
// the first failure (nil when every operation was acknowledged OK) and
// retires each item at its barrier.
//
// op.Epoch must have been stamped *before* the op's LSN was assigned: a
// crash+restart racing the send mints the new epoch before the reused LSN
// space is handed out, so an op whose LSN belongs to the dead incarnation's
// log can never carry the live epoch. Every attempt delivers only items of
// the live incarnation: a delivery parked in the resend loop across a TC
// crash+restart must not reach the DC — its records vanished with the
// unforced log tail, so executing it would apply writes no undo covers and
// record reused LSNs in the abstract-LSN tables (poisoning the restarted
// TC's idempotence checks). A call already on the wire when the crash hit
// is beyond this check's reach; the DC-side epoch fence installed by
// BeginRestart refuses it there (CodeStaleEpoch), closing the window end to
// end. Both checks compare the same stamp.
//
// New operations wait at the DC's recovery gate; redo marks the resend
// stream of a restart (§5.3.2), which holds that gate and must pass it.
// CodeUnavailable (the DC is down, restarting or draining) triggers a paced
// resend of everything — per-operation idempotence at the DC absorbs
// re-execution of operations that did land. The only ways out of the loop
// are the TC stopping and the DC stub being closed; ctx carries values to
// the service and is never cancellable, because a logged operation
// abandoned half-delivered could be overtaken by its own inverse.
func (t *TC) deliver(ctx context.Context, h *dcHandle, items []item, redo bool) (first error) {
	var ops []*base.Op
	var one [1]*base.Result
	backoff := 200 * time.Microsecond
	for {
		epoch := t.Epoch()
		live := 0
		for _, it := range items {
			if it.op.Epoch != epoch {
				first = it.retire(ErrTCStopped, first)
				continue
			}
			items[live] = it
			live++
		}
		items = items[:live]
		if len(items) == 0 {
			return first
		}
		if !redo {
			_ = h.waitReady(ctx) // ctx is never done
		}
		var results []*base.Result
		if len(items) == 1 {
			one[0] = h.svc.Perform(ctx, items[0].op)
			results = one[:]
		} else {
			if ops == nil {
				ops = make([]*base.Op, 0, len(items))
			}
			ops = ops[:0]
			for _, it := range items {
				ops = append(ops, it.op)
			}
			results = h.svc.PerformBatch(ctx, ops)
		}
		t.opsSent.Add(uint64(len(items)))
		unavailable := false
		for _, r := range results {
			if r == nil || r.Code == base.CodeUnavailable {
				unavailable = true
				break
			}
		}
		if !unavailable {
			return t.complete(items, results, redo, first)
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
			case <-time.After(backoff):
			}
		}
		if stopped {
			for _, it := range items {
				first = it.retire(ErrTCStopped, first)
			}
			return first
		}
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// complete feeds the ack tracker — the source of low-water marks — and
// retires the items of an answered delivery. The ack is epoch-fenced:
// a reply that lands after a Crash+Recover belongs to a dead incarnation
// and must not complete an LSN the new one is reusing (the lsn <= lwm guard
// in the tracker only covers the at-or-below-reset-base half of that race).
// A stale-epoch nack from the DC means the op never executed — the fence
// fired mid-flight — so its LSN must not complete either; it is a
// permanent failure.
func (t *TC) complete(items []item, results []*base.Result, redo bool, first error) error {
	epoch := t.Epoch()
	for i, it := range items {
		code := results[i].Code
		var err error
		switch {
		case it.op.Epoch != epoch:
			err = ErrTCStopped
		case code == base.CodeStaleEpoch:
			err = fmt.Errorf("tc: logged op fenced at DC: %v: %w", it.op, base.ErrStaleEpoch)
		default:
			t.acks.Complete(it.op.LSN)
			// Repeating history may find the effect already there (or
			// already gone); for a first delivery the pre-check + X-lock
			// invariant excludes every code but OK — surface loudly if it
			// is ever broken.
			if code != base.CodeOK && !(redo && (code == base.CodeDuplicate || code == base.CodeNotFound)) {
				err = fmt.Errorf("tc: logged op failed at DC: %v -> %v", it.op, code)
			}
		}
		first = it.retire(err, first)
	}
	return first
}

// deliverOne is deliver run by the caller for a single operation.
func (t *TC) deliverOne(ctx context.Context, h *dcHandle, op *base.Op, redo bool) error {
	one := [1]item{{op: op}}
	return t.deliver(ctx, h, one[:], redo)
}

// send ships one logged operation of transaction x to the DC the caller
// resolved with dcIndex (before the op record was appended, so only
// routable operations consume logged LSNs). Pipelined, it posts the op and
// returns nil: the outcome arrives at x.pend. Inline, it appends the op to
// the transaction's unsent list for that DC, which leaves at the next
// flush; a list that reaches maxBatch is flushed here, and that flush's
// outcome is what send returns. This is the only place that knows which.
func (t *TC) send(x *Txn, dcIdx int, op *base.Op) error {
	if t.pipes != nil {
		x.pend.add()
		t.pipes[dcIdx].post(item{op: op, pend: &x.pend})
		return nil
	}
	if x.unsent == nil {
		x.unsent = make([][]item, len(t.dcs))
	}
	if x.unsent[dcIdx] == nil {
		// One allocation for a transaction of a handful of writes, instead
		// of append's 1, 2, 4, 8.
		x.unsent[dcIdx] = make([]item, 0, 8)
	}
	x.unsent[dcIdx] = append(x.unsent[dcIdx], item{op: op})
	if len(x.unsent[dcIdx]) >= maxBatch {
		return x.flush()
	}
	return nil
}

// flush delivers the transaction's unsent operations, one deliver call
// (one PerformBatch when there is more than one) per DC, on the caller's
// goroutine, and returns the first failure. It runs at every barrier:
// drain, Commit (before the commit record and after the finalize
// operations), Abort (before the undo chain is walked). Delivery does not
// honor the transaction's cancellation, for the reason write gives.
func (x *Txn) flush() error {
	var first error
	for i, items := range x.unsent {
		if len(items) == 0 {
			continue
		}
		err := x.tc.deliver(x.sendCtx, x.tc.dcs[i], items, false)
		x.unsent[i] = items[:0]
		if first == nil {
			first = err
		}
	}
	return first
}

// pipeline is the per-DC shipping queue and its worker.
type pipeline struct {
	t *TC
	h *dcHandle

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []item
	closed bool
}

func newPipeline(t *TC, h *dcHandle) *pipeline {
	p := &pipeline{t: t, h: h}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// post enqueues an operation for shipping. The caller has already added
// it to its transaction's pending barrier.
func (p *pipeline) post(it item) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		it.pend.done(ErrTCStopped)
		return
	}
	p.queue = append(p.queue, it)
	p.cond.Signal()
	p.mu.Unlock()
}

// close wakes the worker for shutdown. Queued, unshipped operations fail
// with ErrTCStopped so barrier waiters unblock.
func (p *pipeline) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// drop discards the queue (TC crash): the posting incarnation is gone and
// its transactions will never commit. Batches already handed to deliver
// are retired by its live-epoch check.
func (p *pipeline) drop() {
	p.mu.Lock()
	q := p.queue
	p.queue = nil
	p.mu.Unlock()
	for _, it := range q {
		it.pend.done(ErrTCStopped)
	}
}

func (p *pipeline) run() {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			p.drop()
			return
		}
		batch := p.queue
		if len(batch) > maxBatch {
			batch = batch[:maxBatch]
			p.queue = append([]item(nil), p.queue[maxBatch:]...)
		} else {
			p.queue = nil
		}
		p.mu.Unlock()
		// The worker ships on behalf of many transactions; each learns its
		// operations' fate at its own barrier.
		_ = p.t.deliver(context.Background(), p.h, batch, false)
	}
}
