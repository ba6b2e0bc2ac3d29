package dc

import (
	"context"
	"strings"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/page"
)

// Perform implements base.Service as PerformBatch of op alone. Only tests and
// the benchmark's tracing decorator call it.
func (d *DC) Perform(ctx context.Context, op *base.Op) *base.Result {
	return d.PerformBatch(ctx, []*base.Op{op})[0]
}

// check runs, once, the checks op must pass before it executes on inc, the
// incarnation its caller loaded (nil: the DC is down), and returns its TC's
// state and its table; a nil table means op was refused and res, a zero
// Result of its caller's, answered. The DC does not know which user
// transaction op belongs to (§4.2.1). A context already done is refused up
// front (CodeCancelled); an operation that passed its checks is counted in
// flight and completes. Nothing here holds a leaf latch: admit may append to
// the DC-log.
func (d *DC) check(ctx context.Context, inc *incarnation, op *base.Op, res *base.Result) (*tcState, *btree.Tree) {
	res.LSN = op.LSN
	if ctx.Err() != nil {
		res.Code = base.CodeCancelled
		return nil, nil
	}
	if inc == nil {
		d.unavailable.Add(1)
		res.Code = base.CodeUnavailable
		return nil, nil
	}
	// Incarnation fence: an operation stamped by an epoch older than the
	// TC's last begin_restart was issued by a dead incarnation. It was
	// stable before it was sent, so the restart's redo delivers it again:
	// the nack is permanent (no resend).
	ts := inc.tc(op.TC)
	if ts.fenced(op.Epoch) {
		d.staleEpochs.Add(1)
		res.Code = base.CodeStaleEpoch
		return nil, nil
	}
	if !d.admit(inc, ts, op) {
		// Not executed, so the TC loses nothing by it: it resends its redo
		// stream to the incarnation named, then sends again.
		res.Code, res.DCInc = base.CodeStaleDC, inc.n
		return nil, nil
	}
	if d.draining.Load() {
		// Operations-plane admission gate (see Drain in admin.go): nack
		// transient, the TC's resend discipline waits the drain out.
		d.drainRejects.Add(1)
		res.Code = base.CodeUnavailable
		return nil, nil
	}
	d.performs.Add(1)
	tree := inc.forest.Tree(op.Table)
	if tree == nil {
		res.Code = d.refusal(inc)
		return nil, nil
	}
	if op.Kind.IsWrite() && op.Versioned && op.TS == 0 {
		// A versioned write carries its commit timestamp: every versioned
		// head a page holds is stamped.
		res.Code = base.CodeBadRequest
		return nil, nil
	}
	d.inflightOps.Add(1)
	return ts, tree
}

// perform executes op, an operation that writes nothing and passed its
// checks, on inc, and answers in res.
func (d *DC) perform(ctx context.Context, inc *incarnation, tree *btree.Tree, op *base.Op, res *base.Result) {
	defer d.inflightOps.Add(-1)
	if inc.inflight != nil {
		d.conVios.Add(uint64(inc.inflight.enter(op)))
		defer inc.inflight.exit(op)
	}
	snapshot := op.Flavor == base.ReadSnapshot && op.TS != 0 &&
		(op.Kind == base.OpRead || op.Kind == base.OpRangeRead)
	if snapshot {
		// Snapshot read at T: wait until every TC's safe timestamp covers T
		// — every commit <= T has its stamped writes here and no new commit
		// can land under T — then read timestamp-consistent versions
		// lock-free.
		if code := d.waitSnapshotSafe(ctx, inc, op.TS); code != base.CodeOK {
			if code == base.CodeUnavailable {
				d.unavailable.Add(1)
			}
			res.Code = code
			return
		}
		d.snapReads.Add(1)
	}
	var err error
	switch op.Kind {
	case base.OpRead:
		err = inc.read(tree, op, res)
	case base.OpScanProbe:
		err = scanProbe(tree, op, res)
	case base.OpRangeRead:
		err = inc.rangeRead(tree, op, res)
	default:
		res.Code = base.CodeBadRequest
	}
	if err != nil {
		// Whatever the operation had gathered before its page would not load.
		*res = base.Result{LSN: op.LSN, Code: d.refusal(inc)}
	} else if snapshot && base.TS(inc.gcHorizon.Load()) > op.TS {
		// Every prune this read saw ran under a horizon at or below this
		// later reading, so only a horizon above T can have taken a version
		// it needed. The reader's TC holds the horizon at or below its
		// snapshots, so that is a horizon taken before the incarnation heard
		// from the reader's TC (see refreshHorizon).
		*res = base.Result{LSN: op.LSN, Code: base.CodeSnapshotTooOld}
	}
}

// admit decides whether op may execute on inc, s being its TC's state there:
// an operation stamped with an incarnation runs in that one alone, an
// unstamped one once its TC's resend to inc is done (see bracket). The first
// operation of a TC incarnation the DC has not heard of raises the fence to
// it first, durably: from then on every later incarnation of the DC knows
// the TC owes it a resend. A TC is so registered by its own traffic — no
// call of its own, nothing sent at its start.
func (d *DC) admit(inc *incarnation, s *tcState, op *base.Op) bool {
	if op.DCInc != 0 {
		return op.DCInc == inc.n
	}
	if uint64(op.Epoch) > s.epoch.Load() {
		s.ctl.Lock()
		if uint64(op.Epoch) > s.epoch.Load() {
			s.epoch.Store(uint64(op.Epoch))
			inc.logEpochs() // refused only after Crash, which discards this fence with inc
		}
		s.ctl.Unlock()
	}
	return s.resent()
}

// refusal is the answer to an operation the incarnation it ran on could not
// execute (no such table, a page that would not load). That is a permanent
// refusal — unless the incarnation was dropped meanwhile: then the operation
// raced a crash, and a crash must look like unavailable, never like a refused
// request the TC would take as final.
func (d *DC) refusal(inc *incarnation) base.Code {
	if d.inc.Load() != inc {
		d.unavailable.Add(1)
		return base.CodeUnavailable
	}
	return base.CodeBadRequest
}

// maxRun caps the writes one run applies, so a leaf latch is held for at most
// one of the TC's frames (its maxBatch) of operations.
const maxRun = 64

// PerformBatch implements base.Service: execute a batch of operations
// sequentially in arrival order. Sequential execution is what makes
// shipping a transaction's writes as one batch sound: two operations of one
// transaction on the same key arrive in list order, so the DC never
// reorders them (the cross-transaction case is excluded by the TC's
// locks). Idempotence stays per-operation — a resent batch re-runs each
// operation through the abstract-LSN test individually.
//
// Consecutive writes of one TC on one table form a run, of at most maxRun,
// which descends the tree once per leaf it touches rather than once per
// operation (btree.Tree.ApplyRun). Before a run's first latch each of its
// operations passes, once, the checks check makes — the context, the
// incarnation, the epoch fence, admission (which may append to the DC-log),
// the drain, the table and a versioned write's timestamp — and the run enters
// the conflict checker whole. An operation refused there ends the run before
// it. Under the latch each operation is re-tested against the epoch fence and
// the abstract LSN, then applied (write). An operation whose leaf would not
// load is refused alone; the run goes on after it.
//
// The results of one call are made by that call (base.NewResults: one
// allocation for a batch of one, two for a longer one) and handed to its
// caller: never pooled, never shared with another call.
func (d *DC) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	d.batches.Add(1)
	d.batchOps.Add(uint64(len(ops)))
	inc := d.inc.Load()
	out := base.NewResults(len(ops))
	for i := 0; i < len(ops); {
		op, start := ops[i], i
		ts, tree := d.check(ctx, inc, op, out[i])
		i++
		if tree == nil {
			continue
		}
		if !op.Kind.IsWrite() {
			d.perform(ctx, inc, tree, op, out[start])
			continue
		}
		end := i // the run is ops[start:end]
		for ; i < len(ops) && i-start < maxRun && joinsRun(op, ops[i]); i++ {
			if _, t := d.check(ctx, inc, ops[i], out[i]); t == nil {
				i++ // answered: the run ends before it
				break
			}
			end = i + 1
		}
		d.writeRun(inc, tree, ts, ops[start:end], out[start:end])
	}
	return out
}

// joinsRun reports whether next may join the run that op opened: a write of
// op's TC on op's table.
func joinsRun(op, next *base.Op) bool {
	return next.Kind.IsWrite() && next.TC == op.TC && next.Table == op.Table
}

// writeRun executes ops, writes of the TC whose state is s on tree that
// passed their checks, in order, and answers each in its result.
func (d *DC) writeRun(inc *incarnation, tree *btree.Tree, s *tcState, ops []*base.Op, out []*base.Result) {
	defer d.inflightOps.Add(-int64(len(ops)))
	if inc.inflight != nil {
		d.conVios.Add(uint64(inc.inflight.enter(ops...)))
		defer inc.inflight.exit(ops...)
	}
	for len(ops) > 0 {
		last := 0
		err := tree.ApplyRun(len(ops), func(i int) string { last = i; return ops[i].Key }, func(i int, leaf *page.Page) {
			d.write(inc, leaf, s, ops[i], out[i])
		})
		if err == nil {
			return
		}
		// ops[last]'s leaf would not load, or the split or consolidation its
		// write called for failed.
		*out[last] = base.Result{LSN: ops[last].LSN, Code: d.refusal(inc)}
		ops, out = ops[last+1:], out[last+1:]
	}
}

// read executes a point read. Reads do not mutate state and are not
// tracked in abstract LSNs; resends simply re-execute. A result carries
// copies: a record's key and values alias its page's image (package page),
// and a result outlives the latch — in process the caller keeps it as it
// is, and over TCP the connection's reader encodes it after the latch is
// released.
func (inc *incarnation) read(tree *btree.Tree, op *base.Op, res *base.Result) error {
	err := tree.View(op.Key, func(leaf *page.Page) {
		if rec := leaf.Get(op.Key); rec != nil {
			if v, ok := inc.version(rec, op); ok {
				res.Found = true
				res.Value = append([]byte(nil), v...)
			}
		}
	})
	if !res.Found {
		res.Code = base.CodeNotFound
	}
	return err
}

// scanProbe is the speculative probe of the fetch-ahead protocol (§3.1):
// return the keys of the next records at or after op.Key so the TC can
// lock them before issuing the real read.
func scanProbe(tree *btree.Tree, op *base.Op, res *base.Result) error {
	limit := int(op.Limit)
	if limit <= 0 {
		limit = 16
	}
	err := tree.Scan(op.Key, func(leaf *page.Page) bool {
		stopped := leaf.Ascend(op.Key, op.EndKey, func(r *page.Record) bool {
			res.Keys = append(res.Keys, strings.Clone(r.Key))
			return len(res.Keys) < limit
		})
		return !stopped
	})
	return err
}

// rangeRead returns visible records with op.Key <= k < op.EndKey.
func (inc *incarnation) rangeRead(tree *btree.Tree, op *base.Op, res *base.Result) error {
	limit := int(op.Limit)
	if limit <= 0 {
		limit = 1 << 30
	}
	err := tree.Scan(op.Key, func(leaf *page.Page) bool {
		stopped := leaf.Ascend(op.Key, op.EndKey, func(r *page.Record) bool {
			if v, ok := inc.version(r, op); ok {
				res.Keys = append(res.Keys, strings.Clone(r.Key))
				res.Values = append(res.Values, append([]byte(nil), v...))
			}
			return len(res.Keys) < limit
		})
		return !stopped
	})
	return err
}

// version resolves the version of rec visible to op: timestamped
// resolution for snapshot reads, flavor resolution otherwise, where a
// committed read takes the head once its owner's safe timestamp here covers
// it (page.Record.Pending). A DC that restarted holds no TC's safe timestamp
// until that TC's resend to it has ended, so until then a committed read
// sees the before version (the newest entry of the record's history) under
// every head a versioned write left.
func (inc *incarnation) version(rec *page.Record, op *base.Op) ([]byte, bool) {
	if op.Flavor == base.ReadSnapshot && op.TS != 0 {
		return rec.VersionAt(op.TS)
	}
	var safe base.TS
	if op.Flavor == base.ReadCommitted {
		if s := (*inc.tcs.Load())[rec.Owner]; s != nil {
			safe = base.TS(s.safe.Load())
		}
	}
	return rec.ReadVersion(op.Flavor, safe)
}

// write executes op, a mutating operation of the TC whose state is s, on
// leaf, the exclusively latched leaf covering op.Key, with the abstract-LSN
// idempotence test of §5.1.2: if the page already contains the operation's
// effects the DC skips re-execution and acknowledges. The TC's abstract LSN
// is pruned to its LWM before the operation's LSN joins it, as a flush
// prunes it, so its {LSNin} holds only what is still in flight. Nothing is
// kept to undo the operation: its TC sent it once it was stable in its log.
func (d *DC) write(inc *incarnation, leaf *page.Page, s *tcState, op *base.Op, res *base.Result) {
	// Re-test the incarnation fence under the leaf latch, so that no
	// operation of a dead incarnation runs once BeginRestart has raised the
	// fence, though it passed the check on entry.
	if s.fenced(op.Epoch) {
		d.staleEpochs.Add(1)
		res.Code = base.CodeStaleEpoch
		return
	}
	if leaf.Ab.Contains(op.TC, op.LSN) {
		d.dupSkips.Add(1)
		res.Applied = true
		return
	}
	res.Code = applyWrite(leaf, leaf.Get(op.Key), op, base.TS(inc.gcHorizon.Load()))
	if res.Code == base.CodeOK {
		a := leaf.Ab.Ensure(op.TC)
		a.Advance(base.LSN(s.lwm.Load()))
		a.Add(op.LSN)
		inc.pool.MarkDirty(leaf, op.TC, op.LSN, 0)
	}
}

// applyWrite mutates the latched leaf according to op; rec is the leaf's
// record of op.Key, or nil, which it changes through the leaf (Put, Replace,
// Remove) and never in place, since the leaf keeps its own size. Failed
// operations (duplicate insert, update/delete of a missing key) change
// nothing and are deliberately not recorded in the abstract LSN:
// re-execution is deterministic because redo repeats history in operation
// order.
//
// A versioned write makes its value the record's pending head, stamped with
// op.TS, and the committed head it replaces the newest entry of the record's
// history, the before version (page.Record.Stage). A versioned delete leaves
// a tombstone head. An unversioned write clears the timestamp and the history
// — it does not maintain snapshot history — and an unversioned delete
// removes the record.
func applyWrite(leaf *page.Page, rec *page.Record, op *base.Op, horizon base.TS) base.Code {
	var visible bool
	if rec != nil {
		_, visible = rec.ReadVersion(base.ReadDirty, 0)
	}
	switch op.Kind {
	case base.OpInsert:
		if visible {
			return base.CodeDuplicate
		}
	case base.OpUpdate:
		if !visible {
			return base.CodeNotFound
		}
	case base.OpDelete:
		if !visible {
			return base.CodeNotFound
		}
		if !op.Versioned {
			leaf.Remove(op.Key)
			return base.CodeOK
		}
	case base.OpUpsert:
	default:
		return base.CodeBadRequest
	}
	if rec == nil {
		nr := page.Record{Key: op.Key, Owner: op.TC, Value: cloneBytes(op.Value), TS: op.TS}
		if op.Versioned {
			// §6.2.2: "To provide an earlier version for inserts, one can
			// insert two versions, a before null version followed by the
			// intended insert." The null version is the history's one entry.
			nr.Flags, nr.Hist = page.FlagHasBefore, []page.Version{{Del: true}}
		}
		leaf.Put(nr)
		return base.CodeOK
	}
	r := *rec
	if op.Versioned {
		r.Stage(op.TS, horizon)
	} else {
		r.Flags &^= page.FlagHasBefore
		r.TS, r.Hist = 0, nil
	}
	r.Value = cloneBytes(op.Value)
	r.Flags &^= page.FlagTombstone
	if op.Kind == base.OpDelete {
		r.Flags |= page.FlagTombstone
	}
	r.Owner = op.TC
	leaf.Replace(rec, r)
	return base.CodeOK
}

// cloneBytes copies an operation's value for the DC to keep. The value is
// lent for the call: over TCP it is the connection's read buffer, which the
// next frame overwrites. Keys are strings, copied by the decoder, and kept
// as they are.
func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
