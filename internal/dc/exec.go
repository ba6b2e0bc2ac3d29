package dc

import (
	"context"
	"slices"
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

// perform executes op exactly once, on inc, the incarnation its caller loaded
// (nil: the DC is down), and on nothing else of the DC's volatile state, and
// answers in res: a zero Result of its caller's. The DC does not know which
// user transaction op belongs to, nor whether it is forward activity or an
// inverse applied during rollback (§4.2.1). A context already done is refused
// up front (CodeCancelled); an operation that starts executing completes.
// Nothing of op outlives the call except by copy.
func (d *DC) perform(ctx context.Context, inc *incarnation, op *base.Op, res *base.Result) {
	res.LSN = op.LSN
	if ctx.Err() != nil {
		res.Code = base.CodeCancelled
		return
	}
	if inc == nil {
		d.unavailable.Add(1)
		res.Code = base.CodeUnavailable
		return
	}
	// Incarnation fence: an operation stamped by an epoch older than the
	// TC's last begin_restart was issued by a dead incarnation. It must
	// never execute — its log record died with the unforced tail, and its
	// LSN is being reused — so the nack is permanent (no resend).
	ts := inc.tc(op.TC)
	if ts.fenced(op.Epoch) {
		d.staleEpochs.Add(1)
		res.Code = base.CodeStaleEpoch
		return
	}
	if !d.admit(inc, ts, op) {
		// Not executed, so the TC loses nothing by it: it resends its redo
		// stream to the incarnation named, then sends again.
		res.Code, res.DCInc = base.CodeStaleDC, inc.n
		return
	}
	if d.draining.Load() {
		// Operations-plane admission gate (see Drain in admin.go): nack
		// transient, the TC's resend discipline waits the drain out.
		d.drainRejects.Add(1)
		res.Code = base.CodeUnavailable
		return
	}
	d.performs.Add(1)
	d.inflightOps.Add(1)
	defer d.inflightOps.Add(-1)
	if inc.inflight != nil {
		if n := inc.inflight.enter(op); n > 0 {
			d.conVios.Add(uint64(n))
		}
		defer inc.inflight.exit(op)
	}
	tree := inc.forest.Tree(op.Table)
	if tree == nil {
		res.Code = d.refusal(inc)
		return
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
	case base.OpInsert, base.OpUpdate, base.OpDelete, base.OpUpsert:
		if op.Versioned && op.TS == 0 {
			// A versioned write carries its commit timestamp: every
			// versioned head a page holds is stamped.
			res.Code = base.CodeBadRequest
			break
		}
		err = d.write(inc, tree, ts, op, res)
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

// PerformBatch implements base.Service: execute a batch of operations
// sequentially in arrival order. Sequential execution is what makes
// shipping a transaction's writes as one batch sound: two operations of one
// transaction on the same key arrive in list order, so the DC never
// reorders them (the cross-transaction case is excluded by the TC's
// locks). Idempotence stays per-operation — a resent batch re-runs each
// operation through the abstract-LSN test individually.
//
// The results of one call are made by that call (base.NewResults: one
// allocation for a batch of one, two for a longer one) and handed to its
// caller: never pooled, never shared with another call.
func (d *DC) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	d.batches.Add(1)
	d.batchOps.Add(uint64(len(ops)))
	inc := d.inc.Load()
	out := base.NewResults(len(ops))
	for i, op := range ops {
		d.perform(ctx, inc, op, out[i])
	}
	return out
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

// write executes a mutating operation with the abstract-LSN idempotence
// test of §5.1.2: if the page already contains the operation's effects the
// DC skips re-execution and acknowledges. An operation its TC has not
// forced yet leaves an entry in the leaf's undo tail, from which a reset
// undoes it if the TC fails first (BeginRestart); the entries at the front
// that their TCs have forced since are dropped on the way. The TC's abstract
// LSN is pruned to its LWM and EOSL before the operation's LSN joins it, as a
// flush prunes it, so its {LSNin} holds only what is still in flight.
func (d *DC) write(inc *incarnation, tree *btree.Tree, ts *tcState, op *base.Op, res *base.Result) error {
	_, _, err := tree.Apply(op.Key, func(leaf *page.Page) bool {
		// Re-test the incarnation fence under the leaf latch: the
		// restart sweep latches every page, so a write serializes with
		// it — applied before the sweep it is undone by the reset,
		// latched after it is fenced here. The entry check alone would
		// leave a window where an old-epoch write lands on an
		// already-swept page.
		if ts.fenced(op.Epoch) {
			d.staleEpochs.Add(1)
			res.Code = base.CodeStaleEpoch
			return false
		}
		if leaf.Ab.Contains(op.TC, op.LSN) {
			d.dupSkips.Add(1)
			res.Applied = true
			return false
		}
		eosl := base.LSN(ts.eosl.Load())
		forced := func(u *page.Undo) bool {
			if u.TC == op.TC {
				return u.LSN <= eosl // at hand: no lookup
			}
			return u.LSN <= inc.eosl(u.TC)
		}
		stable := 0
		for stable < len(leaf.Undo) && forced(&leaf.Undo[stable]) {
			stable++
		}
		leaf.Undo = slices.Delete(leaf.Undo, 0, stable) // in place: the tail keeps its capacity
		unforced := op.LSN > eosl
		rec := leaf.Get(op.Key)
		u := page.Undo{TC: op.TC, LSN: op.LSN}
		if unforced {
			if rec != nil {
				u.Prior = *rec
			} else {
				u.Absent, u.Prior.Key = true, op.Key
			}
		}
		res.Code = applyWrite(leaf, rec, op, base.TS(inc.gcHorizon.Load()))
		if res.Code == base.CodeOK {
			a := leaf.Ab.Ensure(op.TC)
			a.Advance(base.LSN(ts.lwm.Load()), eosl)
			a.Add(op.LSN)
			if unforced {
				leaf.Undo = append(leaf.Undo, u)
			}
			inc.pool.MarkDirty(leaf, op.TC, op.LSN, 0)
		}
		return false
	})
	return err
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
