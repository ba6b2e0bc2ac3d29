package dc

import (
	"context"
	"slices"
	"strings"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/page"
)

// Perform implements base.Service: execute one logical operation exactly
// once. The DC does not know which user transaction the operation belongs
// to, nor whether it is forward activity or an inverse applied during
// rollback (§4.2.1). A context that is already done is refused up front
// (CodeCancelled); an operation that starts executing completes.
func (d *DC) Perform(ctx context.Context, op *base.Op) *base.Result {
	res := new(base.Result)
	d.perform(ctx, d.inc.Load(), op, res)
	return res
}

// perform executes op on inc, the incarnation its caller loaded (nil: the
// DC is down), and on nothing else of the DC's volatile state, and answers in
// res: a zero Result of its caller's. Nothing of op outlives the call except
// by copy.
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
	if op.Flavor == base.ReadSnapshot && op.TS != 0 &&
		(op.Kind == base.OpRead || op.Kind == base.OpRangeRead) {
		// Snapshot read at T: wait until every TC's safe timestamp covers T
		// — all commits <= T are finalized here and no new commit can land
		// under T — then read timestamp-consistent versions lock-free.
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
		err = read(tree, op, res)
	case base.OpScanProbe:
		err = scanProbe(tree, op, res)
	case base.OpRangeRead:
		err = rangeRead(tree, op, res)
	case base.OpInsert, base.OpUpdate, base.OpDelete, base.OpUpsert,
		base.OpCommitVersions, base.OpAbortVersions:
		err = d.write(inc, tree, ts, op, res)
		if err == nil && res.Code == base.CodeOK &&
			(op.Kind == base.OpCommitVersions || op.Kind == base.OpAbortVersions) {
			d.finalizes.Add(1)
		}
	default:
		res.Code = base.CodeBadRequest
	}
	if err != nil {
		// Whatever the operation had gathered before its page would not load.
		*res = base.Result{LSN: op.LSN, Code: d.refusal(inc)}
	}
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
// The results of one call are one allocation, made by that call and handed
// to its caller: never pooled, never shared with another call.
func (d *DC) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	d.batches.Add(1)
	d.batchOps.Add(uint64(len(ops)))
	inc := d.inc.Load()
	slab := make([]base.Result, len(ops))
	out := make([]*base.Result, len(ops))
	for i, op := range ops {
		out[i] = &slab[i]
		d.perform(ctx, inc, op, out[i])
	}
	return out
}

// read executes a point read. Reads do not mutate state and are not
// tracked in abstract LSNs; resends simply re-execute. A result carries
// copies: a record's key and values alias its page's image (package page),
// and a result outlives the latch, and in process the DC.
func read(tree *btree.Tree, op *base.Op, res *base.Result) error {
	err := tree.View(op.Key, func(leaf *page.Page) {
		if rec := leaf.Get(op.Key); rec != nil {
			if v, ok := recVersion(rec, op); ok {
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
func rangeRead(tree *btree.Tree, op *base.Op, res *base.Result) error {
	limit := int(op.Limit)
	if limit <= 0 {
		limit = 1 << 30
	}
	err := tree.Scan(op.Key, func(leaf *page.Page) bool {
		stopped := leaf.Ascend(op.Key, op.EndKey, func(r *page.Record) bool {
			if v, ok := recVersion(r, op); ok {
				res.Keys = append(res.Keys, strings.Clone(r.Key))
				res.Values = append(res.Values, append([]byte(nil), v...))
			}
			return len(res.Keys) < limit
		})
		return !stopped
	})
	return err
}

// recVersion resolves the version of rec visible to op: timestamped
// resolution for snapshot reads, flavor resolution otherwise.
func recVersion(rec *page.Record, op *base.Op) ([]byte, bool) {
	if op.Flavor == base.ReadSnapshot && op.TS != 0 {
		return rec.VersionAt(op.TS)
	}
	return rec.ReadVersion(op.Flavor)
}

// write executes a mutating operation with the abstract-LSN idempotence
// test of §5.1.2: if the page already contains the operation's effects the
// DC skips re-execution and acknowledges. An operation its TC has not
// forced yet leaves an entry in the leaf's undo tail, from which a reset
// undoes it if the TC fails first (BeginRestart); the entries at the front
// that their TCs have forced since are dropped on the way.
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
			leaf.Ab.Ensure(op.TC).Add(op.LSN)
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
// record of op.Key, or nil. Failed operations (duplicate insert,
// update/delete of a missing key) change nothing and are deliberately not
// recorded in the abstract LSN: re-execution is deterministic because redo
// repeats history in operation order.
//
// Versioned writes zero the record's commit TS (the in-flight version is
// uncommitted) and park the previous version's TS in BeforeTS; the commit
// finalize re-stamps it. Unversioned writes clear the timestamp group —
// they do not maintain snapshot history.
func applyWrite(leaf *page.Page, rec *page.Record, op *base.Op, horizon base.TS) base.Code {
	switch op.Kind {
	case base.OpInsert:
		if rec != nil {
			if _, visible := rec.ReadVersion(base.ReadDirty); visible {
				return base.CodeDuplicate
			}
			// Tombstoned slot: fall through and overwrite.
		}
		nr := page.Record{Key: op.Key, Owner: op.TC, Value: cloneBytes(op.Value)}
		if op.Versioned {
			// §6.2.2: "To provide an earlier version for inserts, one can
			// insert two versions, a before null version followed by the
			// intended insert."
			nr.Flags = page.FlagHasBefore | page.FlagBeforeNull
			if rec != nil && !rec.HasBefore() {
				// Re-insert over a committed, timestamped tombstone: carry
				// the deletion's TS and the retained history, so snapshots
				// below the re-insert keep resolving.
				nr.BeforeTS = rec.TS
				nr.Hist = rec.Hist
			}
		}
		leaf.Put(nr)
	case base.OpUpdate:
		if rec == nil {
			return base.CodeNotFound
		}
		if _, visible := rec.ReadVersion(base.ReadDirty); !visible {
			return base.CodeNotFound
		}
		if op.Versioned {
			if !rec.HasBefore() {
				rec.Before = rec.Value
				rec.BeforeTS = rec.TS
				rec.Flags |= page.FlagHasBefore
			}
			rec.TS = 0
		} else {
			rec.TS, rec.BeforeTS, rec.Hist = 0, 0, nil
		}
		rec.Value = cloneBytes(op.Value)
		rec.Flags &^= page.FlagTombstone
		rec.Owner = op.TC
	case base.OpUpsert:
		if rec == nil {
			nr := page.Record{Key: op.Key, Owner: op.TC, Value: cloneBytes(op.Value)}
			if op.Versioned {
				nr.Flags = page.FlagHasBefore | page.FlagBeforeNull
			}
			leaf.Put(nr)
			return base.CodeOK
		}
		if op.Versioned {
			if !rec.HasBefore() {
				rec.Before = rec.Value
				rec.BeforeTS = rec.TS
				rec.Flags |= page.FlagHasBefore
				if rec.Tombstone() {
					// Upsert over a committed tombstone is an insert: the
					// before version is the null version at the deletion's TS.
					rec.Before = nil
					rec.Flags |= page.FlagBeforeNull
				}
			}
			rec.TS = 0
		} else {
			rec.TS, rec.BeforeTS, rec.Hist = 0, 0, nil
		}
		rec.Value = cloneBytes(op.Value)
		rec.Flags &^= page.FlagTombstone
		rec.Owner = op.TC
	case base.OpDelete:
		if rec == nil {
			return base.CodeNotFound
		}
		if _, visible := rec.ReadVersion(base.ReadDirty); !visible {
			return base.CodeNotFound
		}
		if op.Versioned {
			// Versioned delete: tombstone the latest version, retain the
			// before version for read-committed readers (§6.2.2).
			if !rec.HasBefore() {
				rec.Before = rec.Value
				rec.BeforeTS = rec.TS
				rec.Flags |= page.FlagHasBefore
			}
			rec.Value = nil
			rec.TS = 0
			rec.Flags |= page.FlagTombstone
			rec.Owner = op.TC
		} else {
			leaf.Remove(op.Key)
		}
	case base.OpCommitVersions:
		// Finalize the versioned write (§6.2.2). With a commit TS the before
		// version moves into history for snapshot readers; without one the
		// legacy discard applies. Missing records and already finalized
		// records are no-ops: commits are resent and replayed.
		if rec != nil {
			if rec.CommitVersionAt(op.TS, horizon) {
				leaf.Remove(op.Key)
			}
		}
	case base.OpAbortVersions:
		// Remove the latest version updated by the transaction (§6.2.2).
		if rec != nil {
			if rec.AbortVersion() {
				leaf.Remove(op.Key)
			}
		}
	default:
		return base.CodeBadRequest
	}
	return base.CodeOK
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
