package tc

import (
	"context"
	"errors"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/wal"
)

// Crash simulates a TC process failure: everything volatile — the log buffer
// (unforced tail), lock table, transaction table (and with it every
// transaction's queued writes), ack bookkeeping and timestamp registrations —
// vanishes, as one value: the incarnation. The stable log survives. LSNs above
// the stable end will be reused by the restarted incarnation — the DC-side
// reset protocol (§5.3.2) makes that safe.
//
// Ending the log generation is what kills the incarnation, the serving one or
// one Recover is still building: from that instant its transactions are
// orphans (Txn.orphaned), it appends and forces nothing, and sends and
// delivers nothing more. Its lock table is poisoned, not just dropped: waiters
// still queued in it are blocked behind locks that no longer exist and would
// otherwise sleep forever; they fail out as the orphans they are. Whatever a
// call already on the wire delivers to a DC is swept by the next BeginRestart
// or refused by its epoch fence.
func (t *TC) Crash() {
	t.log.Crash()
	if inc := t.inc.Swap(nil); inc != nil {
		inc.locks.Poison(ErrTCStopped)
	}
}

// Recover implements the TC side of the restart function (§4.2.1 restart,
// §5.3.2 "TC Failure"):
//
//  1. Analysis over the stable log: find the redo scan start point, the
//     loser transactions, and committed transactions with versioned
//     writes to re-finalize.
//  2. Tell every DC to discard effects of operations beyond the stable
//     log (targeted page reset — only this TC's records are touched).
//  3. Redo: resend every logged operation from the RSSP onward, in LSN
//     order (repeating history at the logical level; DC idempotence
//     filters what survived).
//  4. Undo: send inverse operations for losers, in reverse chronological
//     order, logged as compensation records.
//  5. Re-issue commit-versions for winners, then allow normal processing.
//
// All of it runs on the next incarnation before anyone else can see it: the
// incarnation is published last, whole, and only if no Crash ended its log
// generation meanwhile — a Crash during Recover wins, Recover then fails
// wrapping ErrTCStopped with the TC still down, and the next Recover mints a
// larger epoch. Recover is not safe to run twice at once.
func (t *TC) Recover() error {
	if t.inc.Load() != nil {
		return errors.New("tc: recover called while running")
	}
	gen := t.log.Generation()
	stableEnd := t.log.EOSL()
	records := t.log.Scan(0)

	// --- analysis ---
	rssp := base.LSN(1)
	type loser struct{ lastLSN base.LSN }
	type winner struct {
		keys []tableKey
		ts   base.TS
	}
	losers := make(map[base.TxnID]*loser)
	var winnersVersioned []winner
	maxTxn := uint64(0)
	maxEpoch := base.Epoch(0)
	maxCommitTS := base.TS(0)
	for _, rec := range records {
		if uint64(rec.Txn) > maxTxn {
			maxTxn = uint64(rec.Txn)
		}
		switch rec.Kind {
		case recCheckpoint:
			if r, e, err := decodeCheckpoint(rec.Payload); err == nil {
				if r > rssp {
					rssp = r
				}
				if e > maxEpoch {
					maxEpoch = e
				}
			}
		case recEpoch:
			if e, err := decodeEpoch(rec.Payload); err == nil && e > maxEpoch {
				maxEpoch = e
			}
		case recOp, recCLR:
			if rec.Txn != 0 {
				l := losers[rec.Txn]
				if l == nil {
					l = &loser{}
					losers[rec.Txn] = l
				}
				l.lastLSN = rec.LSN
			}
		case recCommit:
			delete(losers, rec.Txn)
			if keys, cts, err := decodeCommit(rec.Payload); err == nil {
				if cts > maxCommitTS {
					maxCommitTS = cts
				}
				if len(keys) > 0 {
					winnersVersioned = append(winnersVersioned, winner{keys, cts})
				}
			}
		case recAbort:
			delete(losers, rec.Txn)
		}
	}

	t.rssp.Store(uint64(rssp))

	// Re-seed the commit-timestamp allocator above every durable commit
	// and above the clock's current reading. The clock clamp covers safe
	// timestamps a previous process broadcast without committing anything
	// (those tracked its clock), relying on the wall clock not stepping
	// backwards across a process restart — the same assumption the System
	// clock's monotonic forcing makes within one process.
	if now, _ := t.clock.Now(); now > maxCommitTS {
		maxCommitTS = now
	}
	t.tsMu.Lock()
	if maxCommitTS > t.lastCommit {
		t.lastCommit = maxCommitTS
	}
	t.tsMu.Unlock()

	// --- mint the new incarnation: its epoch, strictly above every prior one
	// (the stable log always names the newest — every mint is forced, and
	// checkpoint records carry it across truncation — so monotonicity holds
	// across any crash pattern), forced before anything is stamped with it;
	// its ack tracker based at the stable end, because once redo is complete
	// every allocated LSN at or below it is accounted for (replayed or void)
	// and the redo replies must not move the mark; its transaction ids above
	// the log's.
	inc, err := t.incarnate(gen, maxEpoch+1, stableEnd, maxTxn)
	if err != nil {
		return fmt.Errorf("tc %d: restart: %w", t.cfg.ID, err)
	}

	// --- DC reset (§5.3.2): drop cached effects beyond the stable log and
	// install the new epoch as the fence, so the dead incarnation's requests
	// still on the wire can never execute after this point. The DCs reset
	// their own LWM state with it.
	for _, h := range t.dcs {
		if err := h.svc.BeginRestart(context.Background(), t.cfg.ID, inc.epoch, stableEnd); err != nil {
			return fmt.Errorf("tc %d: begin restart: %w", t.cfg.ID, err)
		}
	}

	// --- redo: repeat history by resending logical operations in order ---
	if err := inc.redo(records, rssp, -1); err != nil {
		return err
	}

	// --- undo losers with inverse operations (multi-level undo). From here
	// to the publish check a refused append or force is not looked at: only
	// the end of the generation refuses, and that check reports it. ---
	for txnID, l := range losers {
		inc.undoChain(txnID, l.lastLSN)
		inc.logLocal(&wal.Record{Kind: recAbort, Txn: txnID, Prev: l.lastLSN})
	}

	// --- re-finalize winners' versioned writes (§6.2.2: before versions
	// are guaranteed to be eventually removed) ---
	for _, w := range winnersVersioned {
		for _, tk := range w.keys {
			idx, err := t.dcIndex(tk.table, tk.key)
			if err != nil {
				return fmt.Errorf("tc %d: re-finalize %s/%q: %w", t.cfg.ID, tk.table, tk.key, err)
			}
			op := &base.Op{TC: t.cfg.ID, Kind: base.OpCommitVersions,
				Table: tk.table, Key: tk.key, TS: w.ts}
			if inc.logOp(op, &wal.Record{Kind: recOp, Payload: appendOpPayload(nil, op, nil, false)}) {
				// Logged: should this delivery be cut short, the next restart
				// resends it.
				_ = inc.deliverOne(context.Background(), t.dcs[idx], op, false)
			}
		}
	}
	inc.log.Force()
	inc.broadcastWatermarks()

	// --- contract: restart complete, normal processing resumes — the DCs
	// activate the staged epoch and discard the dead incarnation's leftovers.
	for _, h := range t.dcs {
		if err := h.svc.EndRestart(context.Background(), t.cfg.ID, inc.epoch); err != nil {
			return fmt.Errorf("tc %d: end restart: %w", t.cfg.ID, err)
		}
	}
	// A drain does not survive the incarnation: the flag is in-memory
	// state, so a kill -9'd draining process restarts serving — recovery
	// behaves identically whether or not a drain was in progress.
	t.draining.Store(false)
	// Publish, unless a Crash landed since gen was read. The second look
	// closes the race with one landing right now: Crash ends the generation
	// before it swaps the pointer, so either that look sees the end or the
	// swap sees the incarnation.
	if gen.Live() && t.inc.CompareAndSwap(nil, inc) {
		if gen.Live() {
			return nil
		}
		t.inc.CompareAndSwap(inc, nil)
	}
	return fmt.Errorf("tc %d: restart: %w", t.cfg.ID, ErrTCStopped)
}

// RecoverDC replays this TC's logged operations to one crashed-and-
// recovered DC (§5.3.2 "DC Failure"): resend from the redo scan start
// point; the DC re-applies whatever is missing from its stable state.
// New operations to that DC wait until the redo stream completes so that
// logical operations are never applied out of order; in-flight resends of
// old operations are part of the redo stream and harmless.
func (t *TC) RecoverDC(idx int) error {
	if idx < 0 || idx >= len(t.dcs) {
		return fmt.Errorf("tc %d: no DC %d", t.cfg.ID, idx)
	}
	inc := t.inc.Load()
	if inc == nil {
		return nil // down: the TC's own restart replays its log to every DC
	}
	h := t.dcs[idx]
	h.setRecovering(true)
	defer h.setRecovering(false)

	// Scan only sees the stable log, but operations whose replies already
	// arrived may still sit in the unforced tail (a write is acknowledged at
	// its barrier, before its transaction's commit record is forced).
	// Force first so the redo stream covers every operation the DC might
	// have lost from its cache.
	inc.log.Force()
	rssp := t.RSSP()
	if err := inc.redo(t.log.Scan(rssp), rssp, idx); err != nil {
		return err
	}
	inc.broadcastWatermarks()
	return nil
}

// redo is the resend stream of a restart (§5.3.2), the TC's or one DC's:
// every logged operation of records at or above from — bound for DC onlyDC
// alone, unless that is negative — is delivered again in LSN order, stamped
// with the incarnation resending it (a logged, dead epoch would be refused
// by the DC fence). DC idempotence filters what survived. One operation per
// call: the stream is ordered, and a failure stops it at its LSN.
func (inc *incarnation) redo(records []*wal.Record, from base.LSN, onlyDC int) error {
	t := inc.tc
	for _, rec := range records {
		if rec.LSN < from || (rec.Kind != recOp && rec.Kind != recCLR) {
			continue
		}
		op, _, _, err := decodeOpPayload(rec.Payload)
		if err != nil {
			return fmt.Errorf("tc %d: redo decode @%d: %w", t.cfg.ID, rec.LSN, err)
		}
		idx, err := t.dcIndex(op.Table, op.Key)
		if err != nil {
			// The op routed when it was logged: a failing lookup means the
			// placement changed underneath a durable log, and redo cannot
			// repeat history against the wrong DC. Fail the restart loudly.
			return fmt.Errorf("tc %d: redo @%d: %w", t.cfg.ID, rec.LSN, err)
		}
		if onlyDC >= 0 && idx != onlyDC {
			continue
		}
		op.LSN, op.Epoch = rec.LSN, inc.epoch
		if err := inc.deliverOne(context.Background(), t.dcs[idx], op, true); err != nil {
			return fmt.Errorf("tc %d: redo @%d: %w", t.cfg.ID, rec.LSN, err)
		}
		t.redoOps.Add(1)
	}
	return nil
}
