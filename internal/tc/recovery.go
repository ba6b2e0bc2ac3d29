package tc

import (
	"context"
	"errors"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
)

// Crash simulates a TC process failure: everything volatile — the log buffer
// (unforced tail), lock table, transaction count (and with every transaction
// its queued writes), ack bookkeeping and timestamp registrations —
// vanishes, as one value: the incarnation. The stable log survives. LSNs above
// the stable end will be reused by the restarted incarnation, which is safe
// because no DC was sent one: a commit ships only what it has forced, and a
// low-water mark never passes the stable end (publishStable).
//
// Ending the log generation is what kills the incarnation, the serving one or
// one Recover is still building: from that instant its transactions are
// orphans (Txn.orphaned), it appends and forces nothing, and sends and
// delivers nothing more. Its lock table is poisoned, not just dropped: waiters
// still queued in it are blocked behind locks that no longer exist and would
// otherwise sleep forever; they fail out as the orphans they are. A call
// already on the wire carries only forced operations, which the restart's
// redo repeats: the DC applies each once, or its epoch fence refuses it.
func (t *TC) Crash() {
	t.log.Crash()
	if inc := t.inc.Swap(nil); inc != nil {
		inc.locks.Poison(ErrTCStopped)
	}
}

// end is Crash confined to inc: it crashes the TC only while inc's log
// generation is the current one, so a caller that learns late that its
// incarnation must end never ends a successor. Like Crash it ends the
// generation before it drops the pointer, the order Recover's publication
// relies on.
func (t *TC) end(inc *incarnation) {
	if inc.log.Crash() {
		t.inc.CompareAndSwap(inc, nil)
		inc.locks.Poison(ErrTCStopped)
	}
}

// Recover implements the TC side of the restart function (§4.2.1 restart,
// §5.3.2 "TC Failure"):
//
//  1. Analysis over the stable log: find the redo scan start point, the
//     newest commit timestamp and the largest transaction id. There are no
//     losers to find: a write's record is appended in one batch with its
//     commit record, right before it, and the log keeps the batch whole or
//     not at all, so every run of op records ends in a commit record. One
//     that does not is in a log this TC did not write, and Recover refuses
//     it, as it refuses a record of a kind it does not write (the
//     compensation and abort records of a TC that logged undo).
//  2. One resend per DC, the one RecoverDC runs: open its bracket, which
//     fences the dead incarnation's requests, resend every logged operation
//     of that DC from the RSSP onward in LSN order — repeating history at the
//     logical level (DC idempotence filters what survived) — and close the
//     bracket; a DC that restarted meanwhile is resent to again. There is
//     nothing to undo: a DC holds no operation beyond the stable log.
//  3. Broadcast the watermarks, and allow normal processing.
//
// All of it runs on the next incarnation before anyone else can see it: the
// incarnation is published last, whole, and only if no Crash ended its log
// generation meanwhile — a Crash during Recover wins, Recover then fails
// wrapping ErrTCStopped with the TC still down, and the next Recover mints a
// larger epoch. A refused log leaves the TC down too, with nothing minted.
// Recover is not safe to run twice at once.
func (t *TC) Recover() error {
	if t.inc.Load() != nil {
		return errors.New("tc: recover called while running")
	}
	gen := t.log.Generation()
	stableEnd := t.log.EOSL()
	records := t.log.Scan(0)

	// --- analysis ---
	rssp := base.LSN(1)
	var open base.LSN // the first op record of a run no commit record has closed yet
	maxTxn := uint64(0)
	maxEpoch := base.Epoch(0)
	maxCommitTS := base.TS(0)
	for _, rec := range records {
		if open != 0 && rec.Kind != recOp && rec.Kind != recCommit {
			break // the run ended without its commit record
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
		case recOp:
			if open == 0 {
				open = rec.LSN
			}
		case recCommit:
			open = 0
			maxTxn = max(maxTxn, uint64(rec.Txn))
			if cts, err := decodeCommit(rec.Payload); err == nil && cts > maxCommitTS {
				maxCommitTS = cts
			}
		default:
			return fmt.Errorf("tc %d: restart: record @%d is of kind %d, which this TC does not write", t.cfg.ID, rec.LSN, rec.Kind)
		}
	}
	if open != 0 {
		return fmt.Errorf("tc %d: restart: op record @%d has no commit record", t.cfg.ID, open)
	}

	t.rssp.Store(uint64(rssp))

	// Re-seed the commit-timestamp allocator above every durable commit
	// and above the clock's current reading. The clock clamp covers safe
	// timestamps a previous process broadcast without committing anything
	// (those tracked its clock), relying on the wall clock not stepping
	// backwards across a process restart — the same assumption the System
	// clock's monotonic forcing makes within one process. The same reading
	// floors the horizon, as in New, and the closing broadcast below sends
	// it. A DC only ever raises the horizon it holds for this TC, so no
	// snapshot may be handed out below one a previous process sent; the
	// closing broadcast's own horizon (the re-seeded safe timestamp less a
	// tick) already covers that, so the floor is defence in depth.
	now, _ := t.clock.Now()
	if now > maxCommitTS {
		maxCommitTS = now
	}
	t.tsMu.Lock()
	if maxCommitTS > t.lastCommit {
		t.lastCommit = maxCommitTS
	}
	if now > t.maxHorizonSent {
		t.maxHorizonSent = now
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

	// --- DC redo (§5.3.2), one resend per DC: the DC fences the dead
	// incarnation's requests still on the wire with the new epoch; its
	// records are resent in LSN order; the bracket closes, discarding the
	// dead incarnation's leftovers. The watermarks wait for the last DC: one
	// whose bracket is not yet open would take the new incarnation's claims. ---
	for idx := range t.dcs {
		if _, err := inc.resend(idx); err != nil {
			return err
		}
	}
	// Every DC has acknowledged everything the log holds, so that is the
	// candidate the incarnation's first Checkpoint proposes: a TC that
	// restarts between every two checkpoints still moves its RSSP. Nobody
	// else can reach the incarnation before it is published.
	inc.candidate = inc.acks.LWM() + 1
	inc.broadcastWatermarks()
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

// RecoverDC runs this TC's resend to DC idx (§5.3.2 "DC Failure") and
// returns when it has ended; see resend. If one is running already, it has
// that one run once more and waits for it. Three things start a resend: a
// CodeStaleDC at either send site (deliver, Txn.sendUnlogged), which runs it
// on a goroutine of its own; a deployment that restarted a DC in process;
// and a remote deployment's reconnect hook, which only asks — an idle TC
// sends nothing the DC could refuse, and a reconnect may or may not have
// been a DC restart. A DC that did not restart owes nothing, and nothing is
// replayed.
func (t *TC) RecoverDC(idx int) error {
	if idx < 0 || idx >= len(t.dcs) {
		return fmt.Errorf("tc %d: no DC %d", t.cfg.ID, idx)
	}
	inc := t.inc.Load()
	if inc == nil {
		return nil // down: the TC's own restart resends to every DC
	}
	if h := t.dcs[idx]; !h.claim() {
		return h.waitReady(context.Background())
	}
	return inc.runResend(idx)
}

// startResend has the resend to DC idx run on a goroutine of its own, unless
// one is running already, which then runs once more. Senders wait for it at
// the DC's gate; nothing else does: like a delivery parked in deliver, it
// leaves when the DC answers, the incarnation dies or the stub closes.
func (inc *incarnation) startResend(idx int) {
	if inc.tc.dcs[idx].claim() {
		go inc.runResend(idx)
	}
}

// runResend runs the resend to DC idx that claim handed its caller, as often
// as it is asked for meanwhile, broadcasting the watermarks the DC takes
// again after each that was owed, and then opens the gate.
func (inc *incarnation) runResend(idx int) error {
	for {
		owed, err := inc.resend(idx)
		if owed {
			inc.broadcastWatermarks()
		}
		if !inc.tc.dcs[idx].release(err == nil) {
			return err
		}
	}
}

// resend is the one resend of this TC to one DC (§5.3.1: a TC resumes normal
// work with a DC only once it has resent its redo stream to it), run by
// Recover and RecoverDC: open the bracket, resending the DC's records, and
// close it. A DC that owes nothing says so when the bracket opens, and
// nothing is resent.
func (inc *incarnation) resend(idx int) (owed bool, err error) {
	owed, err = inc.openBracket(idx)
	if err == nil && owed {
		err = inc.closeBracket(idx)
	}
	if err != nil {
		return false, fmt.Errorf("tc %d: resend to DC %d: %w", inc.tc.cfg.ID, idx, err)
	}
	return owed, nil
}

// errDCRestarted ends a delivery inside a resend bracket whose DC answers
// with an incarnation the bracket is not bound to: the DC restarted under
// the resend, which starts over.
var errDCRestarted = errors.New("tc: DC restarted under the resend")

// openBracket begins the resend bracket of this incarnation at DC idx
// (BeginRestart, told the end of the stable log) and resends that DC's records from
// the redo scan start point in LSN order, in windows of maxBatch — the
// stream is ordered, and a failure stops it at its window — stamped with
// this incarnation's epoch (a logged, dead epoch would be refused by the DC
// fence) and with the DC incarnation the first CodeStaleDC names. DC
// idempotence filters what survived. It starts over, with a fresh scan,
// whenever the DC restarts under it, and reports false, having resent
// nothing, when the DC owes nothing (ErrNothingOwed).
func (inc *incarnation) openBracket(idx int) (owed bool, err error) {
	t := inc.tc
	for {
		if !inc.log.Live() {
			return false, ErrTCStopped // a dead incarnation has nothing to resend
		}
		inc.bound[idx].Store(0)
		err := t.dcs[idx].svc.BeginRestart(context.Background(), t.cfg.ID, inc.epoch, t.log.EOSL())
		if errors.Is(err, base.ErrNothingOwed) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		if err := inc.redo(idx); !errors.Is(err, errDCRestarted) {
			return true, err
		}
	}
}

// redo resends DC idx's records from the redo scan start point, in one
// delivery (see openBracket). A versioned write is resent stamped with the
// timestamp of the commit record that closes its run of op records — its
// batch's — so the DC receives exactly what the commit shipped. Every run is
// closed: Recover refuses a log where one is not, and the stable log a live
// incarnation scans holds whole batches only.
func (inc *incarnation) redo(idx int) error {
	t := inc.tc
	var ops []*base.Op
	run := 0 // the ops of the run of op records not yet closed: ops' tail
	for _, rec := range t.log.Scan(t.RSSP()) {
		if rec.Kind == recCommit {
			ts, err := decodeCommit(rec.Payload)
			if err != nil {
				return fmt.Errorf("redo decode @%d: %w", rec.LSN, err)
			}
			for _, op := range ops[len(ops)-run:] {
				if op.Versioned {
					op.TS = ts
				}
			}
			run = 0
		}
		if rec.Kind != recOp {
			continue
		}
		op, err := base.DecodeOpPayload(rec.Payload)
		if err != nil {
			return fmt.Errorf("redo decode @%d: %w", rec.LSN, err)
		}
		to, err := t.dcIndex(op.Table, op.Key)
		if err != nil {
			// The op routed when it was logged: a failing lookup means the
			// placement changed underneath a durable log, and redo cannot
			// repeat history against the wrong DC. Fail the restart loudly.
			return fmt.Errorf("redo @%d: %w", rec.LSN, err)
		}
		if to != idx {
			continue
		}
		op.TC, op.LSN, op.Epoch = t.cfg.ID, rec.LSN, inc.epoch
		ops = append(ops, op)
		run++
	}
	if err := inc.deliver(context.Background(), idx, ops, true); err != nil {
		return fmt.Errorf("redo: %w", err)
	}
	t.redoOps.Add(uint64(len(ops)))
	return nil
}

// closeBracket ends the resend bracket at DC idx (EndRestart). A DC that did
// not see it begin restarted under it: the bracket is opened, and the DC's
// records resent, again.
func (inc *incarnation) closeBracket(idx int) error {
	t := inc.tc
	for {
		err := t.dcs[idx].svc.EndRestart(context.Background(), t.cfg.ID, inc.epoch)
		if !errors.Is(err, base.ErrStaleDC) {
			return err
		}
		if owed, err := inc.openBracket(idx); err != nil || !owed {
			return err
		}
	}
}
