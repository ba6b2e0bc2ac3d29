package monolith

import (
	"encoding/binary"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/wal"
)

// Crash simulates a whole-engine failure: log and cache manager fail
// together (§5.3.1: "Failures in a monolithic database kernel are never
// partial").
func (e *Engine) Crash() {
	e.mu.Lock()
	e.pool = nil
	e.forest = nil
	e.txns = make(map[base.TxnID]*Txn)
	e.mu.Unlock()
	e.log.Crash()
	e.locks = lockmgr.New()
}

// Recover is ARIES-style restart: repeat history with page-oriented redo
// (the traditional "operation LSN <= page LSN" test, sound here because
// LSNs were assigned under page latches), then logical undo of losers.
func (e *Engine) Recover() error {
	pool := e.newPool()
	e.mu.Lock()
	e.pool = pool
	e.mu.Unlock()

	records := e.log.Scan(0)

	// Analysis.
	rssp := base.LSN(1)
	losers := make(map[base.TxnID]base.LSN)
	maxTxn := uint64(0)
	for _, rec := range records {
		if uint64(rec.Txn) > maxTxn {
			maxTxn = uint64(rec.Txn)
		}
		switch rec.Kind {
		case recCheckpoint:
			if u, n := binary.Uvarint(rec.Payload); n > 0 && base.LSN(u) > rssp {
				rssp = base.LSN(u)
			}
		case recOp, recCLR:
			if rec.Txn != 0 {
				losers[rec.Txn] = rec.LSN
			}
		case recCommit, recAbort:
			delete(losers, rec.Txn)
		}
	}

	// Redo: repeat history from the redo scan start point, structure
	// modifications and user operations interleaved in log order.
	for _, rec := range records {
		if rec.LSN < rssp {
			continue
		}
		if err := e.redoRecord(rec); err != nil {
			return err
		}
	}

	forest, err := e.openForest(pool)
	if err != nil {
		return err
	}

	e.mu.Lock()
	e.forest = forest
	e.nextTxn = maxTxn
	e.rssp = rssp
	e.mu.Unlock()

	// Undo losers (logical inverses, CLR-protected).
	for txn, lastLSN := range losers {
		e.undoChain(txn, lastLSN)
		e.log.AppendAssign(&wal.Record{Kind: recAbort, Txn: txn, Prev: lastLSN})
	}
	return nil
}

// redoRecord repeats one record of history: user operations here, every
// structure modification through the redo the DC uses.
func (e *Engine) redoRecord(rec *wal.Record) error {
	switch rec.Kind {
	case recOp, recCLR:
		return e.redoOp(rec)
	case recCommit, recAbort, recCheckpoint:
		return nil
	}
	return btree.Redo(e.pool, rec.Kind, rec.Payload, base.DLSN(rec.LSN))
}

// redoOp is physiological redo: apply to the logged page iff the page LSN
// says the effect is missing.
func (e *Engine) redoOp(rec *wal.Record) error {
	pageID, op, _, _, err := decodeOpPayload(rec.Payload)
	if err != nil {
		return err
	}
	pg, err := e.pool.Fetch(pageID)
	if err != nil {
		return err
	}
	if pg == nil {
		return fmt.Errorf("monolith: redo of LSN %d: page %d is missing: the store is corrupt", rec.LSN, pageID)
	}
	pg.L.Lock()
	if pg.DLSN < base.DLSN(rec.LSN) {
		applyMonoWrite(pg, op.Kind, op.Key, op.Value)
		pg.DLSN = base.DLSN(rec.LSN)
		e.pool.MarkDirty(pg, 0, 0, pg.DLSN)
		e.redoOps.Add(1)
	}
	pg.L.Unlock()
	e.pool.Unpin(pageID)
	return nil
}
