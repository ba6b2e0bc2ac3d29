package monolith

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/wal"
)

// Errors mirroring the tc package's transaction API.
var (
	ErrTxnDone   = errors.New("monolith: transaction already finished")
	ErrNotFound  = errors.New("monolith: key not found")
	ErrDuplicate = errors.New("monolith: key already exists")
)

type txnState uint8

const (
	txnActive txnState = iota
	txnCommitted
	txnAborted
)

// Txn is one transaction in the integrated engine.
type Txn struct {
	e                 *Engine
	id                base.TxnID
	state             txnState
	firstLSN, lastLSN base.LSN
}

// Begin starts a transaction.
func (e *Engine) Begin() *Txn {
	e.mu.Lock()
	e.nextTxn++
	x := &Txn{e: e, id: base.TxnID(e.nextTxn)}
	e.txns[x.id] = x
	e.mu.Unlock()
	return x
}

// RunTxn runs fn in a transaction, retrying deadlock victims.
func (e *Engine) RunTxn(fn func(*Txn) error) error {
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		x := e.Begin()
		err = fn(x)
		if err == nil {
			if err = x.Commit(); err == nil {
				return nil
			}
		} else {
			_ = x.Abort()
		}
		if !errors.Is(err, lockmgr.ErrDeadlock) && !errors.Is(err, lockmgr.ErrTimeout) {
			return err
		}
	}
	return err
}

// Read returns the value for key under a shared lock.
func (x *Txn) Read(table, key string) ([]byte, bool, error) {
	if x.state != txnActive {
		return nil, false, ErrTxnDone
	}
	if err := x.lock(table, key, lockmgr.S); err != nil {
		return nil, false, err
	}
	t := x.e.tree(table)
	if t == nil {
		return nil, false, fmt.Errorf("monolith: no table %s", table)
	}
	var val []byte
	var found bool
	err := t.View(key, func(leaf *page.Page) {
		if r := leaf.Get(key); r != nil {
			val = append([]byte(nil), r.Value...)
			found = true
		}
	})
	return val, found, err
}

func (x *Txn) lock(table, key string, mode lockmgr.Mode) error {
	if err := x.e.locks.Lock(context.Background(), x.id, lockmgr.KeyRes(table, key), mode); err != nil {
		_ = x.Abort()
		return err
	}
	return nil
}

// Insert adds a record; ErrDuplicate if present.
func (x *Txn) Insert(table, key string, val []byte) error {
	return x.write(base.OpInsert, table, key, val)
}

// Update overwrites a record; ErrNotFound if absent.
func (x *Txn) Update(table, key string, val []byte) error {
	return x.write(base.OpUpdate, table, key, val)
}

// Upsert writes regardless of prior existence.
func (x *Txn) Upsert(table, key string, val []byte) error {
	return x.write(base.OpUpsert, table, key, val)
}

// Delete removes a record; ErrNotFound if absent.
func (x *Txn) Delete(table, key string) error {
	return x.write(base.OpDelete, table, key, nil)
}

// write is the integrated engine's fast path: one descent; the log record
// (with its pre-image, read directly off the page) is appended and the
// page LSN stamped while the page latch is held — the §5.1.1 discipline
// that makes the traditional idempotence test work.
func (x *Txn) write(kind base.OpKind, table, key string, val []byte) error {
	if x.state != txnActive {
		return ErrTxnDone
	}
	if err := x.lock(table, key, lockmgr.X); err != nil {
		return err
	}
	t := x.e.tree(table)
	if t == nil {
		return fmt.Errorf("monolith: no table %s", table)
	}
	var opErr error
	err := t.ApplyRun(1, func(int) string { return key }, func(_ int, leaf *page.Page) {
		rec := leaf.Get(key)
		var prior []byte
		priorFound := rec != nil
		if rec != nil {
			prior = append([]byte(nil), rec.Value...)
		}
		switch kind {
		case base.OpInsert:
			if rec != nil {
				opErr = ErrDuplicate
				return
			}
		case base.OpUpdate, base.OpDelete:
			if rec == nil {
				opErr = ErrNotFound
				return
			}
		}
		op := &base.Op{Kind: kind, Table: table, Key: key, Value: val}
		lrec := &wal.Record{Kind: recOp, Txn: x.id, Prev: x.lastLSN,
			Payload: encodeOpPayload(leaf.ID, op, prior, priorFound)}
		lsn := x.e.log.AppendAssign(lrec)
		applyMonoWrite(leaf, kind, key, val)
		leaf.DLSN = base.DLSN(lsn) // the traditional page LSN
		x.e.pool.MarkDirty(leaf, 0, 0, base.DLSN(lsn))
		if x.firstLSN == 0 {
			x.firstLSN = lsn
		}
		x.lastLSN = lsn
	})
	if err != nil {
		return err
	}
	return opErr
}

// applyMonoWrite mutates the latched leaf (no versioning in the baseline).
func applyMonoWrite(leaf *page.Page, kind base.OpKind, key string, val []byte) {
	switch kind {
	case base.OpInsert, base.OpUpsert, base.OpUpdate:
		v := val
		if len(v) > 0 {
			v = append([]byte(nil), val...)
		} else {
			v = nil
		}
		leaf.Put(page.Record{Key: key, Value: v})
	case base.OpDelete:
		leaf.Remove(key)
	}
}

// Scan reads [lo, hi) locking each key as it is encountered (ARIES/IM-
// style key locking happens inside the engine where the keys are known,
// §3.1's observation about integrated kernels).
func (x *Txn) Scan(table, lo, hi string, limit int) (keys []string, vals [][]byte, err error) {
	if x.state != txnActive {
		return nil, nil, ErrTxnDone
	}
	t := x.e.tree(table)
	if t == nil {
		return nil, nil, fmt.Errorf("monolith: no table %s", table)
	}
	if limit <= 0 {
		limit = 1 << 30
	}
	err = t.Scan(lo, func(leaf *page.Page) bool {
		stopped := leaf.Ascend(lo, hi, func(r *page.Record) bool {
			keys = append(keys, strings.Clone(r.Key)) // a record aliases its page's image
			vals = append(vals, append([]byte(nil), r.Value...))
			return len(keys) < limit
		})
		return !stopped
	})
	if err != nil {
		return nil, nil, err
	}
	// Lock what was seen (keys determined inside the engine).
	for _, k := range keys {
		if lerr := x.e.locks.Lock(context.Background(), x.id, lockmgr.KeyRes(table, k), lockmgr.S); lerr != nil {
			_ = x.Abort()
			return nil, nil, lerr
		}
	}
	return keys, vals, nil
}

// Commit forces the log through the commit record and releases locks.
func (x *Txn) Commit() error {
	if x.state != txnActive {
		return ErrTxnDone
	}
	e := x.e
	c := e.log.AppendAssign(&wal.Record{Kind: recCommit, Txn: x.id, Prev: x.lastLSN})
	e.log.ForceTo(c)
	x.state = txnCommitted
	e.locks.ReleaseAll(x.id)
	e.mu.Lock()
	delete(e.txns, x.id)
	e.mu.Unlock()
	e.commits.Add(1)
	return nil
}

// Abort rolls back via logical inverses, logging compensation records.
func (x *Txn) Abort() error {
	if x.state != txnActive {
		if x.state == txnAborted {
			return nil
		}
		return ErrTxnDone
	}
	e := x.e
	e.undoChain(x.id, x.lastLSN)
	e.log.AppendAssign(&wal.Record{Kind: recAbort, Txn: x.id, Prev: x.lastLSN})
	x.state = txnAborted
	e.locks.ReleaseAll(x.id)
	e.mu.Lock()
	delete(e.txns, x.id)
	e.mu.Unlock()
	e.aborts.Add(1)
	return nil
}

// undoChain applies logical inverses for the chain ending at lastLSN,
// exactly the multi-level undo of §5.2.1: page-oriented redo, logical
// undo. Shared by Abort and restart.
func (e *Engine) undoChain(txn base.TxnID, lastLSN base.LSN) {
	cur := lastLSN
	for cur != 0 {
		rec := e.log.Get(cur)
		if rec == nil {
			return
		}
		switch rec.Kind {
		case recOp:
			_, op, prior, priorFound, err := decodeOpPayload(rec.Payload)
			if err != nil {
				return
			}
			if inv := inverseMonoOp(op, prior, priorFound); inv != nil {
				e.applyUndo(txn, cur, rec.Prev, inv)
			}
			cur = rec.Prev
		case recCLR:
			cur = rec.NextUndo
		default:
			cur = rec.Prev
		}
	}
}

// applyUndo executes one inverse operation through the normal descent
// (logical undo must tolerate records having moved between pages), logging
// a CLR whose page field is resolved at apply time.
func (e *Engine) applyUndo(txn base.TxnID, undone, nextUndo base.LSN, inv *base.Op) {
	t := e.tree(inv.Table)
	if t == nil {
		return
	}
	_ = t.ApplyRun(1, func(int) string { return inv.Key }, func(_ int, leaf *page.Page) {
		clr := &wal.Record{Kind: recCLR, Txn: txn, Prev: undone, NextUndo: nextUndo,
			Payload: encodeOpPayload(leaf.ID, inv, nil, false)}
		lsn := e.log.AppendAssign(clr)
		applyMonoWrite(leaf, inv.Kind, inv.Key, inv.Value)
		leaf.DLSN = base.DLSN(lsn)
		e.pool.MarkDirty(leaf, 0, 0, base.DLSN(lsn))
		e.undoOps.Add(1)
	})
}

func inverseMonoOp(op *base.Op, prior []byte, priorFound bool) *base.Op {
	switch op.Kind {
	case base.OpInsert:
		return &base.Op{Kind: base.OpDelete, Table: op.Table, Key: op.Key}
	case base.OpUpdate:
		return &base.Op{Kind: base.OpUpdate, Table: op.Table, Key: op.Key, Value: prior}
	case base.OpUpsert:
		if priorFound {
			return &base.Op{Kind: base.OpUpdate, Table: op.Table, Key: op.Key, Value: prior}
		}
		return &base.Op{Kind: base.OpDelete, Table: op.Table, Key: op.Key}
	case base.OpDelete:
		return &base.Op{Kind: base.OpInsert, Table: op.Table, Key: op.Key, Value: prior}
	}
	return nil
}
