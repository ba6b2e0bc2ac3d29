// Package monolith is the baseline the paper unbundles: a traditional
// integrated transactional storage manager in which the lock manager, log
// manager, buffer pool, and access methods are one tightly bound engine
// (§1 quoting Hellerstein et al.). Its physical half is the DC's, by
// reference and not by copy: the same pages and buffer pool, and from
// package btree the same trees, catalog page, format step, table creation
// and system-transaction redo — so the baseline cannot drift from the
// kernel it is measured against. What differs is what the paper says
// differs:
//
//   - one integrated log holds user operations and structure
//     modifications, in strict history order;
//   - log records are physiological: each user-op record names the page it
//     modified, and the LSN is assigned *while the page latch is held*, so
//     the traditional idempotence test "operation LSN <= page LSN" is
//     sound (§5.1.1) — there is no out-of-order problem to solve and no
//     abstract LSNs;
//   - there are no messages: the "TC half" calls the "DC half" by function
//     call.
//
// Experiment E1 compares this engine with the unbundled kernel on the same
// workloads: the paper predicts the unbundled kernel pays a constant
// factor for its longer code paths and message round trips (§7).
package monolith

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// Integrated-log record kinds (values disjoint from dclog's, which this
// engine reuses verbatim for structure modifications).
const (
	recOp         uint8 = 10 + iota // physiological user operation
	recCLR                          // compensation (logical inverse)
	recCommit                       // transaction commit
	recAbort                        // abort complete
	recCheckpoint                   // redo scan start point
)

// Config shapes the engine.
type Config struct {
	// PageBytes is the split threshold (default 4096). The pool takes
	// buffer's default capacity, lock waits are unbounded and a log force is
	// instant: nothing in the tree ever configured those.
	PageBytes int
}

// Stats counts engine activity.
type Stats struct {
	Commits uint64
	Aborts  uint64
	RedoOps uint64
	UndoOps uint64
}

// Engine is the integrated kernel.
type Engine struct {
	cfg   Config
	store *storage.PageStore
	log   *wal.Log
	pool  *buffer.Pool
	locks *lockmgr.Manager

	mu      sync.Mutex
	forest  *btree.Forest // nil while crashed
	txns    map[base.TxnID]*Txn
	nextTxn uint64
	rssp    base.LSN

	commits, aborts, redoOps, undoOps atomic.Uint64
}

// New formats an engine over fresh stable media.
func New(cfg Config) (*Engine, error) {
	if cfg.PageBytes <= 0 {
		cfg.PageBytes = 4096
	}
	e := &Engine{
		cfg:   cfg,
		store: storage.NewPageStore(),
		txns:  make(map[base.TxnID]*Txn),
		locks: lockmgr.New(),
		rssp:  1,
	}
	var err error
	e.log, err = wal.New(storage.NewLogStore())
	if err != nil {
		return nil, err
	}
	if err := btree.Format(e.store); err != nil {
		return nil, err
	}
	e.pool = e.newPool()
	if e.forest, err = e.openForest(e.pool); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) newPool() *buffer.Pool {
	open := func(base.TCID) base.LSN { return 1 << 62 }
	return buffer.New(
		buffer.Config{},
		e.store,
		buffer.Gates{
			EOSL: open, LWM: open, // no abstract LSNs in the monolith
			// Classic write-ahead logging: force the integrated log
			// through the page LSN before the page is written.
			ForceDCLog: e.ForceSMO,
		})
}

func (e *Engine) openForest(pool *buffer.Pool) (*btree.Forest, error) {
	return btree.Open(btree.Config{MaxPageBytes: e.cfg.PageBytes}, pool, e.store.AllocPageID, e)
}

// AppendSMO implements dclog.Logger on the integrated log.
func (e *Engine) AppendSMO(kind uint8, payload []byte) base.DLSN {
	return base.DLSN(e.log.AppendAssign(&wal.Record{Kind: kind, Payload: payload}))
}

// ForceSMO implements dclog.Logger.
func (e *Engine) ForceSMO(d base.DLSN) { e.log.ForceTo(base.LSN(d)) }

// Log exposes the integrated log (benches).
func (e *Engine) Log() *wal.Log { return e.log }

// Pool exposes the buffer pool (benches).
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// CreateTable durably creates an empty table. Idempotent.
func (e *Engine) CreateTable(table string) error {
	f := e.live()
	if f == nil {
		return errors.New("monolith: engine is down")
	}
	return f.CreateTable(table)
}

func (e *Engine) live() *btree.Forest {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.forest
}

func (e *Engine) tree(table string) *btree.Tree {
	if f := e.live(); f != nil {
		return f.Tree(table)
	}
	return nil
}

// Checkpoint flushes all dirty pages and truncates the log below both the
// redo scan start point and the oldest active transaction.
func (e *Engine) Checkpoint() (base.LSN, error) {
	e.log.Force()
	if err := e.pool.FlushAll(true, nil); err != nil {
		return 0, err
	}
	newRSSP := e.log.LastLSN() + 1
	e.mu.Lock()
	e.rssp = newRSSP
	oldest := base.LSN(0)
	for _, x := range e.txns {
		if x.state == txnActive && x.firstLSN != 0 && (oldest == 0 || x.firstLSN < oldest) {
			oldest = x.firstLSN
		}
	}
	e.mu.Unlock()
	e.log.AppendAssign(&wal.Record{Kind: recCheckpoint, Payload: binary.AppendUvarint(nil, uint64(newRSSP))})
	e.log.Force()
	trunc := newRSSP
	if oldest != 0 && oldest < trunc {
		trunc = oldest
	}
	e.log.Truncate(trunc)
	return newRSSP, nil
}

// Stats returns a snapshot of counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Commits: e.commits.Load(),
		Aborts:  e.aborts.Load(),
		RedoOps: e.redoOps.Load(),
		UndoOps: e.undoOps.Load(),
	}
}

// --- record payloads ----------------------------------------------------

// opPayload is the physiological user-op record: the page it modified plus
// the logical operation and undo value.
func encodeOpPayload(pageID base.PageID, op *base.Op, prior []byte, priorFound bool) []byte {
	buf := binary.AppendUvarint(nil, uint64(pageID))
	saved := op.LSN
	op.LSN = 0
	buf = base.AppendOp(buf, op)
	op.LSN = saved
	buf = binary.AppendUvarint(buf, uint64(len(prior)))
	buf = append(buf, prior...)
	if priorFound {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

func decodeOpPayload(payload []byte) (pageID base.PageID, op *base.Op, prior []byte, priorFound bool, err error) {
	u, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, nil, nil, false, fmt.Errorf("monolith: corrupt op payload")
	}
	pageID = base.PageID(u)
	op, rest, err := base.DecodeOp(payload[w:])
	if err != nil {
		return 0, nil, nil, false, err
	}
	n, w2 := binary.Uvarint(rest)
	if w2 <= 0 || n > uint64(len(rest)-w2) {
		return 0, nil, nil, false, fmt.Errorf("monolith: corrupt op payload")
	}
	rest = rest[w2:]
	if n > 0 {
		prior = append([]byte(nil), rest[:n]...)
	}
	rest = rest[n:]
	if len(rest) < 1 {
		return 0, nil, nil, false, fmt.Errorf("monolith: corrupt op payload")
	}
	return pageID, op, prior, rest[0] != 0, nil
}
