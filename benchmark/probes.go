package main

import (
	"context"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/btree"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/monolith"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// Layer probes: each replays n transactions of the workload's own keys
// (client 0's write stream, same seed) into one layer's public functions, with no other
// layer running, so a change to that layer moves its probe and nothing
// else does.

// probeTxnsPerLayer is how many 4-key transactions each probe replays.
const probeTxnsPerLayer = 50_000

// probeLayers runs every probe the workload's path calls for and writes
// its metric into m. The monolith comparison runs for monoDur and is set
// against refRate, the reference window's transaction rate.
func probeLayers(cfg config, monoDur time.Duration, refRate float64, m map[string]float64) error {
	parts := newPartitions(cfg.sp)
	stream := func() *generator { return newGenerator(cfg.sp, cfg.seed, 0, parts) }
	n := scaleCount(probeTxnsPerLayer, cfg.scale)
	m["lockmgr.txn_us"] = us(probeLockmgr(stream(), n))
	d, err := probeWAL(stream(), n)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	m["wal.append_force_us"] = us(d)
	if d, err = probeBtree(stream(), n); err != nil {
		return fmt.Errorf("btree probe: %w", err)
	}
	m["btree.apply_us"] = us(d)
	if cfg.sp.tcp {
		if d, err = probeCodec(stream(), n); err != nil {
			return fmt.Errorf("codec probe: %w", err)
		}
		m["wire.codec_op_ns"] = float64(d)
		return nil
	}
	mono, err := probeMonolith(stream(), monoDur)
	if err != nil {
		return fmt.Errorf("monolith probe: %w", err)
	}
	m["monolith.txn_per_s"], m["monolith.tax"] = mono, mono/refRate
	return nil
}

// probeLockmgr times what a write transaction asks of the lock manager:
// four exclusive key locks, then release of everything it holds.
func probeLockmgr(g *generator, n int) time.Duration {
	m, ctx := lockmgr.New(), context.Background()
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		g.nextWrite()
		for _, k := range g.idx {
			if err := m.LockWait(ctx, base.TxnID(i), lockmgr.KeyRes(table, g.own.keys[k]), lockmgr.X, 0); err != nil {
				panic(err) // one transaction at a time: nothing to wait for
			}
		}
		m.ReleaseAll(base.TxnID(i))
	}
	return time.Since(t0) / time.Duration(n)
}

// probeWAL times what a write transaction asks of the TC-log: four
// operation records, a commit record, and a force through it. The log is
// truncated every ckptEvery transactions, as a checkpoint would.
func probeWAL(g *generator, n int) (time.Duration, error) {
	log, err := wal.New(storage.NewLogStore())
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		g.nextWrite()
		var prev base.LSN
		for j, k := range g.idx {
			op := &base.Op{TC: 1, Kind: base.OpUpsert, Table: table, Key: g.own.keys[k], Value: g.vals[j]}
			prev = log.AppendAssign(&wal.Record{Kind: 1, Txn: base.TxnID(i), Prev: prev, Payload: base.AppendOp(nil, op)})
		}
		c := log.AppendAssign(&wal.Record{Kind: 3, Txn: base.TxnID(i), Prev: prev})
		log.ForceTo(c)
		if i%ckptEvery == 0 {
			log.Truncate(c)
		}
	}
	return time.Since(t0) / time.Duration(n), nil
}

// probeCodec times the wire encoding of one operation and its reply: op
// encode + decode, result encode + decode.
func probeCodec(g *generator, n int) (time.Duration, error) {
	var buf, rbuf []byte
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		g.nextWrite()
		for j, k := range g.idx {
			op := &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(i*opsPerTxn + j), Kind: base.OpUpsert,
				Table: table, Key: g.own.keys[k], Value: g.vals[j]}
			buf = base.AppendOp(buf[:0], op)
			got, _, err := base.DecodeOp(buf)
			if err != nil {
				return 0, err
			}
			rbuf = base.AppendResult(rbuf[:0], &base.Result{LSN: got.LSN, Code: base.CodeOK})
			if _, _, err := base.DecodeResult(rbuf); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(t0) / time.Duration(n*opsPerTxn), nil
}

// nullSMOLog is the DC-log of the standalone probe tree: structure
// modifications get a dLSN and nothing else.
type nullSMOLog struct{ next base.DLSN }

func (l *nullSMOLog) AppendSMO(uint8, []byte) base.DLSN { l.next++; return l.next }
func (l *nullSMOLog) ForceSMO(base.DLSN)                {}

// probeBtree times btree.Apply of an upsert on a standalone tree over its
// own default-sized pool and page store, loaded with client 0's partition.
func probeBtree(g *generator, n int) (time.Duration, error) {
	store := storage.NewPageStore()
	open := func(base.TCID) base.LSN { return 1 << 62 }
	pool := buffer.New(buffer.Config{}, store, buffer.Gates{EOSL: open, LWM: open})
	smo := &nullSMOLog{}
	rootID := store.AllocPageID()
	root := page.NewLeaf(rootID)
	pool.MarkDirty(root, 0, 0, smo.AppendSMO(0, nil))
	pool.Install(root)
	pool.Unpin(rootID)
	tree := btree.New(table, rootID, btree.Config{}, pool, store.AllocPageID, smo, nil)

	var lsn base.LSN
	put := func(key string, val []byte) error {
		lsn++
		_, _, err := tree.Apply(key, func(leaf *page.Page) bool {
			leaf.Put(page.Record{Key: key, Value: val})
			leaf.Ab.Ensure(1).Add(lsn)
			pool.MarkDirty(leaf, 1, lsn, 0)
			return false
		})
		return err
	}
	// Flushing on the checkpoint cadence prunes the abstract-LSN In sets,
	// as the driver's checkpoints do for the real DC (README, hazard a).
	for i, k := range g.own.keys {
		if err := put(k, newValue(0, i, 0)); err != nil {
			return 0, err
		}
		if i%(preloadCkptEvery*preloadBatch) == 0 {
			_ = pool.FlushAll(false, nil) // every gate is open
		}
	}
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		g.nextWrite()
		for j, k := range g.idx {
			if err := put(g.own.keys[k], g.vals[j]); err != nil {
				return 0, err
			}
		}
		if i%ckptEvery == 0 {
			_ = pool.FlushAll(false, nil)
		}
	}
	return time.Since(t0) / time.Duration(n*opsPerTxn), nil
}

// probeMonolith runs client 0's write stream through the integrated engine
// for dur: the paper's E1 comparison, same transactions, same checkpoint
// policy, no TC/DC split.
func probeMonolith(g *generator, dur time.Duration) (txnPerSec float64, err error) {
	e, err := monolith.New(monolith.Config{})
	if err != nil {
		return 0, err
	}
	if err := e.CreateTable(table); err != nil {
		return 0, err
	}
	keys := g.own.keys
	for lo, n := 0, 1; lo < len(keys); lo, n = lo+preloadBatch, n+1 {
		err := e.RunTxn(func(x *monolith.Txn) error {
			for i := lo; i < min(lo+preloadBatch, len(keys)); i++ {
				if err := x.Upsert(table, keys[i], newValue(0, i, 0)); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil && n%preloadCkptEvery == 0 {
			_, err = e.Checkpoint()
		}
		if err != nil {
			return 0, err
		}
	}
	if _, err := e.Checkpoint(); err != nil {
		return 0, err
	}
	write := func(x *monolith.Txn) error { return g.writeFn(x) }
	t0 := time.Now()
	n := 0
	for time.Since(t0) < dur {
		g.nextWrite()
		if err := e.RunTxn(write); err != nil {
			return 0, err
		}
		if n++; n%ckptEvery == 0 {
			if _, err := e.Checkpoint(); err != nil {
				return 0, err
			}
		}
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}
