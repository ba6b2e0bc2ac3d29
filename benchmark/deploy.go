package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// staleness is the bounded-staleness window of every read-only
// transaction the workloads issue under load (README, hazard c).
const staleness = 10 * time.Millisecond

// txnOps is what a transaction body needs from a transaction; *tc.Txn
// provides it, and the traced pass wraps it to put a span around each call.
type txnOps interface {
	Upsert(table, key string, val []byte) error
	Read(table, key string) ([]byte, bool, error)
	Scan(table, lo, hi string, limit int) ([]string, [][]byte, error)
}

// body is one transaction body in the two shapes the passes call it.
type body struct {
	ops   func(txnOps) error
	plain func(*tc.Txn) error
}

func newBody(ops func(txnOps) error) *body {
	return &body{ops: ops, plain: func(x *tc.Txn) error { return ops(x) }}
}

// system is one deployment under test: TCs, the DC, and whatever connects
// them. The untraced pass builds it the way a user does (core.New and the
// deployment client, every knob at its zero value); the traced pass
// assembles the same topology from the layers' public constructors so it
// can put a tracedService on each side of the wire.
type system struct {
	sp  spec
	tcs []*tc.TC
	dc  *dc.DC
	dep *core.Deployment // untraced pass only
	lis *wire.Listener   // TCP workloads only

	// Traced pass only.
	tr      *tracer
	wcs     []*wire.Client
	svcs    []*tracedService // TC side, one per TC
	srv     *tracedService   // DC side of the wire (TCP only)
	traced  []*tracedClient
	retries atomic.Uint64
}

func openSystem(sp spec, traced bool) (*system, error) {
	s := &system{sp: sp}
	var err error
	if traced || sp.tcp {
		// The DC a remote deployment dials is built the way
		// cmd/unbundled-dc builds it, on in-memory stable media.
		if s.dc, err = dc.New(dc.Config{Name: "dc0"}); err != nil {
			return nil, err
		}
		if err = s.dc.CreateTable(table); err != nil {
			return nil, err
		}
	}
	if traced {
		err = s.assembleTraced()
	} else {
		err = s.assembleCore()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) assembleCore() error {
	opts := core.Options{TCs: s.sp.clients, DCs: 1, Tables: []string{table}}
	if s.sp.tcp {
		var err error
		if s.lis, err = wire.ListenWith("127.0.0.1:0", s.dc, wire.ListenConfig{}); err != nil {
			return err
		}
		opts = core.Options{TCs: s.sp.clients, DCAddrs: []string{s.lis.Addr()}}
	}
	dep, err := core.New(opts)
	if err != nil {
		return err
	}
	s.dep, s.tcs = dep, dep.TCs
	if !s.sp.tcp {
		s.dc = dep.DCs[0]
	}
	return dep.WaitConnected(context.Background())
}

func (s *system) assembleTraced() error {
	s.tr = newTracer(s.sp.clients)
	var target base.Service = s.dc
	if s.sp.tcp {
		s.srv = &tracedService{inner: s.dc, tr: s.tr, log: s.tr.server, kind: spanServe}
		var err error
		if s.lis, err = wire.ListenWith("127.0.0.1:0", s.srv, wire.ListenConfig{}); err != nil {
			return err
		}
	}
	for i := 0; i < s.sp.clients; i++ {
		cur := newCursor()
		inner := target
		if s.sp.tcp {
			wc := wire.Dial(s.lis.Addr(), wire.DialConfig{})
			s.wcs = append(s.wcs, wc)
			if err := wc.WaitConnected(context.Background()); err != nil {
				return err
			}
			inner = wc
		}
		svc := &tracedService{inner: inner, tr: s.tr, log: s.tr.client[i], kind: spanCall, cur: cur}
		t, err := tc.New(tc.Config{ID: base.TCID(i + 1)}, []base.Service{svc}, nil)
		if err != nil {
			return err
		}
		s.tcs = append(s.tcs, t)
		s.svcs = append(s.svcs, svc)
		s.traced = append(s.traced, &tracedClient{tr: s.tr, log: s.tr.client[i], cur: cur, tcid: t.ID(),
			ctx: context.WithValue(context.Background(), cursorKey{}, cur)})
	}
	return nil
}

func (s *system) close() {
	if s.dep != nil {
		s.dep.Close()
	} else {
		for _, t := range s.tcs {
			t.Close()
		}
		for _, wc := range s.wcs {
			wc.Close()
		}
	}
	if s.lis != nil {
		s.lis.Close()
	}
	if s.dc != nil {
		s.dc.Close()
	}
}

// exec runs one transaction of client (pinned to TC client+1) to its end:
// through the deployment client on the untraced pass, through the TC with
// a span around every step on the traced pass.
func (s *system) exec(client int, opts tc.TxnOptions, b *body) error {
	if s.dep != nil {
		return s.dep.Client().RunTxn(context.Background(), core.TxnOptions{
			TC: client + 1, Versioned: opts.Versioned, ReadOnly: opts.ReadOnly,
			Snapshot: opts.Snapshot, Staleness: opts.Staleness,
		}, b.plain)
	}
	return s.execTraced(client, opts, b)
}

// execTraced is core.Client.RunTxn spelled out (begin, body, commit or
// abort, retry of transient aborts) so each step gets its span. With
// tracing switched off it is the traced deployment's untraced reference.
func (s *system) execTraced(client int, opts tc.TxnOptions, b *body) error {
	c := s.traced[client]
	t := s.tcs[client]
	c.sample()
	if c.on {
		id := c.cur.txn.Add(1)
		c.root = c.log.begin(span{Kind: spanTxn, TC: t.ID(), Txn: id, Parent: -1, Start: s.tr.now()})
	}
	var err error
	for attempt := 0; attempt < 8; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
		}
		i := c.step(spanBegin)
		c.x = t.Begin(c.ctx, opts)
		c.done(i)
		if err = b.ops(c); err != nil {
			_ = c.x.Abort()
		} else {
			i = c.step(spanCommit)
			c.cur.commit.Store(int32(i))
			err = c.x.Commit()
			c.cur.commit.Store(-1)
			c.done(i)
		}
		if err == nil || !base.IsTransient(err) || errors.Is(err, tc.ErrCommitAmbiguous) {
			break
		}
	}
	c.cur.parent.Store(-1)
	c.done(c.root)
	return err
}

// tracedClient is one client's seat in the traced deployment: its TC-side
// span log, its cursor, and the transaction it is running. It is the
// txnOps a body sees, putting a tc.op span around each call.
type tracedClient struct {
	tr   *tracer
	log  *spanLog
	cur  *cursor
	ctx  context.Context // carries cur to the TC-side tracedService
	tcid base.TCID
	on   bool // tracing was on when the current transaction started
	root int  // its txn span
	x    *tc.Txn
}

// sample reads the tracer's switch for the transaction (or checkpoint)
// about to start.
func (c *tracedClient) sample() {
	c.on, c.root = c.tr.on.Load(), -1
	c.cur.on.Store(c.on)
}

// step opens a TC-level span under the transaction and makes it the
// parent of the service calls that follow.
func (c *tracedClient) step(kind spanKind) int {
	if !c.on {
		return -1
	}
	i := c.log.begin(span{Kind: kind, TC: c.tcid, Txn: c.cur.txn.Load(), Parent: int32(c.root), Start: c.tr.now()})
	c.cur.parent.Store(int32(i))
	return i
}

func (c *tracedClient) done(i int) {
	if i >= 0 {
		c.log.end(i, c.tr.now())
	}
}

func (c *tracedClient) Upsert(table, key string, val []byte) error {
	i := c.step(spanOp)
	err := c.x.Upsert(table, key, val)
	c.done(i)
	return err
}

func (c *tracedClient) Read(table, key string) ([]byte, bool, error) {
	i := c.step(spanOp)
	v, ok, err := c.x.Read(table, key)
	c.done(i)
	return v, ok, err
}

func (c *tracedClient) Scan(table, lo, hi string, limit int) ([]string, [][]byte, error) {
	i := c.step(spanOp)
	k, v, err := c.x.Scan(table, lo, hi, limit)
	c.done(i)
	return k, v, err
}

// checkpoint is the driver's checkpoint of one client's TC. Every TC's log
// is forced first: a page that also holds operations of an idle peer TC
// cannot be flushed until that peer's log tail is stable (README, hazard b).
func (s *system) checkpoint(client int) error {
	for _, t := range s.tcs {
		t.Log().Force()
	}
	ctx := context.Background()
	i := -1
	if s.tr != nil {
		c := s.traced[client]
		c.sample()
		ctx = c.ctx
		i = c.step(spanCheckpoint)
		defer func() {
			c.done(i)
			c.cur.parent.Store(-1)
		}()
	}
	if _, err := s.tcs[client].Checkpoint(ctx); err != nil {
		return fmt.Errorf("checkpoint tc %d: %w", client+1, err)
	}
	return nil
}

// setTracing switches the tracer for work that runs outside client
// transactions (recovery), where no transaction start samples the switch.
func (s *system) setTracing(on bool) {
	s.tr.on.Store(on)
	for _, c := range s.traced {
		c.cur.on.Store(on)
	}
}

// beforeCrash checkpoints every TC just ahead of a crash on the workload
// with versioned writes, and reports that it did, so that its restart has
// no redo tail. At this commit a leaf consolidation that runs during TC
// redo can merge a page flushed after the last checkpoint with a stale
// stable neighbour, take the larger abstract-LSN low-water mark for both,
// and so skip the neighbour's pending redo: committed writes are lost
// (README, finding d). Version chains make tcp_mixed split and consolidate
// all the time; the other workloads never change their tree after the
// preload and keep their redo tail. The traced pass crashes tcp_mixed over
// an unguarded tail as well and reports what was lost (dc.redo_lost_keys).
func (s *system) beforeCrash() (guarded bool, err error) {
	if !s.sp.mixed {
		return false, nil
	}
	for i := range s.tcs {
		if err := s.checkpoint(i); err != nil {
			return true, err
		}
	}
	return true, nil
}

// emptyTailNote is printed by every run whose crash was guarded.
const emptyTailNote = "KNOWN DEFECT GUARDED: every TC was checkpointed just before the crash, so this restart ran over an EMPTY redo tail; " +
	"at this commit a redo tail on a tree that splits and consolidates loses committed writes (README, open finding d; dc.redo_lost_keys in the traced pass counts them)"

// crashAll fails the DC and every TC: unforced log tails, the lock tables
// and the page cache are gone; only forced log records and flushed pages
// survive on the simulated stable media.
func (s *system) crashAll() {
	for _, t := range s.tcs {
		t.Crash()
	}
	s.dc.Crash()
}

// recoverAll restarts the DC first (its structures must be well formed
// before TC redo arrives), then every TC. It returns the time each took.
func (s *system) recoverAll() (dcTime time.Duration, tcTimes []time.Duration, err error) {
	t0 := time.Now()
	if err = s.dc.Recover(); err != nil {
		return 0, nil, fmt.Errorf("dc recover: %w", err)
	}
	dcTime = time.Since(t0)
	for i, t := range s.tcs {
		t0 = time.Now()
		if err = t.Recover(); err != nil {
			return 0, nil, fmt.Errorf("tc %d recover: %w", i+1, err)
		}
		tcTimes = append(tcTimes, time.Since(t0))
	}
	return dcTime, tcTimes, nil
}
