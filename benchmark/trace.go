package main

import (
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// The traced pass records a span at each layer boundary it can reach from
// outside the program: around the driver's calls into the TC (begin, each
// operation, commit, checkpoint) and around every base.Service call, on the
// TC's side of the wire and again on the DC's side. Spans live in memory
// and are written out (-trace-out) when the pass ends.

type spanKind uint8

const (
	spanTxn        spanKind = iota // one client transaction, all attempts
	spanBegin                      // TC.Begin
	spanOp                         // one Upsert/Read/Scan call into the TC
	spanCommit                     // Txn.Commit
	spanCheckpoint                 // TC.Checkpoint, driver side
	spanCall                       // base.Service call as the TC sees it
	spanServe                      // the same call as the DC serves it
)

var spanKindNames = [...]string{"txn", "tc.begin", "tc.op", "tc.commit", "tc.checkpoint", "svc.call", "svc.serve"}

type callKind uint8

const (
	callNone callKind = iota
	callPerform
	callPerformBatch
	callEOSL
	callLWM
	callSafeTS
	callCheckpoint
	callBeginRestart
	callEndRestart
)

var callKindNames = [...]string{"", "perform", "perform_batch", "eosl", "lwm", "safe_ts", "checkpoint", "begin_restart", "end_restart"}

func (c callKind) watermark() bool { return c == callEOSL || c == callLWM || c == callSafeTS }

// span is one timed interval. Parent indexes the same log (-1: none);
// spans of one client transaction share Txn; a service span carries the
// operation's (TC, LSN), which is how the two sides of the wire are paired.
type span struct {
	Kind       spanKind
	Call       callKind
	TC         base.TCID
	Txn        uint32
	Parent     int32
	LSN        base.LSN
	Start, End int64 // ns since the tracer's epoch
}

// dur is the span's length, 0 while it is still open.
func (s *span) dur() int64 { return max(s.End-s.Start, 0) }

const (
	spanBlock  = 1 << 14 // spans per block
	spanBlocks = 1 << 12 // blocks per log: room for 67M spans
)

// spanLog is an append-only span store shared by the goroutines of one
// side of the wire (a client and its TC's watermark ticker, or the DC's
// workers). A writer reserves a slot with one atomic add and is then the
// only one to write it, so the hot path takes no lock; blocks never move,
// so a span's index stays valid. Readers (each) must wait until every
// writer has stopped: the traced pass reads its logs after closing the
// deployment.
type spanLog struct {
	n      atomic.Int64
	grow   sync.Mutex // serializes block allocation
	blocks [spanBlocks]atomic.Pointer[[spanBlock]span]
}

func (l *spanLog) at(i int) *span { return &l.blocks[i/spanBlock].Load()[i%spanBlock] }

// begin stores s in the next free slot and returns its index, or -1 when
// the log is full (the span is dropped).
func (l *spanLog) begin(s span) int {
	i := int(l.n.Add(1)) - 1
	b := i / spanBlock
	if b >= spanBlocks {
		return -1
	}
	blk := l.blocks[b].Load()
	if blk == nil {
		l.grow.Lock()
		if blk = l.blocks[b].Load(); blk == nil {
			blk = new([spanBlock]span)
			l.blocks[b].Store(blk)
		}
		l.grow.Unlock()
	}
	blk[i%spanBlock] = s
	return i
}

func (l *spanLog) end(i int, now int64) { l.at(i).End = now }

func (l *spanLog) len() int { return min(int(l.n.Load()), spanBlock*spanBlocks) }

// each calls fn for the spans with from <= index < to.
func (l *spanLog) each(from, to int, fn func(i int, s *span)) {
	for i := from; i < min(to, l.len()); i++ {
		fn(i, l.at(i))
	}
}

// cursor is the driver's position inside one client's current transaction:
// the shared transaction id, the TC-level span a service call made now
// belongs to, and the commit span while one is open. Calls that take a
// context find the cursor in it; the three watermark calls take none, so
// they are parented to the open commit of the TC's one client (the 1 ms
// ticker's broadcasts land there too when they overlap a commit, which
// selfTimes tolerates). The tracer's switch is sampled once per
// transaction, into on, so a transaction is traced whole or not at all.
// The client goroutine writes the cursor and the ticker goroutine reads
// it, hence the atomics.
type cursor struct {
	on     atomic.Bool // the current transaction is being traced
	txn    atomic.Uint32
	parent atomic.Int32
	commit atomic.Int32
}

func newCursor() *cursor {
	c := &cursor{}
	c.parent.Store(-1)
	c.commit.Store(-1)
	return c
}

type cursorKey struct{}

// tracer owns the span logs of one traced deployment: one per TC for
// everything seen on the TC's side, one for the DC's side of the wire.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	client []*spanLog
	server *spanLog
}

func newTracer(tcs int) *tracer {
	t := &tracer{epoch: time.Now(), server: &spanLog{}}
	for i := 0; i < tcs; i++ {
		t.client = append(t.client, &spanLog{})
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// tracedService decorates a base.Service with spans and call counts. The
// same type sits on both sides of the wire: log is the TC's client-side
// log (kind spanCall, parented through the cursor) or the shared
// server-side log (kind spanServe, no parent).
type tracedService struct {
	inner base.Service
	tr    *tracer
	log   *spanLog
	kind  spanKind
	cur   *cursor // client side: the TC's one client, for ctx-less calls
	calls [callEndRestart + 1]atomic.Uint64
}

// enter opens a span (index -1 while tracing is off; calls are counted
// either way). ctx is nil for the watermark calls.
func (s *tracedService) enter(ctx context.Context, call callKind, tc base.TCID, lsn base.LSN) int {
	s.calls[call].Add(1)
	if s.kind == spanCall && !s.cur.on.Load() || s.kind == spanServe && !s.tr.on.Load() {
		return -1
	}
	sp := span{Kind: s.kind, Call: call, TC: tc, LSN: lsn, Parent: -1}
	if s.kind == spanCall {
		if ctx == nil {
			if sp.Parent = s.cur.commit.Load(); sp.Parent >= 0 {
				sp.Txn = s.cur.txn.Load()
			}
		} else if c, ok := ctx.Value(cursorKey{}).(*cursor); ok {
			sp.Txn, sp.Parent = c.txn.Load(), c.parent.Load()
		}
	}
	sp.Start = s.tr.now()
	return s.log.begin(sp)
}

func (s *tracedService) exit(i int) {
	if i >= 0 {
		s.log.end(i, s.tr.now())
	}
}

func (s *tracedService) Perform(ctx context.Context, op *base.Op) *base.Result {
	i := s.enter(ctx, callPerform, op.TC, op.LSN)
	res := s.inner.Perform(ctx, op)
	s.exit(i)
	return res
}

func (s *tracedService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	i := s.enter(ctx, callPerformBatch, ops[0].TC, ops[0].LSN)
	res := s.inner.PerformBatch(ctx, ops)
	s.exit(i)
	return res
}

func (s *tracedService) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	i := s.enter(nil, callEOSL, tc, 0)
	s.inner.EndOfStableLog(tc, epoch, eosl)
	s.exit(i)
}

func (s *tracedService) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	i := s.enter(nil, callLWM, tc, 0)
	s.inner.LowWaterMark(tc, epoch, lwm)
	s.exit(i)
}

func (s *tracedService) SafeTS(tc base.TCID, epoch base.Epoch, safe, horizon base.TS) {
	i := s.enter(nil, callSafeTS, tc, 0)
	s.inner.SafeTS(tc, epoch, safe, horizon)
	s.exit(i)
}

func (s *tracedService) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, rssp base.LSN) error {
	i := s.enter(ctx, callCheckpoint, tc, 0)
	err := s.inner.Checkpoint(ctx, tc, epoch, rssp)
	s.exit(i)
	return err
}

func (s *tracedService) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stable base.LSN) error {
	i := s.enter(ctx, callBeginRestart, tc, 0)
	err := s.inner.BeginRestart(ctx, tc, epoch, stable)
	s.exit(i)
	return err
}

func (s *tracedService) EndRestart(ctx context.Context, tc base.TCID, epoch base.Epoch) error {
	i := s.enter(ctx, callEndRestart, tc, 0)
	err := s.inner.EndRestart(ctx, tc, epoch)
	s.exit(i)
	return err
}

// selfTimes returns, for every span of l, its duration minus the part of
// that interval its child spans cover. Children may overlap each other (the
// watermark ticker runs beside the client), so covered time is the union of
// the child intervals: a log's index order is its start order, which lets
// one pass keep a per-parent frontier instead of sorting.
func selfTimes(l *spanLog) []int64 {
	self := make([]int64, l.len())
	frontier := make([]int64, l.len())
	l.each(0, l.len(), func(i int, s *span) {
		self[i] = s.dur()
		frontier[i] = s.Start
		if s.Parent < 0 {
			return
		}
		p := l.at(int(s.Parent))
		a, b := max(s.Start, frontier[s.Parent]), min(s.End, p.End)
		if b > a {
			self[s.Parent] -= b - a
			frontier[s.Parent] = b
		}
	})
	return self
}

// traceFile is the -trace-out document: every span of every log, with
// names spelled out, in start order per log.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Logs     []traceLogJ `json:"logs"`
}

type traceLogJ struct {
	Log   string  `json:"log"`
	Spans []spanJ `json:"spans"`
}

type spanJ struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int32  `json:"parent"`
	Txn     uint32 `json:"txn,omitempty"`
	TC      uint16 `json:"tc,omitempty"`
	LSN     uint64 `json:"lsn,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	doc := traceFile{Workload: workload, Seed: seed}
	add := func(name string, l *spanLog) {
		lj := traceLogJ{Log: name, Spans: make([]spanJ, 0, l.len())}
		l.each(0, l.len(), func(i int, s *span) {
			n := spanKindNames[s.Kind]
			if s.Call != callNone {
				n += "." + callKindNames[s.Call]
			}
			lj.Spans = append(lj.Spans, spanJ{ID: i, Name: n, Parent: s.Parent, Txn: s.Txn,
				TC: uint16(s.TC), LSN: uint64(s.LSN), StartNs: s.Start, EndNs: s.End})
		})
		doc.Logs = append(doc.Logs, lj)
	}
	for i, l := range t.client {
		add("tc"+string(rune('1'+i)), l)
	}
	add("dc", t.server)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(&doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
