package wire

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/base"
)

// The DC server runtime. There is exactly one, behind both transports: the
// simulated Server and the TCP Listener only move frames — read one, hand
// it to serveCore.serve, write whatever the connection's ackBatcher hands
// back. Everything protocol-shaped on the serving side (applying the
// watermark block a frame carries, the request dispatch, the worker pool
// and its admission control, control-request goroutines, ack coalescing,
// the shutdown drain) lives here, so a chaos
// test over the simulated fabric exercises the code a deployed DC runs.

// ListenConfig sizes the server runtime: a sharded worker pool with
// bounded per-worker queues that refuses requests typed when they fill.
// The zero value is the production default, sized to the machine. The
// simulated fabric's servers (Network.Connect) run the same runtime with
// these defaults.
type ListenConfig struct {
	// Workers is the number of pool workers executing Perform and
	// PerformBatch requests (default: 2×GOMAXPROCS).
	Workers int
	// QueueDepth is each worker's queue capacity (default 256). With
	// every queue full, further requests are refused with a typed
	// transient base.ErrOverloaded instead of queueing unboundedly.
	QueueDepth int
}

// serveCore executes inbound requests against one base.Service.
type serveCore struct {
	svc  base.Service
	pool *workerPool

	// ctl counts control-request goroutines. They are spawned only from a
	// transport's reader, and a transport stops its readers before drain
	// waits, so an Add never races the Wait.
	ctl       sync.WaitGroup
	drainOnce sync.Once

	ackBatches, acksCoalesced atomic.Uint64
}

func newServeCore(svc base.Service, cfg ListenConfig) *serveCore {
	if cfg.Workers <= 0 {
		cfg.Workers = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	return &serveCore{svc: svc, pool: newWorkerPool(cfg.Workers, cfg.QueueDepth)}
}

// newAcks returns the reply coalescer for one connection; out ships a
// frame toward that connection's client.
func (c *serveCore) newAcks(out func(*message)) *ackBatcher {
	return &ackBatcher{out: out, batches: &c.ackBatches, coalesced: &c.acksCoalesced}
}

// overloadedErrText names the taxonomy sentinel so the client rehydrates
// a shed request as base.ErrOverloaded.
var overloadedErrText = "wire: worker queues full: " + base.ErrOverloaded.Error()

// serve dispatches one inbound frame; replies leave through acks, the
// coalescer of the connection the frame arrived on. It never blocks on the
// service, so a transport calls it straight from its reader: a watermark
// block — riding a request or alone in a msgWatermarks frame — applies
// inline and before the request it rode is dispatched, Perform and
// PerformBatch run on the worker pool, and the rare control requests get
// their own goroutines so a slow checkpoint or recovery sweep neither
// head-of-line-blocks the connection nor is refused by admission control.
// The server side has no caller context: a request that reached the DC
// executes to completion (cancellation only ever abandons the client's
// wait).
func (c *serveCore) serve(m *message, acks *ackBatcher) {
	ctx := context.Background()
	if w := &m.wm; w.has != 0 {
		// The service fences each by the frame's epoch, as it does the request.
		if w.has&wmEOSL != 0 {
			c.svc.EndOfStableLog(m.tc, m.epoch, w.eosl)
		}
		if w.has&wmLWM != 0 {
			c.svc.LowWaterMark(m.tc, m.epoch, w.lwm)
		}
		if w.has&wmSafe != 0 {
			c.svc.SafeTS(m.tc, m.epoch, w.safe, w.horizon)
		}
	}
	switch m.kind {
	case msgPerform, msgPerformBatch:
		// Least-busy shard, bounded queue; with every queue full the request
		// is refused typed, never having touched the service.
		if !c.pool.dispatch(func() { acks.add(c.perform(m)) }) {
			acks.add(&message{kind: msgReply, id: m.id, err: overloadedErrText})
		}
	case msgWatermarks:
		// Nothing but its block, applied above.
	case msgCheckpoint:
		c.control(m, acks, func() error { return c.svc.Checkpoint(ctx, m.tc, m.epoch, m.lsn) })
	case msgBeginRestart:
		c.control(m, acks, func() error { return c.svc.BeginRestart(ctx, m.tc, m.epoch, m.lsn) })
	case msgEndRestart:
		c.control(m, acks, func() error { return c.svc.EndRestart(ctx, m.tc, m.epoch) })
	case msgCatalog:
		c.spawn(func() { acks.add(catalogReply(c.svc, m.id)) })
	}
}

// perform executes one admitted Perform or PerformBatch request and builds
// its reply.
func (c *serveCore) perform(m *message) *message {
	ctx := context.Background()
	reply := &message{kind: msgReply, id: m.id}
	if m.kind == msgPerform {
		op, _, err := base.DecodeOp(m.body)
		if err != nil {
			reply.err = err.Error()
			return reply
		}
		reply.body = base.AppendResult(getReplyBuf(), c.svc.Perform(ctx, op))
		return reply
	}
	ops, _, err := base.DecodeOpBatch(m.body)
	if err != nil {
		reply.err = err.Error()
		return reply
	}
	reply.body = base.AppendResultBatch(getReplyBuf(), c.svc.PerformBatch(ctx, ops))
	return reply
}

// control runs one control request on its own goroutine and acknowledges
// it, carrying a failure as text for the client to rehydrate.
func (c *serveCore) control(m *message, acks *ackBatcher, f func() error) {
	c.spawn(func() {
		reply := &message{kind: msgReply, id: m.id}
		if err := f(); err != nil {
			reply.err = err.Error()
		}
		acks.add(reply)
	})
}

func (c *serveCore) spawn(f func()) {
	c.ctl.Add(1)
	go func() {
		defer c.ctl.Done()
		f()
	}()
}

// drain waits for the control goroutines and lets the workers finish
// everything already admitted, then stops them. Queued work executes even
// across shutdown — admission is a promise; only the replies are lost,
// which is what the client's resend contract is for. The transport must
// have stopped its readers first (no serve call concurrent or after).
func (c *serveCore) drain() {
	c.drainOnce.Do(func() {
		c.ctl.Wait()
		c.pool.close()
	})
}
