package wire

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/stats"
)

// The DC server runtime. There is exactly one, behind both transports: the
// simulated Server and the TCP Listener only move frames — read one, hand
// it to serveCore.serve, write whatever the connection's ackBatcher hands
// back. Everything protocol-shaped on the serving side (applying the
// watermark block a frame carries, admission control, running the request,
// ack coalescing, the shutdown drain) lives here, so a chaos test over the
// simulated fabric exercises the code a deployed DC runs. Only *where* an
// admitted request runs depends on the transport: a TCP connection carries
// one call at a time, so its reader runs the request itself; the simulated
// fabric multiplexes every call onto one endpoint, so each request runs on
// a goroutine of its own.

// ListenConfig sizes the server runtime. The zero value is the production
// default, sized to the machine. The simulated fabric's servers
// (Network.Connect) run the same runtime with these defaults.
type ListenConfig struct {
	// MaxInFlight caps the Perform and PerformBatch requests admitted and
	// not yet executed (default 2×GOMAXPROCS×256). Above it a request is
	// refused with a typed transient base.ErrOverloaded instead of adding
	// to the load.
	MaxInFlight int
}

// serveCore executes inbound requests against one base.Service.
type serveCore struct {
	svc    base.Service
	inline bool // run each request on the goroutine that read it (TCP)

	maxInFlight               int64
	inFlight                  atomic.Int64
	admitted, refused         atomic.Uint64
	ackBatches, acksCoalesced atomic.Uint64

	// spawned counts the request goroutines of a transport that does not
	// run them inline. They are started only from its reader, and a
	// transport stops its reader before drain waits, so an Add never races
	// the Wait.
	spawned sync.WaitGroup
}

func newServeCore(svc base.Service, cfg ListenConfig, inline bool) *serveCore {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0) * 256
	}
	return &serveCore{svc: svc, inline: inline, maxInFlight: int64(cfg.MaxInFlight)}
}

// newAcks returns the reply coalescer for one connection; out ships a
// frame toward that connection's client.
func (c *serveCore) newAcks(out func(*message)) *ackBatcher {
	return &ackBatcher{out: out, batches: &c.ackBatches, coalesced: &c.acksCoalesced}
}

// overloadedErrText names the taxonomy sentinel so the client rehydrates
// a shed request as base.ErrOverloaded.
var overloadedErrText = "wire: too many requests in flight: " + base.ErrOverloaded.Error()

// serve takes one inbound frame; replies leave through acks, the coalescer
// of the connection the frame arrived on. A watermark block — riding a
// request or alone in a msgWatermarks frame — applies before the request
// it rode. Perform and PerformBatch pass admission control: with
// MaxInFlight of them unfinished, the request is refused typed, never
// having touched the service. Control requests are not refused. The
// server side has no caller context: a request that reached the DC
// executes to completion (cancellation only ever abandons the client's
// wait).
func (c *serveCore) serve(m *message, acks *ackBatcher) {
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
		if !c.admit() {
			c.refused.Add(1)
			acks.add(&message{kind: msgReply, id: m.id, err: overloadedErrText})
			return
		}
		c.admitted.Add(1)
	case msgCheckpoint, msgBeginRestart, msgEndRestart, msgCatalog:
	default:
		return // msgWatermarks: nothing but its block, applied above
	}
	if c.inline {
		c.answer(m, acks)
		return
	}
	c.spawned.Add(1)
	go func() {
		defer c.spawned.Done()
		c.answer(m, acks)
	}()
}

// admit counts one more request in flight unless the cap is reached. The
// count never passes the cap, not even for an instant a gauge could read.
func (c *serveCore) admit() bool {
	for {
		n := c.inFlight.Load()
		if n >= c.maxInFlight {
			return false
		}
		if c.inFlight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// answer executes one request at the service and acknowledges it, carrying
// a control failure as text for the client to rehydrate.
func (c *serveCore) answer(m *message, acks *ackBatcher) {
	ctx := context.Background()
	reply := &message{kind: msgReply, id: m.id}
	var err error
	switch m.kind {
	case msgPerform, msgPerformBatch:
		c.perform(m, reply)
		c.inFlight.Add(-1)
	case msgCheckpoint:
		err = c.svc.Checkpoint(ctx, m.tc, m.epoch, m.lsn)
	case msgBeginRestart:
		err = c.svc.BeginRestart(ctx, m.tc, m.epoch, m.lsn)
	case msgEndRestart:
		err = c.svc.EndRestart(ctx, m.tc, m.epoch)
	case msgCatalog:
		reply = catalogReply(c.svc, m.id)
	}
	if err != nil {
		reply.err = err.Error()
	}
	acks.add(reply)
}

// perform executes one admitted Perform or PerformBatch request into its
// reply.
func (c *serveCore) perform(m *message, reply *message) {
	ctx := context.Background()
	if m.kind == msgPerform {
		op, _, err := base.DecodeOp(m.body)
		if err != nil {
			reply.err = err.Error()
			return
		}
		reply.body = base.AppendResult(getReplyBuf(), c.svc.Perform(ctx, op))
		return
	}
	ops, _, err := base.DecodeOpBatch(m.body)
	if err != nil {
		reply.err = err.Error()
		return
	}
	reply.body = base.AppendResultBatch(getReplyBuf(), c.svc.PerformBatch(ctx, ops))
}

// drain waits for every spawned request to finish. Admitted work executes
// even across shutdown — admission is a promise; only the replies are
// lost, which is what the client's resend contract is for. The transport
// must have stopped its readers first (no serve call concurrent or after).
func (c *serveCore) drain() { c.spawned.Wait() }

// registerStats exports admission control: the cap, the requests in flight
// against it (worker_queue_cap and worker_queue_depth, the names the soak
// watches), and the admissions and refusals so far.
func (c *serveCore) registerStats(g *stats.Group) {
	g.Func("worker_queue_cap", func() uint64 { return uint64(c.maxInFlight) })
	g.Func("worker_queue_depth", func() uint64 { return uint64(c.inFlight.Load()) })
	g.Func("dispatched", c.admitted.Load)
	g.Func("overloads", c.refused.Load)
	g.Func("ack_batches", c.ackBatches.Load)
	g.Func("acks_coalesced", c.acksCoalesced.Load)
}
