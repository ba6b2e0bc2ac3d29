package wire

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/stats"
)

// The DC server runtime. There is exactly one, behind both transports: the
// simulated Server and the TCP Listener only move frames — take one, hand
// it to serveCore.accept, run what it admits with serveCore.answer, ship
// the reply. Everything protocol-shaped on the serving side (applying the
// watermark block a frame carries, admission control, running the request)
// lives here, so a chaos test over the simulated fabric exercises the code
// a deployed DC runs. Only *where* an admitted request runs depends on the
// transport: a TCP connection carries one call at a time, so its reader
// runs the request itself; the simulated server, which every attempt of
// every caller reaches, runs each on a goroutine of its own.

// ListenConfig sizes the server runtime. The zero value is the production
// default, sized to the machine. The simulated fabric's servers
// (Network.Connect) run the same runtime with these defaults.
type ListenConfig struct {
	// MaxInFlight caps the PerformBatch requests admitted and not yet
	// executed (default 2×GOMAXPROCS×256). Above it a request is
	// refused with a typed transient base.ErrOverloaded instead of adding
	// to the load.
	MaxInFlight int
}

// serveCore executes inbound requests against one base.Service.
type serveCore struct {
	svc base.Service

	maxInFlight       int64
	inFlight          atomic.Int64
	admitted, refused atomic.Uint64
}

func newServeCore(svc base.Service, cfg ListenConfig) *serveCore {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0) * 256
	}
	return &serveCore{svc: svc, maxInFlight: int64(cfg.MaxInFlight)}
}

// overloadedErrText names the taxonomy sentinel so the client rehydrates
// a shed request as base.ErrOverloaded.
var overloadedErrText = "wire: too many requests in flight: " + base.ErrOverloaded.Error()

// accept takes one inbound frame, in arrival order. A watermark block —
// riding a request or alone in a msgWatermarks frame — applies first, so
// before the request it rode. A PerformBatch then passes admission control:
// with MaxInFlight of them unfinished, the request is refused, and the
// refusal is the reply, the service never touched. Control requests are not
// refused. A frame of any other kind is msgWatermarks (decodeFrame refuses
// the retired kinds), nothing but its block. run reports a request the
// transport must now answer.
func (c *serveCore) accept(m *message) (refusal *message, run bool) {
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
	case msgPerformBatch:
		if !c.admit() {
			c.refused.Add(1)
			return &message{kind: msgReply, id: m.id, err: overloadedErrText}, false
		}
		c.admitted.Add(1)
		return nil, true
	case msgCheckpoint, msgBeginRestart, msgEndRestart, msgCatalog:
		return nil, true
	}
	return nil, false // msgWatermarks: its block is applied above
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

// scratch is what the runtime reuses from one request to the next on a TCP
// connection: the slab its operations decode into and the buffer its
// reply's body is encoded into. The simulated fabric gives every request a
// fresh one, so a reply there owns its body.
type scratch struct {
	ops  base.OpSlab
	body []byte
}

// badRequestText answers a PerformBatch whose body does not decode; the
// client fails every operation of the frame with base.CodeBadRequest.
const badRequestText = "wire: undecodable request"

// answer executes one accepted request at the service and returns its
// reply, carrying a control failure as text for the client to rehydrate.
// The server side has no caller context: a request that reached the DC
// executes to completion (cancellation only ever abandons the client's
// wait). A PerformBatch's operations are decoded in place into s.ops, their
// values aliasing the request's bytes for the call, and its results are
// encoded into s.body.
func (c *serveCore) answer(m *message, s *scratch) message {
	ctx := context.Background()
	reply := message{kind: msgReply, id: m.id}
	var err error
	switch m.kind {
	case msgPerformBatch:
		var ops []*base.Op
		if ops, err = s.ops.Decode(m.body); err != nil {
			err = fmt.Errorf("%s: %w", badRequestText, err)
		} else {
			s.body = base.AppendResultBatch(s.body[:0], c.svc.PerformBatch(ctx, ops))
			reply.body = s.body
		}
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
	return reply
}

// registerStats exports admission control: the cap, the requests in flight
// against it (worker_queue_cap and worker_queue_depth, the names the soak
// watches), and the admissions and refusals so far.
func (c *serveCore) registerStats(g *stats.Group) {
	g.Func("worker_queue_cap", func() uint64 { return uint64(c.maxInFlight) })
	g.Func("worker_queue_depth", func() uint64 { return uint64(c.inFlight.Load()) })
	g.Func("dispatched", c.admitted.Load)
	g.Func("overloads", c.refused.Load)
}
