package wire

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Client is the TC-side stub implementing base.Service over a transport.
// There is exactly one implementation of the resend/encode protocol — this
// type — shared by both transports: the simulated fabric (Network.Connect)
// and real TCP (Dial). A transport supplies only a link: one attempt's
// round trip, and a one-way post. Everything protocol-shaped — the §4.2
// resend loop with backoff, unavailable-retry pauses, watermark carrying,
// operation/batch encoding, and typed-error rehydration — lives here and
// cannot fork between deployments.
type Client struct {
	link        link
	resendAfter func() time.Duration // reply wait before resending
	onResend    func()               // transport resend accounting (may be nil)

	closeCh   chan struct{}
	closeOnce sync.Once

	nextID atomic.Uint64

	calls, resends, overloads atomic.Uint64

	// held is what EndOfStableLog and LowWaterMark last said, for the one
	// TC incarnation this stub speaks for: the values, and which of them no
	// frame has taken yet. carry hands the waiting ones to a request frame
	// of that incarnation, SafeTS sends all of them.
	wmMu sync.Mutex
	held struct {
		tc        base.TCID
		epoch     base.Epoch
		eosl, lwm base.LSN
		waiting   uint8 // wmEOSL | wmLWM
	}
	wmFrames, wmCarried atomic.Uint64
}

// link is what a transport gives the Client.
type link interface {
	// roundTrip sends req once and waits up to wait for its reply. A zero
	// reply (kind 0) and a nil error mean the attempt was lost; a cancelled
	// ctx returns the cancellation, a closed client closedReply. Messages
	// pass by value, so a call's request and reply live on its stack.
	roundTrip(ctx context.Context, req message, wait time.Duration) (message, error)
	// post sends a frame that has no reply, best effort.
	post(m message)
	// shutdown releases the transport; the client's done channel is
	// already closed.
	shutdown()
}

func newClient(resendAfter func() time.Duration) *Client {
	return &Client{resendAfter: resendAfter, closeCh: make(chan struct{})}
}

// Close stops the client and fails outstanding calls: every blocked
// Perform/PerformBatch caller — whether waiting on a reply, mid-resend, or
// pausing out a recovering DC — unblocks promptly with CodeUnavailable,
// and blocked control calls return an error.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closeCh)
		c.link.shutdown()
	})
}

// Closed reports whether Close has been called. Callers with their own
// retry loops (tc.deliver) use it to stop resending through a
// stub whose every reply will be CodeUnavailable.
func (c *Client) Closed() bool {
	select {
	case <-c.closeCh:
		return true
	default:
		return false
	}
}

// Calls returns the number of request attempts sent (including resends).
func (c *Client) Calls() uint64 { return c.calls.Load() }

// Resends returns how many of those attempts were resends of an
// unacknowledged request — the §4.2 persistence that rides out lossy
// fabrics and DC outages alike.
func (c *Client) Resends() uint64 { return c.resends.Load() }

// Overloads returns how many replies refused a request because the
// server had as many requests in flight as its cap allows
// (base.ErrOverloaded). Each one was retried after a pause — the counter
// makes backpressure visible without breaking the delivery contract.
func (c *Client) Overloads() uint64 { return c.overloads.Load() }

// call sends one request and resends it — a fresh id per attempt — until a reply arrives, the client is closed, or ctx is done (the
// returned error is then the ErrCancelled-wrapped ctx error). Cancellation
// abandons only the wait: attempts already delivered may still execute at
// the DC. Every attempt takes along the watermarks waiting for (tc, epoch),
// and a resend keeps what the attempts before it took, so a lost frame
// cannot strand them.
func (c *Client) call(ctx context.Context, kind msgKind, tc base.TCID, epoch base.Epoch, lsn base.LSN, body []byte) (message, error) {
	resend := c.resendAfter()
	req := message{kind: kind, tc: tc, epoch: epoch, lsn: lsn, body: body}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Exponential-ish backoff, capped: persistent resend per §4.2.
			if attempt > 4 && resend < time.Second {
				resend *= 2
			}
			c.resends.Add(1)
			if c.onResend != nil {
				c.onResend()
			}
		}
		c.carry(&req)
		if reply, err := c.attempt(ctx, req, resend); reply.kind != 0 || err != nil {
			return reply, err
		}
	}
}

// attempt sends its own copy of req once under a fresh id and waits up to
// wait for the reply (a zero reply and nil: resend), cancellation or Close.
func (c *Client) attempt(ctx context.Context, req message, wait time.Duration) (message, error) {
	req.id = c.nextID.Add(1)
	c.calls.Add(1)
	return c.link.roundTrip(ctx, req, wait)
}

// carry moves the watermarks waiting for the request's (tc, epoch) into its
// block. Hints held for another incarnation stay where they are: a block is
// stamped with its frame's tc and epoch, and the DC fences by them.
func (c *Client) carry(req *message) {
	c.wmMu.Lock()
	if h := &c.held; h.waiting != 0 && h.tc == req.tc && h.epoch == req.epoch {
		req.wm.has |= h.waiting
		if h.waiting&wmEOSL != 0 {
			req.wm.eosl = h.eosl
		}
		if h.waiting&wmLWM != 0 {
			req.wm.lwm = h.lwm
		}
		h.waiting = 0
		c.wmCarried.Add(1)
	}
	c.wmMu.Unlock()
}

// hold records one watermark of (tc, epoch) for the next frame toward the
// DC. A newer incarnation replaces what was held (it reuses the LSN space,
// so its marks may be lower); an older one is a zombie's and is dropped, as
// the DC would drop it.
func (c *Client) hold(tc base.TCID, epoch base.Epoch, mark uint8, v base.LSN) {
	c.wmMu.Lock()
	defer c.wmMu.Unlock()
	h := &c.held
	if tc != h.tc || epoch > h.epoch {
		h.tc, h.epoch, h.eosl, h.lwm, h.waiting = tc, epoch, 0, 0, 0
	}
	if epoch < h.epoch {
		return
	}
	p := &h.eosl
	if mark == wmLWM {
		p = &h.lwm
	}
	if v > *p {
		*p = v
		h.waiting |= mark
	}
}

// closedErrText names the taxonomy sentinel so controlErr rehydrates a
// closed-stub failure as base.ErrUnavailable.
var closedErrText = "wire: client closed: " + base.ErrUnavailable.Error()

// closedReply is what a call blocked at Close returns.
func closedReply() message { return message{kind: msgReply, err: closedErrText} }

// isOverloadReply reports whether a reply error is a server admission
// refusal (the overloadedErrText the listener sends, matched the same way
// base.RehydrateWireError matches every wire-crossing sentinel).
func isOverloadReply(errText string) bool {
	return strings.Contains(errText, base.ErrOverloaded.Error())
}

// Perform implements base.Service. It blocks, resending, until the DC
// acknowledges — exactly-once for a logged operation, courtesy of its unique
// request ID (op.LSN) and DC idempotence; a read (LSN zero) a resend reaches
// twice just runs twice — or until ctx is done (CodeCancelled). The result's
// values alias the reply's bytes, which belong to this call alone.
func (c *Client) Perform(ctx context.Context, op *base.Op) *base.Result {
	var rs [1]*base.Result
	if code := c.perform(ctx, msgPerform, op, base.AppendOp(nil, op), rs[:]); code != base.CodeOK {
		return &base.Result{LSN: op.LSN, Code: code}
	}
	return rs[0]
}

// PerformBatch implements base.Service: one message carries the whole
// batch, one reply carries the per-operation results. A reply containing
// any CodeUnavailable result (the DC was down or recovering) triggers a
// resend of the whole batch — per-operation idempotence absorbs the
// re-execution of operations that did land. An empty batch sends nothing.
func (c *Client) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	switch len(ops) {
	case 0:
		return []*base.Result{}
	case 1:
		return []*base.Result{c.Perform(ctx, ops[0])}
	}
	rs := make([]*base.Result, len(ops))
	if code := c.perform(ctx, msgPerformBatch, ops[0], base.AppendOpBatch(nil, ops), rs); code != base.CodeOK {
		for i, op := range ops {
			rs[i] = &base.Result{LSN: op.LSN, Code: code}
		}
	}
	return rs
}

// perform sends one Perform or PerformBatch frame of len(rs) operations,
// first among them, until the DC answers it, and decodes the answer into
// rs. An overload refusal (the server shed the request before it touched the
// service) is counted, paused out and re-offered, and so is an answer with a
// CodeUnavailable result (the DC is up but still recovering), invisibly to
// the caller; a pause a concurrent Close or cancellation cuts short ends it.
// It returns CodeOK, or the code every operation of the frame fails with: a
// body either side cannot decode is CodeBadRequest. CodeStaleEpoch is a
// permanent nack (the sender's incarnation was fenced by a restart):
// returned as a result, never retried.
func (c *Client) perform(ctx context.Context, kind msgKind, first *base.Op, body []byte, rs []*base.Result) base.Code {
	for {
		reply, err := c.call(ctx, kind, first.TC, first.Epoch, first.LSN, body)
		if err != nil {
			return base.CodeCancelled
		}
		switch {
		case isOverloadReply(reply.err):
			c.overloads.Add(1)
		case strings.HasPrefix(reply.err, badRequestText):
			return base.CodeBadRequest
		case reply.err != "":
			return base.CodeUnavailable
		default:
			if err := base.DecodeResultsInto(reply.body, kind == msgPerformBatch, rs); err != nil {
				return base.CodeBadRequest
			}
			if !slices.ContainsFunc(rs, func(r *base.Result) bool { return r.Code == base.CodeUnavailable }) {
				return base.CodeOK
			}
		}
		if code := c.pause(ctx); code != base.CodeOK {
			return code
		}
	}
}

// pause sleeps one resend interval before retrying a recovering DC. It
// returns CodeOK to retry, CodeUnavailable when the client was closed
// during the wait, or CodeCancelled when ctx expired first.
func (c *Client) pause(ctx context.Context) base.Code {
	timer := time.NewTimer(c.resendAfter())
	defer timer.Stop()
	select {
	case <-timer.C:
		return base.CodeOK
	case <-ctx.Done():
		return base.CodeCancelled
	case <-c.closeCh:
		return base.CodeUnavailable
	}
}

// EndOfStableLog implements base.Service without sending: the mark is held
// and leaves on the next request frame of that incarnation, or with the next
// SafeTS. The TC re-broadcasts its watermarks on a tick, so neither a held
// hint nor a lost frame delays a page flush by more than that.
func (c *Client) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	c.hold(tc, epoch, wmEOSL, eosl)
}

// LowWaterMark implements base.Service without sending, like
// EndOfStableLog.
func (c *Client) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	c.hold(tc, epoch, wmLWM, lwm)
}

// SafeTS implements base.Service as fire-and-forget: the safe timestamp moves
// with the clock, not with requests, so it is the one watermark that sends.
// The msgWatermarks frame takes the held end of stable log and low-water
// mark along whether or not a request already carried them, which is what
// repairs a block lost with its frame.
func (c *Client) SafeTS(tc base.TCID, epoch base.Epoch, safe base.TS, horizon base.TS) {
	m := message{kind: msgWatermarks, tc: tc, epoch: epoch,
		wm: watermarks{has: wmSafe, safe: safe, horizon: horizon}}
	c.wmMu.Lock()
	if h := &c.held; h.tc == tc && h.epoch == epoch {
		m.wm.has, m.wm.eosl, m.wm.lwm = wmAll, h.eosl, h.lwm
		h.waiting = 0
	}
	c.wmMu.Unlock()
	c.wmFrames.Add(1)
	c.link.post(m)
}

// Checkpoint implements base.Service with resend until acknowledged.
func (c *Client) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	return c.controlErr(c.call(ctx, msgCheckpoint, tc, epoch, newRSSP, nil))
}

// BeginRestart implements base.Service with resend until acknowledged.
func (c *Client) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stableLSN base.LSN) error {
	return c.controlErr(c.call(ctx, msgBeginRestart, tc, epoch, stableLSN, nil))
}

// EndRestart implements base.Service with resend until acknowledged.
func (c *Client) EndRestart(ctx context.Context, tc base.TCID, epoch base.Epoch) error {
	return c.controlErr(c.call(ctx, msgEndRestart, tc, epoch, 0, nil))
}

// Catalog asks the remote service which tables it serves (msgCatalog,
// resent until acknowledged). The fleet-assembly placement cross-check
// compares the answer against the placement spec. Servers whose service
// has no catalog fail typed with base.ErrUnavailable.
func (c *Client) Catalog(ctx context.Context) ([]string, error) {
	reply, err := c.call(ctx, msgCatalog, 0, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	if reply.err != "" {
		return nil, fmt.Errorf("wire: %w", base.RehydrateWireError(reply.err))
	}
	return decodeCatalog(reply.body)
}

func (c *Client) controlErr(reply message, err error) error {
	if err != nil {
		return err
	}
	if reply.err != "" {
		// Control failures cross the wire as strings; rehydrate the typed
		// sentinels (stale-epoch, unavailable) so errors.Is keeps working
		// through the stub.
		return fmt.Errorf("wire: %w", base.RehydrateWireError(reply.err))
	}
	return nil
}
