package wire

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Client is the TC-side stub implementing base.Service over a transport.
// There is exactly one implementation of the resend/encode protocol — this
// type — shared by both transports: the simulated fabric (Network.Connect)
// and real TCP (Dial). A transport supplies only message delivery: a
// best-effort send toward the server, a pump that feeds replies into
// dispatch, and a teardown hook. Everything protocol-shaped — request
// correlation, the §4.2 resend loop with backoff, unavailable-retry
// pauses, operation/batch encoding, and typed-error rehydration — lives
// here and cannot fork between deployments.
type Client struct {
	sendFn      func(*message)       // best-effort delivery toward the server
	resendAfter func() time.Duration // reply wait before resending
	onResend    func()               // transport resend accounting (may be nil)
	teardown    func()               // transport teardown; runs once, from Close

	closeCh   chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	waiters map[uint64]chan *message
	nextID  atomic.Uint64

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

	simIn *endpoint // simulated transport only: SetDown support
	link  *tcpLink  // dialed transport only: reconnect supervision
}

func newClient(send func(*message), resendAfter func() time.Duration) *Client {
	return &Client{
		sendFn:      send,
		resendAfter: resendAfter,
		closeCh:     make(chan struct{}),
		waiters:     make(map[uint64]chan *message),
	}
}

// Close stops the client and fails outstanding calls: every blocked
// Perform/PerformBatch caller — whether waiting on a reply, mid-resend, or
// pausing out a recovering DC — unblocks promptly with CodeUnavailable,
// and blocked control calls return an error.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closeCh)
		if c.teardown != nil {
			c.teardown()
		}
	})
}

// SetDown marks the client (TC process) up or down; a down client drops
// inbound replies, as a crashed TC would. Only meaningful on the simulated
// transport — a real crashed TC process stops existing instead.
func (c *Client) SetDown(down bool) {
	if c.simIn != nil {
		c.simIn.down.Store(down)
	}
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
// server's worker queues were full (base.ErrOverloaded). Each one was
// retried after a pause — the counter makes backpressure visible without
// breaking the delivery contract.
func (c *Client) Overloads() uint64 { return c.overloads.Load() }

// dispatch hands one server reply to the waiter registered under its
// correlation id. Transport pumps call it; duplicate or late replies for
// answered (or abandoned) attempts are dropped here. A coalesced
// msgReplyBatch fans out into its member replies — losing or duplicating
// the whole batch on the way here is no different from losing or
// duplicating each member.
func (c *Client) dispatch(m *message) {
	if m.kind == msgReplyBatch {
		batch, err := decodeAckBatch(m.body)
		if err != nil {
			return // corrupt batch: drop it whole; resends recover
		}
		for _, r := range batch {
			c.dispatch(r)
		}
		return
	}
	if m.kind != msgReply {
		return
	}
	c.mu.Lock()
	ch := c.waiters[m.id]
	c.mu.Unlock()
	if ch != nil {
		select {
		case ch <- m:
		default: // duplicate reply for an already-answered attempt
		}
	}
}

// call sends one request and resends it — a fresh correlation id per
// attempt, one timer for the call — until a reply arrives, the client is
// closed, or ctx is done (the returned error is then the ErrCancelled-wrapped
// ctx error). Cancellation abandons only the wait: attempts already delivered
// may still execute at the DC. Every attempt takes along the watermarks
// waiting for (tc, epoch), and a resend keeps what the attempts before it
// took, so a lost frame cannot strand them.
func (c *Client) call(ctx context.Context, kind msgKind, tc base.TCID, epoch base.Epoch, lsn base.LSN, body []byte) (*message, error) {
	resend := c.resendAfter()
	timer := time.NewTimer(resend)
	defer timer.Stop()
	req := message{kind: kind, tc: tc, epoch: epoch, lsn: lsn, body: body}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			// Exponential-ish backoff, capped: persistent resend per §4.2.
			if attempt > 4 && resend < time.Second {
				resend *= 2
			}
			timer.Reset(resend)
			c.resends.Add(1)
			if c.onResend != nil {
				c.onResend()
			}
		}
		c.carry(&req)
		if reply, err := c.attempt(ctx, req, timer); reply != nil || err != nil {
			return reply, err
		}
	}
}

// attempt sends req once under a fresh correlation id and waits for its
// reply, the timer (nil, nil: resend), cancellation or Close. The waiter is
// registered only for the wait, however it ends.
func (c *Client) attempt(ctx context.Context, req message, timer *time.Timer) (*message, error) {
	req.id = c.nextID.Add(1)
	ch := make(chan *message, 1)
	c.mu.Lock()
	c.waiters[req.id] = ch
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.waiters, req.id)
		c.mu.Unlock()
	}()
	c.sendFn(&req)
	c.calls.Add(1)
	select {
	case reply := <-ch:
		return reply, nil
	case <-timer.C:
		return nil, nil
	case <-ctx.Done():
		return nil, base.CancelErr(ctx)
	case <-c.closeCh:
		return &message{kind: msgReply, err: closedErrText}, nil
	}
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

// isOverloadReply reports whether a reply error is a server admission
// refusal (the overloadedErrText the listener sends, matched the same way
// base.RehydrateWireError matches every wire-crossing sentinel).
func isOverloadReply(errText string) bool {
	return strings.Contains(errText, base.ErrOverloaded.Error())
}

// Perform implements base.Service. It blocks, resending, until the DC
// acknowledges — exactly-once for a logged operation, courtesy of its unique
// request ID (op.LSN) and DC idempotence; a read (LSN zero) a resend reaches
// twice just runs twice — or until ctx is done (CodeCancelled).
func (c *Client) Perform(ctx context.Context, op *base.Op) *base.Result {
	body := base.AppendOp(nil, op)
	for {
		reply, err := c.call(ctx, msgPerform, op.TC, op.Epoch, op.LSN, body)
		if err != nil {
			return &base.Result{LSN: op.LSN, Code: base.CodeCancelled}
		}
		if reply.err != "" {
			if isOverloadReply(reply.err) {
				// The server shed the request before it touched the service:
				// count it, pause out the queue pressure, and re-offer,
				// invisibly to the caller.
				c.overloads.Add(1)
				if code := c.pause(ctx); code != base.CodeOK {
					return &base.Result{LSN: op.LSN, Code: code}
				}
				continue
			}
			return &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
		}
		res, _, derr := base.DecodeResult(reply.body)
		putReplyBuf(reply.body)
		if derr != nil {
			return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
		}
		// CodeStaleEpoch is a permanent nack (the sender's incarnation was
		// fenced by a restart): returned as-is, never retried.
		if res.Code == base.CodeUnavailable {
			// DC up but still recovering; retry after a pause (which a
			// concurrent Close or cancellation cuts short).
			if code := c.pause(ctx); code != base.CodeOK {
				return &base.Result{LSN: op.LSN, Code: code}
			}
			continue
		}
		return res
	}
}

// PerformBatch implements base.Service: one message carries the whole
// batch, one reply carries the per-operation results. A reply containing
// any CodeUnavailable result (the DC was down or recovering) triggers a
// resend of the whole batch — per-operation idempotence absorbs the
// re-execution of operations that did land.
func (c *Client) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if len(ops) == 1 {
		return []*base.Result{c.Perform(ctx, ops[0])}
	}
	body := base.AppendOpBatch(nil, ops)
	fail := func(code base.Code) []*base.Result {
		rs := make([]*base.Result, len(ops))
		for i, op := range ops {
			rs[i] = &base.Result{LSN: op.LSN, Code: code}
		}
		return rs
	}
	for {
		reply, err := c.call(ctx, msgPerformBatch, ops[0].TC, ops[0].Epoch, ops[0].LSN, body)
		if err != nil {
			return fail(base.CodeCancelled)
		}
		if reply.err != "" {
			if isOverloadReply(reply.err) {
				c.overloads.Add(1)
				if code := c.pause(ctx); code != base.CodeOK {
					return fail(code)
				}
				continue
			}
			return fail(base.CodeUnavailable)
		}
		rs, derr := decodeBatchReply(reply.body, len(ops))
		if derr != nil {
			return fail(base.CodeBadRequest)
		}
		unavailable := false
		for _, r := range rs {
			if r.Code == base.CodeUnavailable {
				unavailable = true
				break
			}
		}
		if !unavailable {
			return rs
		}
		if code := c.pause(ctx); code != base.CodeOK {
			return fail(code)
		}
	}
}

func decodeBatchReply(body []byte, want int) ([]*base.Result, error) {
	rs, _, err := base.DecodeResultBatch(body)
	putReplyBuf(body)
	if err != nil {
		return nil, err
	}
	if len(rs) != want {
		return nil, fmt.Errorf("wire: batch reply size %d, want %d", len(rs), want)
	}
	return rs, nil
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
	m := &message{kind: msgWatermarks, tc: tc, epoch: epoch,
		wm: watermarks{has: wmSafe, safe: safe, horizon: horizon}}
	c.wmMu.Lock()
	if h := &c.held; h.tc == tc && h.epoch == epoch {
		m.wm.has, m.wm.eosl, m.wm.lwm = wmAll, h.eosl, h.lwm
		h.waiting = 0
	}
	c.wmMu.Unlock()
	c.wmFrames.Add(1)
	c.sendFn(m)
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

func (c *Client) controlErr(reply *message, err error) error {
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
