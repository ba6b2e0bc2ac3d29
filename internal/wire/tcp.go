package wire

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/stats"
)

// The TCP transport: the same TC:DC protocol the simulated fabric carries,
// over real sockets between real OS processes. A Listener serves a
// base.Service (a DC); Dial returns the shared Client stub over a pool of
// connections to it. A call owns its connection: the TC writes the request
// and reads the reply on the calling goroutine, and the DC runs the request
// on the goroutine that read it, so a round trip pays no goroutine hand-off
// on either side. TCP gives in-order delivery per connection, but the
// process boundary restores every failure mode the simulator injects: a
// killed DC drops requests (loss), a redial re-delivers what was already
// executed (duplication), and a request resent on a fresh connection races
// the one it repeats (reordering). The client's resend loop plus DC
// idempotence absorb all of it — the protocol does not trust the transport.

// Listener is the TCP transport around the DC server runtime. Each inbound
// connection gets its own reader, which hands every frame to the shared
// serve core and runs the request it carries before reading the next: a
// connection never holds a second request before the first is answered, so
// nothing queues behind a request that waits (a snapshot read waiting for
// SafeTS, a flush waiting for EOSL). The reader writes the reply itself.
// Admission control (ListenConfig) bounds the requests in flight across all
// connections.
type Listener struct {
	ln   net.Listener
	core *serveCore

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup // accept loop and connection readers
}

// Listen starts serving svc on addr (e.g. "127.0.0.1:7070"; ":0" picks a
// free port — read it back with Addr) with the default ListenConfig.
func Listen(addr string, svc base.Service) (*Listener, error) {
	return ListenWith(addr, svc, ListenConfig{})
}

// ListenWith starts serving svc on addr with an explicit runtime
// configuration.
func ListenWith(addr string, svc base.Service, cfg ListenConfig) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &Listener{ln: ln, core: newServeCore(svc, cfg), conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l, nil
}

// Addr returns the bound listen address.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Close stops accepting, closes every open connection, and waits for the
// connection readers — and so for the requests they are running — to
// finish: after Close returns, the wrapped service receives no further
// invocations from this listener. In-flight operations complete at the
// service; only their replies are lost — exactly what the client's resend
// contract is for. The full quiesce is what lets a test or example re-open a
// disk-backed DC's directory after Close without racing the old
// incarnation's writes.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	l.wg.Wait()
	return err
}

// RegisterStats exports the server runtime's counters into g: admissions
// and refusals, the requests in flight against their cap, and the open
// connection count.
func (l *Listener) RegisterStats(g *stats.Group) {
	l.core.registerStats(g)
	g.Func("conns", func() uint64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return uint64(len(l.conns))
	})
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			return // listener closed
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			conn.Close()
			return
		}
		l.conns[conn] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serveConn(conn)
	}
}

// serveConn is one connection's reader. Everything a request needs is
// reused from one request to the next: the buffer its frame is read into,
// the message it decodes to, the operations' slab and the reply's buffers.
// So nothing the service is given may alias them past the call but the
// operations' values, which base.Service lends for the call only.
func (l *Listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	br := bufio.NewReader(conn)
	var (
		m        message
		in, out  []byte // the request's frame, the reply's
		s        scratch
		deadline time.Time // the write deadline last set
	)
	for {
		var err error
		if in, err = readFrame(br, in, &m); err != nil {
			break // connection gone or stream corrupt; client redials
		}
		var reply message
		refusal, run := l.core.accept(&m)
		switch {
		case run:
			reply = l.core.answer(&m, &s)
		case refusal != nil:
			reply = *refusal
		default:
			continue
		}
		// Re-arm the deadline only once half of it is spent: every write
		// still has at least writeTimeout/2, and most pay no timer update.
		if now := time.Now(); deadline.Sub(now) < writeTimeout/2 {
			deadline = now.Add(writeTimeout)
			conn.SetWriteDeadline(deadline)
		}
		if out, err = writeFrame(conn, out, &reply); err != nil {
			// The connection died mid-reply: drop it. The request executed;
			// the client's resend re-asks and idempotence answers from state.
			break
		}
		in, out, s.body = keepable(in), keepable(out), keepable(s.body)
	}
	conn.Close()
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}

// keepable returns b for reuse, or nil when one large frame grew it past
// maxKeptBuf: an idle connection does not hold on to a batch's worth of
// memory.
func keepable(b []byte) []byte {
	if cap(b) > maxKeptBuf {
		return nil
	}
	return b
}

const maxKeptBuf = 1 << 16

// writeTimeout bounds one frame write the client does not time itself: a
// reply, a SafeTS frame. A peer that stops reading (wedged, half-dead
// network) would otherwise block the writer; timing out turns that into an
// ordinary connection failure the resend/redial machinery already handles.
const writeTimeout = 5 * time.Second

// DialConfig shapes a dialed connection.
type DialConfig struct {
	// ResendAfter is how long the client waits for a reply before
	// resending (default 25ms). TCP rarely loses frames on a healthy
	// connection, so this mostly paces retries across DC outages.
	ResendAfter time.Duration
	// RedialBackoff is the initial pause between failed connection
	// attempts, doubling up to a 1s cap (default 10ms).
	RedialBackoff time.Duration
	// ConnectTimeout bounds one TCP connect attempt (default 2s).
	ConnectTimeout time.Duration
	// DropProb injects outbound frame loss: each send is silently
	// dropped with this probability before it reaches the socket. TCP
	// itself never loses frames, so this is the chaos knob that lets a
	// fleet soak (cmd/soak) exercise the resend path over real sockets
	// without killing processes. Zero (the default) disables it.
	DropProb float64
	// DropSeed makes the injected loss reproducible (0: seed 1).
	DropSeed int64
}

func (c DialConfig) withDefaults() DialConfig {
	if c.ResendAfter <= 0 {
		c.ResendAfter = 25 * time.Millisecond
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 10 * time.Millisecond
	}
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = 2 * time.Second
	}
	return c
}

// Dial returns a Client speaking the TC:DC protocol to the Listener at
// addr. Connections are dialed on demand — a call that finds none idle
// dials its own — with capped-backoff redial while the DC does not answer,
// so Dial itself never blocks and a DC that is down, restarting, or not yet
// started simply looks slow: the client's resend loop rides out the gap.
// Close the client to close its connections.
func Dial(addr string, cfg DialConfig) *Client {
	cfg = cfg.withDefaults()
	cl := newClient(func() time.Duration { return cfg.ResendAfter })
	link := &tcpLink{addr: addr, cfg: cfg, done: cl.closeCh, open: make(map[*tcpConn]struct{})}
	link.dials, link.stopDials = context.WithCancel(context.Background())
	if cfg.DropProb > 0 {
		seed := cfg.DropSeed
		if seed == 0 {
			seed = 1
		}
		var mu sync.Mutex
		rnd := rand.New(rand.NewSource(seed))
		link.lose = func(message) bool {
			mu.Lock()
			defer mu.Unlock()
			return rnd.Float64() < cfg.DropProb
		}
	}
	cl.link = link
	return cl
}

// tcpLink is the dialed transport: a stack of idle connections to one DC.
// A call pops one (or dials one when the stack is empty), writes its
// request, reads its own reply and pushes the connection back, so a
// connection never carries two calls at once. A call that stops waiting —
// its resend time ran out, its context ended — closes its connection
// instead, so a late reply can never meet the next call.
//
// The link is up from a successful dial until a connection fails or a dial
// does. While it is down, it redials at most once per pause (RedialBackoff,
// doubling up to 1s), and the dial that brings it back up is a reconnect.
type tcpLink struct {
	addr string
	cfg  DialConfig
	done <-chan struct{} // the client's: closed by Close, before shutdown
	// dials is the context of dialPost's dial, which shutdown cancels.
	dials     context.Context
	stopDials context.CancelFunc

	mu       sync.Mutex
	idle     []*tcpConn
	open     map[*tcpConn]struct{} // idle and held alike: shutdown closes them
	up       bool
	backoff  time.Duration // the pause after the last failed dial
	nextDial time.Time     // while down, no dial before this
	posting  bool          // a dialPost runs
	posted   message       // the frame it sends: the newest post's

	// sessions counts the times the link came up. A connection carries the
	// session it was dialed in, so the failure of one dialed before the
	// last reconnect does not take the link down again.
	sessions    atomic.Uint64
	onReconnect atomic.Pointer[func()]

	// lose, when set, eats outbound frames (DialConfig.DropProb).
	lose func(message) bool

	bytesOut, bytesIn, frameErrs, dropsInjected atomic.Uint64
}

// tcpConn is one dialed connection and its reading and framing buffers.
type tcpConn struct {
	net.Conn
	br      *bufio.Reader
	buf     []byte
	session uint64
}

// errLost and errClosed end an attempt without a reply: the first when
// its wait ran out (the resend loop tries again), the second on Close.
var (
	errLost   = errors.New("wire: attempt lost")
	errClosed = errors.New("wire: client closed")
)

// outcome turns what ended an attempt without a reply into Client.call's
// terms.
func outcome(err error) (message, error) {
	switch err {
	case errLost:
		return message{}, nil
	case errClosed:
		return closedReply(), nil
	}
	return message{}, err
}

// roundTrip is one attempt of Client.call: it sends req on a connection of
// its own and reads the reply until wait runs out. A zero reply and a nil
// error mean the attempt was lost. A connection that fails takes the link
// down, and the attempt then waits out its time as if its frame had been
// lost.
func (ln *tcpLink) roundTrip(ctx context.Context, req message, wait time.Duration) (message, error) {
	deadline := time.Now().Add(wait)
	c, err := ln.take(ctx, deadline)
	if err != nil {
		return outcome(err)
	}
	c.SetDeadline(deadline)
	stop := func() bool { return true }
	if ctx.Done() != nil {
		// Cancellation interrupts the read. The deadline it sets outlives
		// the call, so the connection is then not reused.
		stop = context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	}
	reply, err := ln.exchange(c, &req)
	interrupted := !stop()
	switch {
	case err == nil:
		if interrupted {
			ln.drop(c, false)
		} else {
			ln.put(c)
		}
		return reply, nil
	case ln.isDone():
		return closedReply(), nil // shutdown closed the connection
	case ctx.Err() != nil:
		ln.drop(c, false)
		return message{}, base.CancelErr(ctx)
	case errors.Is(err, os.ErrDeadlineExceeded):
		ln.drop(c, false) // the reply may still come: not on a reused connection
		return message{}, nil
	}
	if errors.Is(err, errBadFrame) {
		ln.frameErrs.Add(1)
	}
	ln.drop(c, true)
	return outcome(ln.wait(ctx, deadline))
}

// exchange writes req on c and reads its reply into a buffer of its own,
// which the reply's body, and the results decoded from it, go on aliasing.
func (ln *tcpLink) exchange(c *tcpConn, req *message) (message, error) {
	if err := ln.send(c, req); err != nil {
		return message{}, err
	}
	var reply message
	if _, err := readFrame(c.br, nil, &reply); err != nil {
		return message{}, err
	}
	if reply.kind != msgReply || reply.id != req.id {
		return message{}, errBadFrame
	}
	ln.bytesIn.Add(uint64(reply.size()))
	return reply, nil
}

// send writes one frame to c, unless injected loss eats it.
func (ln *tcpLink) send(c *tcpConn, m *message) error {
	if ln.lose != nil && ln.lose(*m) {
		// Indistinguishable from a frame the network ate; the resend loop
		// recovers.
		ln.dropsInjected.Add(1)
		return nil
	}
	buf, err := writeFrame(c, c.buf, m)
	c.buf = buf
	if err == nil {
		ln.bytesOut.Add(uint64(len(buf)))
	}
	return err
}

// post sends a frame that has no reply (SafeTS's msgWatermarks) on an idle
// connection, never on one a call holds: a watermark cannot queue behind a
// request that waits for it. With none idle it hands the frame to a dial on a
// goroutine of the link's (dialPost), so a DC host that drops SYNs holds no
// caller for ConnectTimeout: the TC's tick posts to every DC in turn. While
// that dial runs, a newer frame replaces the one it holds. During a redial
// pause the frame is dropped, as a lost frame would be.
func (ln *tcpLink) post(m message) {
	ln.mu.Lock()
	if c := ln.popIdleLocked(); c != nil {
		ln.mu.Unlock()
		ln.sendPost(c, &m)
		return
	}
	ln.posted = m
	dialing := ln.posting
	ln.posting = true
	ln.mu.Unlock()
	if !dialing {
		go ln.dialPost()
	}
}

// dialPost takes a connection for the frames post could not send, one dial at
// a time, and sends the newest of them on it.
func (ln *tcpLink) dialPost() {
	c, err := ln.take(ln.dials, time.Now())
	ln.mu.Lock()
	m := ln.posted
	ln.posted, ln.posting = message{}, false
	ln.mu.Unlock()
	if err == nil {
		ln.sendPost(c, &m)
	}
}

// sendPost writes a posted frame on c and leaves c idle.
func (ln *tcpLink) sendPost(c *tcpConn, m *message) {
	c.SetDeadline(time.Now().Add(writeTimeout))
	if err := ln.send(c, m); err != nil {
		ln.drop(c, true)
		return
	}
	ln.put(c)
}

// take pops an idle connection or dials one. While the link is down it
// waits out the redial pause, but not past deadline (zero: no deadline):
// then it fails with errLost. It fails with errClosed on Close and with the
// cancellation when ctx ends.
func (ln *tcpLink) take(ctx context.Context, deadline time.Time) (*tcpConn, error) {
	for {
		ln.mu.Lock()
		if ln.isDone() {
			ln.mu.Unlock()
			return nil, errClosed
		}
		if c := ln.popIdleLocked(); c != nil {
			ln.mu.Unlock()
			return c, nil
		}
		next := ln.nextDial
		ln.mu.Unlock()
		if time.Now().Before(next) {
			if !deadline.IsZero() && deadline.Before(next) {
				return nil, ln.wait(ctx, deadline)
			}
			if err := ln.wait(ctx, next); err != errLost {
				return nil, err
			}
			continue
		}
		if c, err := ln.dial(ctx); c != nil || err != nil {
			return c, err
		}
	}
}

// popIdleLocked pops the connection last made idle, or returns nil.
func (ln *tcpLink) popIdleLocked() *tcpConn {
	n := len(ln.idle)
	if n == 0 {
		return nil
	}
	c := ln.idle[n-1]
	ln.idle[n-1] = nil
	ln.idle = ln.idle[:n-1]
	return c
}

// dial opens a connection. A failed dial returns nothing and starts or
// extends the redial pause; the first success after the link was down
// brings it up, and every such success after the first is a reconnect.
func (ln *tcpLink) dial(ctx context.Context) (*tcpConn, error) {
	d := net.Dialer{Timeout: ln.cfg.ConnectTimeout}
	nc, err := d.DialContext(ctx, "tcp", ln.addr)
	if dl, ok := ctx.Deadline(); err != nil && ok && !time.Now().Before(dl) {
		// The dial met the caller's deadline, not a silent DC. The context's
		// own timer is due; wait for it so ctx.Err tells the two apart.
		<-ctx.Done()
	}
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.isDone() || ctx.Err() != nil {
		if nc != nil {
			nc.Close()
		}
		if ln.isDone() {
			return nil, errClosed
		}
		return nil, base.CancelErr(ctx)
	}
	if err != nil {
		ln.downLocked()
		if now := time.Now(); !now.Before(ln.nextDial) {
			// The first failure since the last pause ended: pause longer.
			// Dials that fail during the pause do not stretch it.
			switch {
			case ln.backoff == 0:
				ln.backoff = ln.cfg.RedialBackoff
			case ln.backoff < time.Second:
				ln.backoff *= 2
			}
			ln.nextDial = now.Add(ln.backoff)
		}
		return nil, nil
	}
	if !ln.up {
		ln.up, ln.backoff, ln.nextDial = true, 0, time.Time{}
		if ln.sessions.Add(1) > 1 {
			// The DC process may have restarted with volatile state lost. The
			// observer (core.Deployment) asks whether a resend is owed; it
			// makes calls of its own, so it runs outside this one.
			if f := ln.onReconnect.Load(); f != nil {
				go (*f)()
			}
		}
	}
	c := &tcpConn{Conn: nc, br: bufio.NewReader(nc), session: ln.sessions.Load()}
	ln.open[c] = struct{}{}
	return c, nil
}

// downLocked takes the link down and closes its idle connections: they
// belong to the session that just failed.
func (ln *tcpLink) downLocked() {
	if !ln.up {
		return
	}
	ln.up = false
	for _, c := range ln.idle {
		delete(ln.open, c)
		c.Close()
	}
	clear(ln.idle)
	ln.idle = ln.idle[:0]
}

// drop closes a connection. One that failed (an I/O error, broken
// framing) and was dialed in the current session takes the link down; one
// the client gave up on itself is no failure of the link.
func (ln *tcpLink) drop(c *tcpConn, failed bool) {
	ln.mu.Lock()
	if failed && c.session == ln.sessions.Load() {
		ln.downLocked()
	}
	delete(ln.open, c)
	ln.mu.Unlock()
	c.Close()
}

// put returns a connection to the idle stack.
func (ln *tcpLink) put(c *tcpConn) {
	ln.mu.Lock()
	if !ln.isDone() {
		ln.idle = append(ln.idle, c)
		ln.mu.Unlock()
		return
	}
	ln.mu.Unlock()
	c.Close()
}

// wait sleeps until t. It fails with errLost when t comes, errClosed on
// Close, or the cancellation when ctx ends.
func (ln *tcpLink) wait(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return errLost
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return errLost
	case <-ctx.Done():
		return base.CancelErr(ctx)
	case <-ln.done:
		return errClosed
	}
}

func (ln *tcpLink) isDone() bool {
	select {
	case <-ln.done:
		return true
	default:
		return false
	}
}

// shutdown closes every connection, idle or held: a call blocked on its
// reply wakes with an error and finds the client closed. It cancels a
// post's dial. A connection put back or dialed from now on sees done and is
// closed by its caller.
func (ln *tcpLink) shutdown() {
	ln.stopDials()
	ln.mu.Lock()
	for c := range ln.open {
		c.Close()
	}
	ln.open, ln.idle = nil, nil
	ln.mu.Unlock()
}

// Reconnects reports how many times the link came back up after its first
// connection — each one a DC outage (or a network blink) the resend path
// rode out.
func (c *Client) Reconnects() uint64 {
	ln, ok := c.link.(*tcpLink)
	if !ok {
		return 0
	}
	if n := ln.sessions.Load(); n > 1 {
		return n - 1
	}
	return 0
}

// OnReconnect registers f to run (in its own goroutine) every time the link
// comes back up after its first connection. The deployment layer uses it
// to ask whether a restarted DC is owed the TC's redo stream (§5.3.2 "DC
// Failure"), for a TC with nothing to send that the DC could refuse. A TC
// notices a restart with its next frame, which the watermark tick sends
// every millisecond. No-op on the simulated transport, whose outages are
// driven explicitly by tests.
func (c *Client) OnReconnect(f func()) {
	if ln, ok := c.link.(*tcpLink); ok {
		ln.onReconnect.Store(&f)
	}
}

// WaitConnected blocks until a connection to the DC is established or ctx
// is done. The simulated transport is always "connected".
func (c *Client) WaitConnected(ctx context.Context) error {
	ln, ok := c.link.(*tcpLink)
	if !ok {
		return nil
	}
	conn, err := ln.take(ctx, time.Time{})
	switch err {
	case nil:
		ln.put(conn)
		return nil
	case errClosed:
		return base.ErrUnavailable
	}
	return err
}
