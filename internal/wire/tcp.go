package wire

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/stats"
)

// The TCP transport: the same TC:DC protocol the simulated fabric carries,
// over real sockets between real OS processes. A Listener serves a
// base.Service (a DC); Dial returns the shared Client stub over a
// supervised connection. TCP gives in-order delivery per connection, but
// the process boundary restores every failure mode the simulator injects:
// a killed DC drops requests (loss), a redial re-delivers what was already
// executed (duplication), and replies race reconnects (reordering across
// connections). The client's resend loop plus DC idempotence absorb all of
// it — the protocol does not trust the transport.

// Listener is the TCP transport around the DC server runtime. Each
// inbound connection gets its own reader, which hands every frame to the
// shared serve core (worker pool with bounded admission — see ListenConfig
// — control requests in their own goroutines); replies are written back,
// coalesced, on the connection the request arrived on.
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
// connection readers *and* all in-flight request handlers to drain: after
// Close returns, the wrapped service receives no further invocations from
// this listener. In-flight operations complete at the service; only their
// replies are lost — exactly what the client's resend contract is for.
// The full quiesce is what lets a test or example re-open a disk-backed
// DC's directory after Close without racing the old incarnation's writes.
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
	l.core.drain()
	return err
}

// RegisterStats exports the server runtime's counters into g: pool
// admissions/refusals, live and per-worker queue depth against the hard
// cap, ack-coalescing effectiveness, and the open connection count.
func (l *Listener) RegisterStats(g *stats.Group) {
	l.core.pool.registerStats(g)
	g.Func("ack_batches", l.core.ackBatches.Load)
	g.Func("acks_coalesced", l.core.acksCoalesced.Load)
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

func (l *Listener) serveConn(conn net.Conn) {
	defer l.wg.Done()
	sc := &srvConn{conn: conn, bw: bufio.NewWriter(conn)}
	acks := l.core.newAcks(sc.write)
	br := bufio.NewReader(conn)
	for {
		m, err := readStreamFrame(br)
		if err != nil {
			break // connection gone or stream corrupt; client redials
		}
		l.core.serve(m, acks)
	}
	conn.Close()
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
}

// srvConn serializes reply writes onto one accepted connection.
type srvConn struct {
	conn net.Conn
	wmu  sync.Mutex
	bw   *bufio.Writer
	buf  []byte
}

// writeTimeout bounds one frame write. A peer that stops reading (wedged,
// half-dead network) would otherwise block the writer while it holds the
// connection's write lock; timing out turns that into an ordinary
// connection failure the resend/redial machinery already handles.
const writeTimeout = 5 * time.Second

// write flushes one reply frame and recycles its body.
func (sc *srvConn) write(m *message) {
	sc.wmu.Lock()
	sc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	buf, err := writeFrame(sc.bw, sc.buf, m)
	sc.buf = buf
	if err == nil {
		err = sc.bw.Flush()
	}
	sc.wmu.Unlock()
	putReplyBuf(m.body)
	if err != nil {
		// The connection died mid-reply: drop it. The request executed; the
		// client's resend re-asks and idempotence answers from state.
		sc.conn.Close()
	}
}

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
// addr. The connection is supervised in the background: it is established
// (and re-established) with capped-backoff redial, so Dial itself never
// blocks and a DC that is down, restarting, or not yet started simply
// looks slow — the client's resend loop rides out the gap. Close the
// client to stop the supervisor.
func Dial(addr string, cfg DialConfig) *Client {
	cfg = cfg.withDefaults()
	link := &tcpLink{addr: addr, cfg: cfg, ready: make(chan struct{})}
	if cfg.DropProb > 0 {
		seed := cfg.DropSeed
		if seed == 0 {
			seed = 1
		}
		link.dropRnd = rand.New(rand.NewSource(seed))
	}
	cl := newClient(link.send, func() time.Duration { return cfg.ResendAfter })
	cl.link = link
	cl.teardown = link.shutdown
	link.cl = cl
	go link.run()
	return cl
}

// tcpLink supervises one client connection: dial with backoff, pump
// replies, redial on failure, and tell the session observer (the
// deployment layer) about re-established sessions so it can ask for the
// §5.3.2 DC-recovery resend.
type tcpLink struct {
	addr string
	cfg  DialConfig
	cl   *Client

	mu       sync.Mutex
	conn     net.Conn
	bw       *bufio.Writer
	buf      []byte
	ready    chan struct{} // closed while a connection is established
	shutOnce sync.Once
	shut     chan struct{}

	// dropRnd, when non-nil, drives DropProb loss injection; guarded by mu
	// (send already holds it).
	dropRnd *rand.Rand

	sessions    atomic.Uint64
	onReconnect atomic.Pointer[func()]

	bytesOut, bytesIn, frameErrs, dropsInjected atomic.Uint64
}

func (ln *tcpLink) shutdown() {
	ln.shutOnce.Do(func() {
		ln.mu.Lock()
		if ln.shut == nil {
			ln.shut = make(chan struct{})
		}
		close(ln.shut)
		if ln.conn != nil {
			ln.conn.Close()
		}
		ln.mu.Unlock()
	})
}

func (ln *tcpLink) closed() <-chan struct{} {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.shut == nil {
		ln.shut = make(chan struct{})
	}
	return ln.shut
}

func (ln *tcpLink) run() {
	backoff := ln.cfg.RedialBackoff
	shut := ln.closed()
	for {
		select {
		case <-shut:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", ln.addr, ln.cfg.ConnectTimeout)
		if err != nil {
			select {
			case <-shut:
				return
			case <-time.After(backoff):
			}
			if backoff < time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = ln.cfg.RedialBackoff
		ln.mu.Lock()
		select {
		case <-shut:
			ln.mu.Unlock()
			conn.Close()
			return
		default:
		}
		ln.conn = conn
		ln.bw = bufio.NewWriter(conn)
		close(ln.ready)
		ln.mu.Unlock()
		if n := ln.sessions.Add(1); n > 1 {
			// A re-established session: the DC process may have restarted
			// with volatile state lost. The observer (core.Deployment) asks
			// whether a resend is owed; it must run outside this goroutine,
			// which is about to become the reply pump its calls depend on.
			if f := ln.onReconnect.Load(); f != nil {
				go (*f)()
			}
		}
		br := bufio.NewReader(conn)
		for {
			m, err := readStreamFrame(br)
			if err != nil {
				if errors.Is(err, errBadFrame) {
					// Corrupt framing, as opposed to an ordinary connection
					// teardown: worth its own counter on the admin endpoint.
					ln.frameErrs.Add(1)
				}
				break
			}
			ln.bytesIn.Add(uint64(m.size()))
			ln.cl.dispatch(m)
		}
		ln.mu.Lock()
		if ln.conn == conn {
			ln.conn = nil
			ln.bw = nil
			ln.ready = make(chan struct{})
		}
		ln.mu.Unlock()
		conn.Close()
	}
}

// send writes one frame to the current connection. With no connection (or
// on a write error) the message is dropped — the resend loop recovers, so
// loss here is no different from loss on the simulated fabric.
func (ln *tcpLink) send(m *message) {
	ln.mu.Lock()
	conn, bw := ln.conn, ln.bw
	if conn == nil {
		ln.mu.Unlock()
		return
	}
	if ln.dropRnd != nil && ln.dropRnd.Float64() < ln.cfg.DropProb {
		// Injected loss (DialConfig.DropProb): indistinguishable from a
		// frame the network ate; the resend loop recovers.
		ln.dropsInjected.Add(1)
		ln.mu.Unlock()
		return
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	buf, err := writeFrame(bw, ln.buf, m)
	ln.buf = buf
	if err == nil {
		err = bw.Flush()
		ln.bytesOut.Add(uint64(len(buf)))
	}
	ln.mu.Unlock()
	if err != nil {
		conn.Close() // unblocks the reader; the supervisor redials
	}
}

// Reconnects reports how many times the supervised connection was
// re-established after the first session — each one a DC outage the
// resend path rode out.
func (c *Client) Reconnects() uint64 {
	if c.link == nil {
		return 0
	}
	if n := c.link.sessions.Load(); n > 1 {
		return n - 1
	}
	return 0
}

// OnReconnect registers f to run (in its own goroutine) every time the
// supervised connection is re-established after the first session. The
// deployment layer uses it to ask whether a restarted DC is owed the TC's
// redo stream (§5.3.2 "DC Failure"), for a TC with nothing to send that the
// DC could refuse. No-op on the simulated transport, whose outages are
// driven explicitly by tests.
func (c *Client) OnReconnect(f func()) {
	if c.link != nil {
		c.link.onReconnect.Store(&f)
	}
}

// WaitConnected blocks until the supervised connection is established or
// ctx is done. The simulated transport is always "connected".
func (c *Client) WaitConnected(ctx context.Context) error {
	if c.link == nil {
		return nil
	}
	for {
		c.link.mu.Lock()
		conn, ready := c.link.conn, c.link.ready
		c.link.mu.Unlock()
		if conn != nil {
			return nil
		}
		select {
		case <-ready:
		case <-ctx.Done():
			return base.CancelErr(ctx)
		case <-c.closeCh:
			return base.ErrUnavailable
		}
	}
}
