// Package wire carries the TC:DC message protocol over two transports.
//
// The simulated fabric (Network, Connect) is the substitute for a cloud
// RPC stack used by tests and in-process deployments. It deliberately misbehaves:
// configurable one-way delay and jitter (which reorders deliveries),
// message loss, and duplication — the chaos half of the package. It
// multiplexes every call onto one pair of endpoints and matches replies to
// calls by correlation id.
//
// The TCP transport (Listen, Dial) is the deployment half: it serves a
// base.Service — a DC — on a real socket and dials it from another OS
// process. There a call owns its connection: the TC writes the request and
// reads its own reply on the calling goroutine, and the DC runs the
// request on the goroutine that read it. Both transports share one frame
// codec (codec.go), one server runtime (serve.go: watermark application,
// one in-flight cap deciding admission, ack coalescing) and one client stub
// (Client, in client.go) implementing base.Service by resending requests
// until acknowledged (§4.2 "Resend Requests"); together with DC idempotence
// this yields exactly-once execution of logical operations over an
// at-most-once network — whether the misbehaviour is injected by the
// simulator or by real processes crashing mid-stream.
//
// Operations and results cross the wire in their binary encodings, so the
// serialization cost the paper's unbundling implies is actually paid.
// A TC ships a barrier's whole batch of operations in one message
// (msgPerformBatch) with per-operation results in the reply, amortizing a
// round trip over many operations while preserving arrival order at the DC.
//
// Watermarks do not pay for frames of their own while there is traffic:
// EndOfStableLog and LowWaterMark are held in the client and leave as a
// block on the next request frame toward that DC; only SafeTS, which moves
// with the clock, sends — one msgWatermarks frame with all three marks.
package wire

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Config shapes network behaviour. The zero value is a perfect, zero-delay
// network.
type Config struct {
	// Delay is the base one-way delivery delay.
	Delay time.Duration
	// Jitter adds a uniform random [0, Jitter) to each delivery; any
	// nonzero jitter reorders messages.
	Jitter time.Duration
	// LossProb is the probability a message is silently dropped.
	LossProb float64
	// DupProb is the probability a message is delivered twice.
	DupProb float64
	// ResendAfter is how long the client waits for a reply before
	// resending. Zero picks a default derived from Delay.
	ResendAfter time.Duration
	// Seed makes the misbehaviour reproducible.
	Seed int64
}

func (c Config) resendAfter() time.Duration {
	if c.ResendAfter > 0 {
		return c.ResendAfter
	}
	d := 4*(c.Delay+c.Jitter) + 2*time.Millisecond
	return d
}

// Stats counts network traffic.
type Stats struct {
	Sent       uint64
	Delivered  uint64
	Dropped    uint64
	Duplicated uint64
	Bytes      uint64
	Resends    uint64
}

// Network is a collection of links sharing one misbehaviour configuration.
type Network struct {
	cfg Config
	// misbehaves caches whether any RNG-driven misbehaviour is configured;
	// a well-behaved (possibly delayed) network skips the RNG entirely.
	misbehaves bool

	// epSeq numbers endpoints so each can derive a deterministic RNG seed
	// without sharing (and contending on) one network-global RNG.
	epSeq atomic.Uint64

	sent, delivered, dropped, duplicated, bytes, resends atomic.Uint64
}

// NewNetwork returns a network with the given configuration.
func NewNetwork(cfg Config) *Network {
	return &Network{cfg: cfg,
		misbehaves: cfg.LossProb > 0 || cfg.DupProb > 0 || cfg.Jitter > 0}
}

// Stats returns a snapshot of traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:       n.sent.Load(),
		Delivered:  n.delivered.Load(),
		Dropped:    n.dropped.Load(),
		Duplicated: n.duplicated.Load(),
		Bytes:      n.bytes.Load(),
		Resends:    n.resends.Load(),
	}
}

type msgKind uint8

const (
	msgPerform msgKind = iota + 1
	msgPerformBatch
	_ // 3, 4: the standalone EOSL and LWM frames, retired for msgWatermarks
	_
	msgCheckpoint
	msgBeginRestart
	msgEndRestart
	msgReply // server -> client; id correlates
	_        // 9: the standalone safe-timestamp frame, retired likewise
	// msgCatalog asks the server for the tables its service actually
	// serves (the fleet-assembly placement cross-check). Appended last, to
	// keep old frames decoding identically.
	msgCatalog
	// msgReplyBatch coalesces several msgReply frames into one — the
	// inverse of msgPerformBatch: where a sender amortizes a round trip
	// over many operations, the server amortizes a flush (and,
	// at the TC, a commit-force window) over many acks. Appended last, so
	// old frames decode identically.
	msgReplyBatch
	// msgWatermarks is the one standalone watermark frame: no body, only
	// the watermark block (see codec.go) with the sender's end of stable
	// log, low-water mark and safe timestamp. Client.SafeTS sends it —
	// the TC's tick, in effect; EOSL and LWM otherwise ride request frames.
	// Fire-and-forget: no id, no reply.
	msgWatermarks
)

// Cataloger is the optional service facet behind msgCatalog: a server
// whose wrapped service implements it (the DC does, via Tables) answers
// catalog requests; otherwise the request fails typed with
// base.ErrUnavailable so old servers and thin test fakes stay usable.
type Cataloger interface {
	Tables() []string
}

// appendCatalog encodes a table list as uvarint count + length-prefixed
// names.
func appendCatalog(buf []byte, tables []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(tables)))
	for _, t := range tables {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	return buf
}

func decodeCatalog(body []byte) ([]string, error) {
	n, body, err := readUvarint(body)
	if err != nil {
		return nil, err
	}
	tables := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var raw []byte
		if raw, body, err = readLenBytes(body); err != nil {
			return nil, err
		}
		tables = append(tables, string(raw))
	}
	return tables, nil
}

// catalogReply builds the msgCatalog reply for a service.
func catalogReply(svc base.Service, id uint64) *message {
	if cat, ok := svc.(Cataloger); ok {
		return &message{kind: msgReply, id: id, body: appendCatalog(nil, cat.Tables())}
	}
	return &message{kind: msgReply, id: id,
		err: "wire: service has no table catalog: " + base.ErrUnavailable.Error()}
}

type message struct {
	kind  msgKind
	id    uint64
	tc    base.TCID
	epoch base.Epoch // sender incarnation
	lsn   base.LSN
	body  []byte     // encoded op (perform) or encoded result (reply)
	err   string     // control-reply failure
	wm    watermarks // optional block riding the frame (has == 0: none)
}

func (m *message) size() int { return 32 + len(m.body) + len(m.err) }

// deliver schedules msg into dst applying delay/jitter/loss/duplication.
// The misbehaviour RNG is per destination endpoint, so concurrent senders
// on a busy deployment do not serialize on one network-global mutex.
func (n *Network) deliver(dst *endpoint, m *message) {
	n.sent.Add(1)
	n.bytes.Add(uint64(m.size()))
	var drop, dup bool
	var jitter time.Duration
	if n.misbehaves {
		dst.rmu.Lock()
		drop = dst.rnd.Float64() < n.cfg.LossProb
		dup = dst.rnd.Float64() < n.cfg.DupProb
		if n.cfg.Jitter > 0 {
			jitter = time.Duration(dst.rnd.Int63n(int64(n.cfg.Jitter)))
		}
		dst.rmu.Unlock()
	}
	if drop {
		n.dropped.Add(1)
		return
	}
	send := func() {
		delay := n.cfg.Delay + jitter
		if delay <= 0 {
			dst.push(n, m)
			return
		}
		time.AfterFunc(delay, func() { dst.push(n, m) })
	}
	send()
	if dup {
		n.duplicated.Add(1)
		send()
	}
}

// endpoint is one side of a link: an inbox plus a down flag and the
// link-local misbehaviour RNG.
type endpoint struct {
	inbox chan *message
	down  atomic.Bool
	once  sync.Once
	close chan struct{}

	rmu sync.Mutex
	rnd *rand.Rand
}

func (n *Network) newEndpoint() *endpoint {
	seq := int64(n.epSeq.Add(1))
	return &endpoint{
		inbox: make(chan *message, 8192),
		close: make(chan struct{}),
		rnd:   rand.New(rand.NewSource(n.cfg.Seed + seq*104729 + 1)),
	}
}

func (e *endpoint) push(n *Network, m *message) {
	if e.down.Load() {
		n.dropped.Add(1)
		return
	}
	select {
	case e.inbox <- m:
		n.delivered.Add(1)
	case <-e.close:
		n.dropped.Add(1)
	default:
		// Congestion: the inbox is full; drop. Resend recovers.
		n.dropped.Add(1)
	}
}

func (e *endpoint) shutdown() { e.once.Do(func() { close(e.close) }) }

// Connect builds a client/server pair over n. The server runs svc behind
// the same runtime a TCP Listener does (serveCore, with the default
// ListenConfig), each request on a goroutine of its own. Close the returned
// pair to stop the pumps.
func (n *Network) Connect(svc base.Service) (*Client, *Server) {
	return n.connect(svc, ListenConfig{})
}

func (n *Network) connect(svc base.Service, lc ListenConfig) (*Client, *Server) {
	toServer := n.newEndpoint()
	toClient := n.newEndpoint()
	srv := &Server{core: newServeCore(svc, lc, false), in: toServer, done: make(chan struct{})}
	// One coalesced batch is one fabric delivery — so loss drops,
	// duplication re-delivers, and jitter reorders whole ack batches,
	// exactly the failure modes the oracle tests aim at.
	srv.acks = srv.core.newAcks(func(m *message) { n.deliver(toClient, m) })
	cl := newClient(func(m *message) { n.deliver(toServer, m) }, n.cfg.resendAfter)
	cl.onResend = func() { n.resends.Add(1) }
	cl.simIn = toClient
	cl.teardown = toClient.shutdown
	go srv.run()
	go cl.pumpSim(toClient)
	return cl, srv
}

// pumpSim feeds replies delivered by the simulated fabric into the shared
// dispatch path until the client's inbound endpoint shuts down.
func (c *Client) pumpSim(in *endpoint) {
	for {
		select {
		case <-in.close:
			return
		case m := <-in.inbox:
			c.dispatch(m)
		}
	}
}

// Server is the simulated fabric's transport around the DC server runtime:
// it pumps delivered frames into the serve core.
type Server struct {
	core *serveCore
	acks *ackBatcher
	in   *endpoint
	done chan struct{} // closed when run has exited
}

// AckStats returns the coalescing counters: flushed ack deliveries and
// the number of replies that rode along in a batch instead of paying
// their own delivery.
func (s *Server) AckStats() (batches, coalesced uint64) {
	return s.core.ackBatches.Load(), s.core.acksCoalesced.Load()
}

// SetDown marks the server (DC process) up or down. While down, inbound
// messages are dropped — crashed processes do not answer.
func (s *Server) SetDown(down bool) { s.in.down.Store(down) }

// Close stops the server pump and, like Listener.Close, returns only after
// every request it took has executed at the service.
func (s *Server) Close() {
	s.in.shutdown()
	<-s.done
	s.core.drain()
}

func (s *Server) run() {
	defer close(s.done)
	for {
		select {
		case <-s.in.close:
			return
		case m := <-s.in.inbox:
			if !s.in.down.Load() {
				s.core.serve(m, s.acks)
			}
		}
	}
}

// Reply bodies are encoded into pooled buffers: a reply is consumed by
// exactly one call() return (duplicate deliveries land in the inbox but
// their bodies are never read once the waiter is gone or full), so the
// consumer can recycle the buffer right after decoding. Request bodies are
// deliberately NOT pooled — resends and delayed duplicate deliveries share
// one request slice whose last reader cannot be identified cheaply.
var replyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBuf = 1 << 16

func getReplyBuf() []byte { return (*replyBufPool.Get().(*[]byte))[:0] }

func putReplyBuf(b []byte) {
	if cap(b) > 0 && cap(b) <= maxPooledBuf {
		replyBufPool.Put(&b)
	}
}
