// Package wire carries the TC:DC message protocol over two transports.
//
// The simulated fabric (Network, Connect) is the substitute for a cloud
// RPC stack used by tests and in-process deployments. It deliberately misbehaves:
// configurable one-way delay and jitter (which reorders deliveries),
// message loss, and duplication — the chaos half of the package. Each
// attempt of a call is one delivery toward the server and one back, to a
// channel only that attempt reads.
//
// The TCP transport (Listen, Dial) is the deployment half: it serves a
// base.Service — a DC — on a real socket and dials it from another OS
// process. There a call owns its connection: the TC writes the request and
// reads its own reply on the calling goroutine, and the DC runs the
// request on the goroutine that read it. Both transports share one frame
// codec (codec.go), one server runtime (serve.go: watermark application,
// one in-flight cap deciding admission) and one client stub (Client, in
// client.go) implementing base.Service by resending requests until
// acknowledged (§4.2 "Resend Requests"); together with DC idempotence
// this yields exactly-once execution of logical operations over an
// at-most-once network — whether the misbehaviour is injected by the
// simulator or by real processes crashing mid-stream. A transport only
// supplies the link (a round trip, a one-way post): it loses, duplicates,
// delays and reorders frames, and the protocol does not care which.
//
// Operations and results cross the wire in their binary encodings, so the
// serialization cost the paper's unbundling implies is actually paid.
// A TC ships what a commit writes at a DC as one batch message
// (msgPerformBatch; a long commit as a few) with per-operation results in
// the reply, amortizing a round trip over many operations while preserving
// arrival order at the DC; a lone operation is a batch of one.
//
// Watermarks do not pay for frames of their own while there is traffic:
// EndOfStableLog and LowWaterMark are held in the client and leave as a
// block on the next request frame toward that DC; only SafeTS, which moves
// with the clock, sends — one msgWatermarks frame with all three marks.
package wire

import (
	"context"
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

// A retired kind's number is never reused, and decodeFrame refuses it.
const (
	_ msgKind = iota + 1 // 1: the one-operation frame, retired for a batch of one
	msgPerformBatch
	_ // 3, 4: the standalone EOSL and LWM frames, retired for msgWatermarks
	_
	msgCheckpoint
	msgBeginRestart
	msgEndRestart
	msgReply // server -> client; id echoes the request's
	_        // 9: the standalone safe-timestamp frame, retired likewise
	// msgCatalog asks the server for the tables its service actually
	// serves (the fleet-assembly placement cross-check). Appended last, to
	// keep old frames decoding identically.
	msgCatalog
	_ // 11: the coalesced reply frame, retired with the reply coalescer
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
		buf = base.AppendField(buf, t)
	}
	return buf
}

// decodeCatalog parses exactly one appendCatalog body; a count the body
// cannot hold is refused before anything is allocated for it.
func decodeCatalog(body []byte) ([]string, error) {
	d := base.NewDecoder(body)
	tables := make([]string, d.Count())
	for i := range tables {
		tables[i] = string(d.Field())
	}
	if !d.End() {
		return nil, errBadFrame
	}
	return tables, nil
}

// catalogReply builds the msgCatalog reply for a service.
func catalogReply(svc base.Service, id uint64) message {
	if cat, ok := svc.(Cataloger); ok {
		return message{kind: msgReply, id: id, body: appendCatalog(nil, cat.Tables())}
	}
	return message{kind: msgReply, id: id,
		err: "wire: service has no table catalog: " + base.ErrUnavailable.Error()}
}

type message struct {
	kind  msgKind
	id    uint64
	tc    base.TCID
	epoch base.Epoch // sender incarnation
	lsn   base.LSN
	body  []byte     // encoded op batch (perform), result batch or catalog (reply)
	err   string     // control-reply failure
	wm    watermarks // optional block riding the frame (has == 0: none)
}

func (m *message) size() int { return 32 + len(m.body) + len(m.err) }

// deliver hands m to recv after the configured delay and jitter, unless
// loss drops it; duplication hands it over twice. recv reports whether the
// far side took the frame. The misbehaviour RNG is the destination
// endpoint's, so concurrent senders on a busy deployment do not serialize on
// one network-global mutex.
func (n *Network) deliver(dst *endpoint, m *message, recv func(*message) bool) {
	n.sent.Add(1)
	n.bytes.Add(uint64(m.size()))
	var drop, dup bool
	var jitter time.Duration
	if n.misbehaves {
		dst.mu.Lock()
		drop = dst.rnd.Float64() < n.cfg.LossProb
		dup = dst.rnd.Float64() < n.cfg.DupProb
		if n.cfg.Jitter > 0 {
			jitter = time.Duration(dst.rnd.Int63n(int64(n.cfg.Jitter)))
		}
		dst.mu.Unlock()
	}
	if drop {
		n.dropped.Add(1)
		return
	}
	hand := func() {
		if recv(m) {
			n.delivered.Add(1)
		} else {
			n.dropped.Add(1)
		}
	}
	send := func() {
		if delay := n.cfg.Delay + jitter; delay > 0 {
			time.AfterFunc(delay, hand)
		} else {
			hand()
		}
	}
	send()
	if dup {
		n.duplicated.Add(1)
		send()
	}
}

// endpoint is one direction of a connected pair: its misbehaviour RNG.
type endpoint struct {
	mu  sync.Mutex
	rnd *rand.Rand
}

func (n *Network) newEndpoint() *endpoint {
	seq := int64(n.epSeq.Add(1))
	return &endpoint{rnd: rand.New(rand.NewSource(n.cfg.Seed + seq*104729 + 1))}
}

// Connect builds a client/server pair over n. The server runs svc behind
// the same runtime a TCP Listener does (serveCore, with the default
// ListenConfig), each request on a goroutine of its own. Close the server
// to wait for the requests it took.
func (n *Network) Connect(svc base.Service) (*Client, *Server) {
	return n.connect(svc, ListenConfig{})
}

func (n *Network) connect(svc base.Service, lc ListenConfig) (*Client, *Server) {
	srv := &Server{core: newServeCore(svc, lc)}
	cl := newClient(n.cfg.resendAfter)
	cl.onResend = func() { n.resends.Add(1) }
	cl.link = &simLink{net: n, srv: srv, toServer: n.newEndpoint(), toClient: n.newEndpoint(), done: cl.closeCh}
	return cl, srv
}

// simLink is the simulated fabric's link: an attempt is one delivery of
// its request toward the server and, for each time the server takes it,
// one delivery of the reply back to a channel that attempt alone reads.
type simLink struct {
	net                *Network
	srv                *Server
	toServer, toClient *endpoint
	done               <-chan struct{} // the client's: closed by Close
}

// roundTrip is one attempt of Client.call: a zero reply and a nil error
// mean the attempt was lost. A late or duplicate reply finds the channel
// full or unread and goes nowhere. The request is this attempt's own copy:
// the fabric may still be delivering it after the next attempt has left.
func (l *simLink) roundTrip(ctx context.Context, req message, wait time.Duration) (message, error) {
	ch := make(chan *message, 1)
	back := func(r *message) bool {
		select {
		case ch <- r:
			return true
		default:
			return false
		}
	}
	l.net.deliver(l.toServer, &req, func(m *message) bool {
		return l.srv.take(m, func(r *message) { l.net.deliver(l.toClient, r, back) })
	})
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case reply := <-ch:
		return *reply, nil
	case <-timer.C:
		return message{}, nil
	case <-ctx.Done():
		return message{}, base.CancelErr(ctx)
	case <-l.done:
		return closedReply(), nil
	}
}

// post delivers a frame that has no reply (SafeTS's msgWatermarks).
func (l *simLink) post(m message) {
	l.net.deliver(l.toServer, &m, func(m *message) bool { return l.srv.take(m, nil) })
}

// shutdown has nothing to release: an attempt waits on the client's done
// channel, which Close has closed.
func (l *simLink) shutdown() {}

// Server is the simulated fabric's transport around the DC server runtime.
type Server struct {
	core *serveCore
	down atomic.Bool

	mu      sync.Mutex // orders arrivals against Close
	closed  bool
	running sync.WaitGroup // arrivals being taken, requests not yet answered
}

// take is one arrival at the server, on the delivering goroutine: the
// frame's watermark block and its admission happen here, in arrival order,
// and an admitted request runs on a goroutine of its own. Replies leave
// through reply. A frame that arrives while the server is down or after
// Close is dropped, and take reports false.
func (s *Server) take(m *message, reply func(*message)) bool {
	s.mu.Lock()
	if s.closed || s.down.Load() {
		s.mu.Unlock()
		return false
	}
	s.running.Add(1)
	s.mu.Unlock()
	refusal, run := s.core.accept(m)
	if !run {
		if refusal != nil {
			reply(refusal)
		}
		s.running.Done()
		return true
	}
	go func() {
		defer s.running.Done()
		// A fresh scratch: the reply owns its body.
		r := s.core.answer(m, new(scratch))
		reply(&r)
	}()
	return true
}

// SetDown marks the server (DC process) up or down. While down, inbound
// messages are dropped — crashed processes do not answer.
func (s *Server) SetDown(down bool) { s.down.Store(down) }

// Close drops every later arrival and, like Listener.Close, returns only
// after every request it took has executed at the service.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.running.Wait()
}
