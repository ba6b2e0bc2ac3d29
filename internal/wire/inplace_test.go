package wire

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// kvService keeps what it is sent, as a DC does: a key as the string it came
// in, a value copied, since an operation's Value is lent for the call.
type kvService struct {
	echoService
	mu sync.Mutex
	kv map[string][]byte
}

func (s *kvService) Perform(ctx context.Context, op *base.Op) *base.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op.Kind {
	case base.OpInsert:
		s.kv[op.Key] = bytes.Clone(op.Value)
		return &base.Result{LSN: op.LSN, Code: base.CodeOK}
	case base.OpRead:
		v, ok := s.kv[op.Key]
		return &base.Result{LSN: op.LSN, Code: base.CodeOK, Found: ok, Value: v}
	}
	return &base.Result{LSN: op.LSN, Code: base.CodeBadRequest}
}

func (s *kvService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	out := make([]*base.Result, len(ops))
	for i, op := range ops {
		out[i] = s.Perform(ctx, op)
	}
	return out
}

// TestTCPReusedReadBufferKeepsNothing: a DC connection reads every frame into
// one buffer. A batch of inserts, then a frame of exactly its length with
// other bytes, go over one connection; every inserted key and value must read
// back as it was sent.
func TestTCPReusedReadBufferKeepsNothing(t *testing.T) {
	svc := &kvService{kv: map[string][]byte{}}
	cl, l := dialTest(t, svc, DialConfig{})
	ctx := context.Background()
	batch := func(prefix string, lsn base.LSN) []*base.Op {
		ops := make([]*base.Op, 8)
		for i := range ops {
			ops[i] = &base.Op{TC: 1, Epoch: 1, LSN: lsn + base.LSN(i), Kind: base.OpInsert, Table: "t",
				Key: fmt.Sprintf("%s-key-%d", prefix, i), Value: []byte(fmt.Sprintf("%s-value-%d", prefix, i))}
		}
		return ops
	}
	first, second := batch("a", 10), batch("b", 20)
	if a, b := base.AppendOpBatch(nil, first), base.AppendOpBatch(nil, second); len(a) != len(b) || bytes.Equal(a, b) {
		t.Fatalf("the two batches must differ at one length: %d and %d bytes", len(a), len(b))
	}
	for _, ops := range [][]*base.Op{first, second} {
		for i, r := range cl.PerformBatch(ctx, ops) {
			if r.Code != base.CodeOK {
				t.Fatalf("insert %v: %v", ops[i], r.Code)
			}
		}
	}
	if n := len(l.conns); n != 1 {
		t.Fatalf("%d connections, want the one both frames shared", n)
	}
	for _, ops := range [][]*base.Op{first, second} {
		for _, op := range ops {
			r := cl.Perform(ctx, &base.Op{TC: 1, Epoch: 1, Kind: base.OpRead, Table: "t", Key: op.Key})
			if !r.Found || !bytes.Equal(r.Value, op.Value) {
				t.Fatalf("%q reads %q (found %v), want %q", op.Key, r.Value, r.Found, op.Value)
			}
		}
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for _, ops := range [][]*base.Op{first, second} {
		for _, op := range ops {
			if v, ok := svc.kv[op.Key]; !ok || !bytes.Equal(v, op.Value) {
				t.Fatalf("the service holds %q = %q (present %v), want %q", op.Key, v, ok, op.Value)
			}
		}
	}
	if len(svc.kv) != 16 {
		t.Fatalf("the service holds %d keys, want 16: %v", len(svc.kv), svc.kv)
	}
}

// TestTCPRoundTripAllocs pins what a call over loopback TCP to the echo stub
// allocates, both ends together. A one-op Perform measures 6: the request
// body, the reply's buffer and its result on the TC side; the frame's
// strings and the stub's result and value on the DC side. A 4-op
// PerformBatch measures 14: the TC's result pointers, and the stub's slice
// and three more results and values. Neither request nor reply is a heap
// message, and the DC reuses its read buffer, message, operations and reply
// buffer. The counts are the same under -race.
func TestTCPRoundTripAllocs(t *testing.T) {
	cl, _ := dialTest(t, newEchoService(), DialConfig{ResendAfter: time.Minute})
	ctx := context.Background()
	op := &base.Op{TC: 1, Epoch: 1, Kind: base.OpRead, Table: "t", Key: "k"}
	ops := []*base.Op{op, op, op, op}
	for _, c := range []struct {
		name  string
		bound float64
		call  func()
	}{
		{"Perform", 6, func() {
			if r := cl.Perform(ctx, op); r.Code != base.CodeOK {
				t.Fatalf("perform: %+v", r)
			}
		}},
		{"PerformBatch", 14, func() {
			if rs := cl.PerformBatch(ctx, ops); len(rs) != 4 || rs[3].Code != base.CodeOK {
				t.Fatalf("batch: %+v", rs)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.call); got > c.bound {
			t.Errorf("%s = %.1f allocs per call, want <= %.0f", c.name, got, c.bound)
		} else {
			t.Logf("%s = %.1f allocs per call", c.name, got)
		}
	}
}

// TestEmptyBatchSendsNothing: PerformBatch of no operations answers no
// results, as the DC's does, on both transports, and sends no frame.
func TestEmptyBatchSendsNothing(t *testing.T) {
	tcp, _ := dialTest(t, newEchoService(), DialConfig{})
	sim, srv := NewNetwork(Config{}).Connect(newEchoService())
	defer srv.Close()
	defer sim.Close()
	for name, cl := range map[string]*Client{"tcp": tcp, "sim": sim} {
		if rs := cl.PerformBatch(context.Background(), nil); rs == nil || len(rs) != 0 {
			t.Fatalf("%s: PerformBatch(nil) = %#v, want an empty slice", name, rs)
		}
		if n := cl.Calls(); n != 0 {
			t.Fatalf("%s: an empty batch sent %d frames", name, n)
		}
	}
}

// TestTrailingBytesAreRefused: a body with bytes past its encoding is
// refused at both ends. The server answers such a request as undecodable,
// which the client returns as CodeBadRequest, and the client takes a reply
// body with trailing bytes for CodeBadRequest too.
func TestTrailingBytesAreRefused(t *testing.T) {
	core := newServeCore(newEchoService(), ListenConfig{})
	op := &base.Op{TC: 1, Epoch: 1, LSN: 3, Kind: base.OpUpsert, Table: "t", Key: "k", Value: []byte("v")}
	for _, m := range []message{
		{kind: msgPerform, id: 1, body: append(base.AppendOp(nil, op), 0)},
		{kind: msgPerformBatch, id: 2, body: append(base.AppendOpBatch(nil, []*base.Op{op, op}), 0)},
	} {
		if _, run := core.accept(&m); !run {
			t.Fatalf("%v not admitted", m.kind)
		}
		if r := core.answer(&m, new(scratch)); !strings.HasPrefix(r.err, badRequestText) || r.body != nil {
			t.Fatalf("%v with a trailing byte answered %+v, want %q", m.kind, r, badRequestText)
		}
	}

	for _, reply := range []message{
		{kind: msgReply, err: badRequestText + ": base: trailing bytes after the encoding"},
		{kind: msgReply, body: append(base.AppendResult(nil, &base.Result{LSN: 3, Code: base.CodeOK}), 0)},
	} {
		cl := newClient(func() time.Duration { return time.Minute })
		cl.link = fixedLink{reply}
		if r := cl.Perform(context.Background(), op); r.Code != base.CodeBadRequest {
			t.Fatalf("reply %+v: Perform = %+v, want CodeBadRequest", reply, r)
		}
	}
}

// fixedLink answers every attempt with one reply.
type fixedLink struct{ reply message }

func (l fixedLink) roundTrip(context.Context, message, time.Duration) (message, error) {
	return l.reply, nil
}
func (fixedLink) post(message) {}
func (fixedLink) shutdown()    {}
