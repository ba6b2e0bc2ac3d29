package wire

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// dialTest pairs a Listener over svc with a dialed client, waiting for the
// session so tests exercise the connected path deterministically.
func dialTest(t *testing.T, svc base.Service, cfg DialConfig) (*Client, *Listener) {
	t.Helper()
	l, err := Listen("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	cl := Dial(l.Addr(), cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatalf("WaitConnected: %v", err)
	}
	t.Cleanup(func() {
		cl.Close()
		l.Close()
	})
	return cl, l
}

func TestTCPPerformAndBatch(t *testing.T) {
	svc := newEchoService()
	cl, _ := dialTest(t, svc, DialConfig{})

	res := cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 7, Kind: base.OpRead, Table: "t", Key: "hello"})
	if res.Code != base.CodeOK || string(res.Value) != "hello" || res.LSN != 7 {
		t.Fatalf("perform over tcp: %+v", res)
	}

	ops := make([]*base.Op, 5)
	for i := range ops {
		ops[i] = &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(100 + i), Kind: base.OpUpsert, Table: "t", Key: fmt.Sprintf("k%d", i)}
	}
	rs := cl.PerformBatch(context.Background(), ops)
	if len(rs) != len(ops) {
		t.Fatalf("batch reply size %d", len(rs))
	}
	for i, r := range rs {
		if r.Code != base.CodeOK || r.LSN != ops[i].LSN {
			t.Fatalf("batch[%d] = %+v", i, r)
		}
	}

	if err := cl.Checkpoint(context.Background(), 1, 1, 50); err != nil {
		t.Fatalf("checkpoint over tcp: %v", err)
	}
	if err := cl.BeginRestart(context.Background(), 1, 2, 10); err != nil {
		t.Fatalf("begin-restart over tcp: %v", err)
	}
	if err := cl.EndRestart(context.Background(), 1, 2); err != nil {
		t.Fatalf("end-restart over tcp: %v", err)
	}

	// Watermarks are fire-and-forget, and these two wait for a frame to
	// ride: SafeTS sends one. Poll for arrival.
	cl.EndOfStableLog(1, 1, 42)
	cl.LowWaterMark(1, 1, 40)
	cl.SafeTS(1, 1, 0, 0)
	deadline := time.Now().Add(2 * time.Second)
	for {
		svc.mu.Lock()
		eosl, lwm := svc.eosl, svc.lwm
		svc.mu.Unlock()
		if eosl == 42 && lwm == 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watermarks not delivered: eosl=%d lwm=%d", eosl, lwm)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPServerRestartResendsAndReconnects is the transport half of the
// e2e kill -9 story: the listener dies mid-conversation, a blocked call
// resends into the void, a new listener binds the same address, and the
// client redials and completes the call — firing the
// reconnect hook the deployment layer hangs recovery on.
func TestTCPServerRestartResendsAndReconnects(t *testing.T) {
	svc := newEchoService()
	cl, l := dialTest(t, svc, DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
	addr := l.Addr()

	if res := cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 1, Kind: base.OpRead, Table: "t", Key: "a"}); res.Code != base.CodeOK {
		t.Fatalf("warmup: %+v", res)
	}

	var hookFired atomic.Uint64
	cl.OnReconnect(func() { hookFired.Add(1) })

	l.Close() // the DC process dies

	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 2, Kind: base.OpRead, Table: "t", Key: "b"})
	}()
	select {
	case res := <-done:
		t.Fatalf("perform completed against a dead listener: %+v", res)
	case <-time.After(50 * time.Millisecond):
	}

	l2, err := Listen(addr, svc) // the DC process restarts on the same address
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer l2.Close()

	select {
	case res := <-done:
		if res.Code != base.CodeOK || string(res.Value) != "b" {
			t.Fatalf("perform after restart: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("perform did not recover after listener restart")
	}
	if cl.Reconnects() == 0 {
		t.Fatal("client reports no reconnects after a listener restart")
	}
	if cl.Resends() == 0 {
		t.Fatal("client reports no resends despite the outage")
	}
	deadline := time.Now().Add(2 * time.Second)
	for hookFired.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("OnReconnect hook never fired")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTCPDialBeforeListen(t *testing.T) {
	// Reserve an address, then free it so Dial targets a not-yet-started DC.
	probe, err := Listen("127.0.0.1:0", newEchoService())
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	cl := Dial(addr, DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
	defer cl.Close()
	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 3, Kind: base.OpRead, Table: "t", Key: "late"})
	}()
	time.Sleep(20 * time.Millisecond)
	l, err := Listen(addr, newEchoService())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	select {
	case res := <-done:
		if res.Code != base.CodeOK {
			t.Fatalf("perform after late listen: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("perform never completed after the listener came up")
	}
}

// stuckService never answers: PerformBatch and Checkpoint block until
// released.
type stuckService struct {
	*echoService
	entered chan struct{} // a token per call that reached it; no test makes 16
	gate    chan struct{}
}

func newStuckService() *stuckService {
	return &stuckService{echoService: newEchoService(), entered: make(chan struct{}, 16), gate: make(chan struct{})}
}

func (s *stuckService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	s.entered <- struct{}{}
	<-s.gate
	return s.echoService.PerformBatch(ctx, ops)
}

func (s *stuckService) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	s.entered <- struct{}{}
	<-s.gate
	return s.echoService.Checkpoint(ctx, tc, epoch, newRSSP)
}

// awaitEntered waits until n calls are blocked inside svc.
func (s *stuckService) awaitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-s.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls reached the service", i, n)
		}
	}
}

func TestTCPClientCloseUnblocksCalls(t *testing.T) {
	// No listener at all: calls resend into the void until Close.
	probe, err := Listen("127.0.0.1:0", newEchoService())
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	cl := Dial(addr, DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
	closeUnblocks(t, cl, func() {
		time.Sleep(20 * time.Millisecond)
		cl.Close()
	})

	// A listener that never answers: each call is blocked reading its own
	// reply on a connection it holds, with no resend due for an hour. Close
	// closes the connections under the reads.
	svc := newStuckService()
	l, err := Listen("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	baseline := runtime.NumGoroutine()
	cl = Dial(l.Addr(), DialConfig{ResendAfter: time.Hour})
	closeUnblocks(t, cl, func() {
		svc.awaitEntered(t, 2)
		cl.Close()
	})
	close(svc.gate)
	checkNoGoroutineLeak(t, baseline)
}

// closeUnblocks starts a Perform and a control call on cl, runs closeFn,
// and wants both to fail typed as unavailable promptly.
func closeUnblocks(t *testing.T, cl *Client, closeFn func()) {
	t.Helper()
	done := make(chan *base.Result, 1)
	errs := make(chan error, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 4, Kind: base.OpRead, Table: "t", Key: "k"})
	}()
	go func() {
		errs <- cl.Checkpoint(context.Background(), 1, 1, 9)
	}()
	closeFn()
	select {
	case res := <-done:
		if res.Code != base.CodeUnavailable {
			t.Fatalf("perform after close: %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("perform still blocked after Close")
	}
	select {
	case err := <-errs:
		if !errors.Is(err, base.ErrUnavailable) {
			t.Fatalf("control call after close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("control call still blocked after Close")
	}
}

func TestTCPCancellation(t *testing.T) {
	probe, err := Listen("127.0.0.1:0", newEchoService())
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	probe.Close()

	cl := Dial(addr, DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
	defer cl.Close()
	cancelUnblocks(t, cl, func() { time.Sleep(15 * time.Millisecond) })

	// A listener that never answers: the call is blocked reading its own
	// reply, with no resend due for an hour. Cancellation interrupts the
	// read, and the connection it closes is not handed to the next call.
	svc := newStuckService()
	l, err := Listen("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	baseline := runtime.NumGoroutine()
	cl2 := Dial(l.Addr(), DialConfig{ResendAfter: time.Hour})
	cancelUnblocks(t, cl2, func() { svc.awaitEntered(t, 1) })
	close(svc.gate)
	if res := cl2.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 6, Kind: base.OpRead, Table: "t", Key: "next"}); res.Code != base.CodeOK || string(res.Value) != "next" {
		t.Fatalf("the call after a cancelled one: %+v", res)
	}
	cl2.Close()
	checkNoGoroutineLeak(t, baseline)
}

// cancelUnblocks starts a Perform on cl, runs before, cancels the call and
// wants it to return CodeCancelled promptly.
func cancelUnblocks(t *testing.T, cl *Client, before func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(ctx, &base.Op{TC: 1, Epoch: 1, LSN: 5, Kind: base.OpRead, Table: "t", Key: "k"})
	}()
	before()
	cancel()
	select {
	case res := <-done:
		if res.Code != base.CodeCancelled {
			t.Fatalf("cancelled perform: %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("perform ignored cancellation")
	}
}

// safeGatedService answers Perform only once a safe timestamp of at least
// want has arrived — a snapshot read waiting for SafeTS, in miniature.
type safeGatedService struct {
	*echoService
	want    base.TS
	entered chan struct{}
	once    sync.Once
	arrived chan struct{}
}

func (s *safeGatedService) SafeTS(tc base.TCID, epoch base.Epoch, safe, horizon base.TS) {
	s.echoService.SafeTS(tc, epoch, safe, horizon)
	if safe >= s.want {
		s.once.Do(func() { close(s.arrived) })
	}
}

func (s *safeGatedService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	close(s.entered)
	<-s.arrived
	return s.echoService.PerformBatch(ctx, ops)
}

// TestTCPWaitingRequestDoesNotBlockWatermarks: a call waiting at the DC for
// a safe timestamp holds its connection; the SafeTS that releases it must
// travel on another one, or the two deadlock.
func TestTCPWaitingRequestDoesNotBlockWatermarks(t *testing.T) {
	svc := &safeGatedService{echoService: newEchoService(), want: 7,
		entered: make(chan struct{}), arrived: make(chan struct{})}
	cl, _ := dialTest(t, svc, DialConfig{ResendAfter: time.Hour})
	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, Kind: base.OpRead, Table: "t", Key: "snap"})
	}()
	<-svc.entered
	cl.SafeTS(1, 1, 7, 0)
	select {
	case res := <-done:
		if res.Code != base.CodeOK || string(res.Value) != "snap" {
			t.Fatalf("waiting read: %+v", res)
		}
	case <-time.After(time.Second):
		t.Fatal("the call waiting for SafeTS never returned: its SafeTS did not reach the DC")
	}
}

// TestTCPIdleClientNoticesRestart: a client with no call in flight, only
// its watermark tick, notices a DC restart by the tick's frames alone and
// reports it once.
func TestTCPIdleClientNoticesRestart(t *testing.T) {
	svc := newEchoService()
	cl, l := dialTest(t, svc, DialConfig{RedialBackoff: 2 * time.Millisecond})
	reconnected := make(chan struct{}, 4)
	cl.OnReconnect(func() { reconnected <- struct{}{} })
	stop := make(chan struct{})
	ticked := make(chan struct{})
	go func() {
		defer close(ticked)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for ts := base.TS(1); ; ts++ {
			select {
			case <-stop:
				return
			case <-tick.C:
				cl.SafeTS(1, 1, ts, 0)
			}
		}
	}()
	defer func() {
		close(stop)
		<-ticked
	}()
	time.Sleep(10 * time.Millisecond)

	addr := l.Addr()
	l.Close() // the DC process restarts on the same address
	l2, err := Listen(addr, svc)
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	defer l2.Close()
	select {
	case <-reconnected:
	case <-time.After(time.Second):
		t.Fatal("OnReconnect did not fire within 1s of the restart")
	}
	if n := cl.Reconnects(); n != 1 {
		t.Fatalf("Reconnects() = %d, want 1", n)
	}
}
