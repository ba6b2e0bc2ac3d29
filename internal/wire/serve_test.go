package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/stats"
)

// --- admission control ----------------------------------------------

// TestAdmissionCapCountsInFlight: with MaxInFlight N and a service that
// blocks, exactly N requests are admitted, the next is refused typed before
// it touches the service, and worker_queue_depth reads N against a
// worker_queue_cap of N — both count admitted, unfinished requests, so the
// soak's depth <= cap watchdog compares like with like.
func TestAdmissionCapCountsInFlight(t *testing.T) {
	const n = 3
	svc := newStuckService()
	srv := &Server{core: newServeCore(svc, ListenConfig{MaxInFlight: n})}
	replies := make(chan *message, n+1)
	reg := stats.NewRegistry()
	srv.core.registerStats(reg.Group("wire"))
	gauge := func(name string) uint64 { return reg.Snapshot()["wire"][name] }
	serve := func(i int) {
		op := &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(i), Kind: base.OpUpsert, Table: "t", Key: fmt.Sprintf("k%d", i)}
		srv.take(&message{kind: msgPerformBatch, id: uint64(i), tc: 1, epoch: 1, body: base.AppendOpBatch(nil, []*base.Op{op})},
			func(m *message) { replies <- m })
	}

	// The first request is running at the service before the others come.
	serve(1)
	svc.awaitEntered(t, 1)
	for i := 2; i <= n+1; i++ {
		serve(i)
	}
	select {
	case r := <-replies:
		if r.id != n+1 || !errors.Is(base.RehydrateWireError(r.err), base.ErrOverloaded) {
			t.Fatalf("first reply = id %d err %q, want request %d refused with ErrOverloaded", r.id, r.err, n+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("request %d was admitted past a cap of %d", n+1, n)
	}
	if got := gauge("dispatched"); got != n {
		t.Fatalf("admitted %d, want %d", got, n)
	}
	if depth, limit := gauge("worker_queue_depth"), gauge("worker_queue_cap"); depth != n || limit != n {
		t.Fatalf("worker_queue_depth %d, worker_queue_cap %d, want %d and %d", depth, limit, n, n)
	}
	close(svc.gate)
	for i := 0; i < n; i++ {
		if r := <-replies; r.err != "" {
			t.Fatalf("admitted request %d failed: %q", r.id, r.err)
		}
	}
	srv.Close()
	if got := gauge("worker_queue_depth"); got != 0 {
		t.Fatalf("worker_queue_depth %d after Close, want 0", got)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if len(svc.applied) != n {
		t.Fatalf("service ran %d requests, want %d", len(svc.applied), n)
	}
}

// --- server runtime over TCP -------------------------------------------

// slowService delays every PerformBatch, so a tiny in-flight cap fills on
// demand.
type slowService struct {
	*echoService
	delay time.Duration
	gate  chan struct{} // non-nil: PerformBatch also waits for the gate
}

func (s *slowService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if s.gate != nil {
		<-s.gate
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.echoService.PerformBatch(ctx, ops)
}

// TestTCPBackpressureOverloadIsAbsorbed saturates a deliberately tiny
// in-flight cap (one request) with concurrent calls. The server must
// refuse the excess typed — never queue unboundedly — and the client's
// pause-and-retry loop must absorb every refusal invisibly: all calls
// still complete OK, with the refusals visible only in the counters.
func TestTCPBackpressureOverloadIsAbsorbed(t *testing.T) {
	svc := &slowService{echoService: newEchoService(), delay: 2 * time.Millisecond}
	l, err := ListenWith("127.0.0.1:0", svc, ListenConfig{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cl := Dial(l.Addr(), DialConfig{ResendAfter: 20 * time.Millisecond})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatal(err)
	}

	const calls = 32
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := cl.Perform(ctx, &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(i + 1),
				Kind: base.OpUpsert, Table: "t", Key: fmt.Sprintf("k%d", i)})
			if res.Code != base.CodeOK {
				errs <- fmt.Errorf("call %d: code %v", i, res.Code)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if cl.Overloads() == 0 {
		t.Fatal("no overload refusals despite 32 concurrent calls on a cap of 1")
	}
	if l.core.refused.Load() == 0 {
		t.Fatal("listener recorded no overloads")
	}
	svc.mu.Lock()
	applied := len(svc.applied)
	svc.mu.Unlock()
	if applied != calls {
		t.Fatalf("service applied %d distinct LSNs, want %d", applied, calls)
	}
}

// TestTCPCloseFinishesQueuedWork holds five admitted requests on a gate,
// each on its own connection's reader, and closes the listener. Admission
// is a promise: Close must wait for every admitted request to execute at
// the service, even though the connections (and therefore the replies) are
// already gone.
func TestTCPCloseFinishesQueuedWork(t *testing.T) {
	gate := make(chan struct{})
	svc := &slowService{echoService: newEchoService(), gate: gate}
	l, err := ListenWith("127.0.0.1:0", svc, ListenConfig{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	cl := Dial(l.Addr(), DialConfig{ResendAfter: time.Hour}) // no resends: each call sent exactly once
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := cl.WaitConnected(ctx); err != nil {
		t.Fatal(err)
	}

	const calls = 5
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Replies are lost when the listener closes; the calls end via
			// ctx cancel below. Only the service-side effect is asserted.
			cl.Perform(ctx, &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(i + 1),
				Kind: base.OpUpsert, Table: "t", Key: fmt.Sprintf("k%d", i)})
		}(i)
	}
	// Wait until all five are admitted, each blocked on the gate.
	deadline := time.Now().Add(10 * time.Second)
	for l.core.inFlight.Load() != calls {
		if time.Now().After(deadline) {
			t.Fatalf("in flight = %d, want %d", l.core.inFlight.Load(), calls)
		}
		time.Sleep(time.Millisecond)
	}
	// Release the gate only after Close has begun waiting on the drain.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	applied := len(svc.applied)
	svc.mu.Unlock()
	if applied != calls {
		t.Fatalf("service executed %d admitted requests, want %d (queued work dropped on Close)", applied, calls)
	}
	cancel()
	cl.Close()
	wg.Wait()
}

// --- server runtime over the simulated fabric --------------------------

// heldService blocks PerformBatch while held, filling the in-flight cap on
// demand.
type heldService struct {
	*echoService
	hmu  sync.Mutex
	gate chan struct{} // non-nil while held
}

func (s *heldService) hold() {
	s.hmu.Lock()
	s.gate = make(chan struct{})
	s.hmu.Unlock()
}

func (s *heldService) release() {
	s.hmu.Lock()
	close(s.gate)
	s.gate = nil
	s.hmu.Unlock()
}

func (s *heldService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	s.hmu.Lock()
	gate := s.gate
	s.hmu.Unlock()
	if gate != nil {
		<-gate
	}
	return s.echoService.PerformBatch(ctx, ops)
}

// performed returns how many operations reached the service,
// duplicates included, and how many distinct LSNs they carried.
func (s *heldService) performed() (invocations, distinct int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.applied {
		invocations += n
	}
	return invocations, len(s.applied)
}

// TestSimOverloadOnMisbehavingNetwork drives loss, duplication and
// reordering through admission control — the runtime a deployed DC runs.
// On a cap of two with the service held, refusals
// must reach the client typed and be absorbed by its retry loop (every
// call completes, each LSN applied), and Close must not return before
// every admitted job has run at the service.
func TestSimOverloadOnMisbehavingNetwork(t *testing.T) {
	n := NewNetwork(Config{Jitter: 200 * time.Microsecond, LossProb: 0.1, DupProb: 0.1,
		ResendAfter: 2 * time.Millisecond, Seed: 7})
	svc := &heldService{echoService: newEchoService()}
	cl, srv := n.connect(svc, ListenConfig{MaxInFlight: 2})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	perform := func(lsn int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("k%d", lsn)
			res := cl.Perform(ctx, &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(lsn),
				Kind: base.OpUpsert, Table: "t", Key: key})
			if ctx.Err() == nil && (res.Code != base.CodeOK || string(res.Value) != key) {
				t.Errorf("call %d: %+v", lsn, res)
			}
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Overload: two requests are admitted (held), the rest are refused.
	const calls = 16
	svc.hold()
	for i := 1; i <= calls; i++ {
		perform(i)
	}
	waitFor("an overload refusal to reach the client", func() bool { return cl.Overloads() > 0 })
	svc.release()
	wg.Wait()
	if _, distinct := svc.performed(); distinct != calls {
		t.Fatalf("service applied %d distinct LSNs, want %d", distinct, calls)
	}
	if srv.core.refused.Load() == 0 {
		t.Fatal("server recorded no overloads")
	}
	if st := n.Stats(); st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("network never misbehaved: %+v", st)
	}

	// Drain: fill the cap again, then close under it.
	svc.hold()
	perform(calls + 1)
	perform(calls + 2)
	waitFor("the cap to fill", func() bool { return srv.core.inFlight.Load() == 2 })
	var released atomic.Bool
	go func() {
		time.Sleep(50 * time.Millisecond)
		released.Store(true)
		svc.release()
	}()
	srv.Close()
	if !released.Load() {
		t.Fatal("Close returned while admitted jobs were still held")
	}
	invocations, _ := svc.performed()
	if admitted := srv.core.admitted.Load(); uint64(invocations) != admitted {
		t.Fatalf("service ran %d requests, server admitted %d (admitted work dropped on Close)", invocations, admitted)
	}
	cancel() // the last two calls' replies died with the server
	wg.Wait()
}

// TestSimServerDropsWhatArrivesAfterClose: frames still on their way when
// a simulated server closes — a request and its duplicate, a watermark
// frame, each on a timer of the fabric's delay — never reach the service,
// and the request's attempt is never answered.
func TestSimServerDropsWhatArrivesAfterClose(t *testing.T) {
	const delay = 50 * time.Millisecond
	n := NewNetwork(Config{Delay: delay, DupProb: 1, ResendAfter: time.Hour})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 4*delay)
	defer cancel()
	done := make(chan *base.Result, 1)
	go func() { done <- cl.Perform(ctx, readOp(1, 1)) }()
	cl.SafeTS(1, 1, 7, 6)
	for n.Stats().Sent < 2 {
		time.Sleep(time.Millisecond)
	}
	srv.Close()
	if res := <-done; res.Code != base.CodeCancelled {
		t.Fatalf("a closed server answered: %+v", res)
	}
	svc.mu.Lock()
	applied, safe := len(svc.applied), svc.safe
	svc.mu.Unlock()
	if applied != 0 || safe != 0 {
		t.Fatalf("the service ran %d requests and took safe timestamp %d after Close", applied, safe)
	}
	if st := n.Stats(); st.Sent != 2 || st.Duplicated != 2 || st.Delivered != 0 || st.Dropped != 4 {
		t.Fatalf("stats %+v, want two frames and their duplicates, all four dropped", st)
	}
}
