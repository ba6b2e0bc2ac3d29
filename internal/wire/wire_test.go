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

// echoService is a minimal base.Service for the transport's own tests: it
// counts the deliveries of each LSN, reports a repeated one via Applied, and
// keeps the watermarks it was sent. The TC:DC contract itself is checked
// against the DC (internal/servicetest).
type echoService struct {
	mu      sync.Mutex
	applied map[base.LSN]int
	eosl    base.LSN
	lwm     base.LSN
	safe    base.TS
	horizon base.TS
	unavail atomic.Bool
}

func newEchoService() *echoService {
	return &echoService{applied: make(map[base.LSN]int)}
}

func (s *echoService) Perform(ctx context.Context, op *base.Op) *base.Result {
	return s.PerformBatch(ctx, []*base.Op{op})[0]
}

// PerformBatch echoes each operation's key as its value, into results built
// as the DC builds them.
func (s *echoService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	out := base.NewResults(len(ops))
	for i, op := range ops {
		if s.unavail.Load() {
			*out[i] = base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
			continue
		}
		s.mu.Lock()
		s.applied[op.LSN]++
		*out[i] = base.Result{LSN: op.LSN, Code: base.CodeOK, Found: true,
			Value: []byte(op.Key), Applied: s.applied[op.LSN] > 1}
		s.mu.Unlock()
	}
	return out
}

func (s *echoService) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if eosl > s.eosl {
		s.eosl = eosl
	}
}

func (s *echoService) SafeTS(tc base.TCID, epoch base.Epoch, safe base.TS, horizon base.TS) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if safe > s.safe {
		s.safe = safe
	}
	if horizon > s.horizon {
		s.horizon = horizon
	}
}

func (s *echoService) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lwm > s.lwm {
		s.lwm = lwm
	}
}

func (s *echoService) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	return nil
}

func (s *echoService) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stableLSN base.LSN) error {
	return nil
}

func (s *echoService) EndRestart(ctx context.Context, tc base.TCID, epoch base.Epoch) error {
	return nil
}

func TestPerformPerfectNetwork(t *testing.T) {
	n := NewNetwork(Config{})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	res := cl.Perform(context.Background(), &base.Op{TC: 1, LSN: 7, Kind: base.OpRead, Table: "t", Key: "k"})
	if res.Code != base.CodeOK || string(res.Value) != "k" || res.LSN != 7 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPerformLossyNetworkExactlyOnceEffect(t *testing.T) {
	n := NewNetwork(Config{LossProb: 0.3, DupProb: 0.2, Jitter: 500 * time.Microsecond,
		ResendAfter: 2 * time.Millisecond, Seed: 42})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	const ops = 200
	var wg sync.WaitGroup
	for i := 1; i <= ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := cl.Perform(context.Background(), &base.Op{TC: 1, LSN: base.LSN(i), Kind: base.OpUpsert,
				Table: "t", Key: fmt.Sprintf("k%d", i)})
			if res.Code != base.CodeOK {
				t.Errorf("op %d failed: %+v", i, res)
			}
		}(i)
	}
	wg.Wait()
	// Every LSN was applied at least once (the server does not dedupe in
	// this mock — the real DC does; here we just assert delivery).
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for i := 1; i <= ops; i++ {
		if svc.applied[base.LSN(i)] == 0 {
			t.Fatalf("op %d never delivered", i)
		}
	}
	if n.Stats().Resends == 0 {
		t.Fatal("expected resends on a lossy network")
	}
}

func TestEOSLAndLWMEventuallyArrive(t *testing.T) {
	n := NewNetwork(Config{LossProb: 0.5, Seed: 3})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	// Fire-and-forget with periodic re-broadcast (as the TC does).
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		cl.EndOfStableLog(1, 1, 99)
		cl.LowWaterMark(1, 1, 88)
		cl.SafeTS(1, 1, 77, 66)
		time.Sleep(time.Millisecond)
		svc.mu.Lock()
		got := svc.eosl == 99 && svc.lwm == 88 && svc.safe == 77 && svc.horizon == 66
		svc.mu.Unlock()
		if got {
			return
		}
	}
	t.Fatal("watermarks never arrived despite re-broadcast")
}

func TestServerDownThenUp(t *testing.T) {
	n := NewNetwork(Config{ResendAfter: 2 * time.Millisecond})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	srv.SetDown(true)
	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, LSN: 1, Kind: base.OpRead, Table: "t", Key: "k"})
	}()
	select {
	case <-done:
		t.Fatal("Perform returned while server down")
	case <-time.After(30 * time.Millisecond):
	}
	srv.SetDown(false)
	select {
	case res := <-done:
		if res.Code != base.CodeOK {
			t.Fatalf("res = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Perform never completed after server recovered")
	}
}

func TestUnavailableRetries(t *testing.T) {
	n := NewNetwork(Config{ResendAfter: time.Millisecond})
	svc := newEchoService()
	svc.unavail.Store(true)
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, LSN: 5, Kind: base.OpRead, Table: "t", Key: "k"})
	}()
	time.Sleep(10 * time.Millisecond)
	svc.unavail.Store(false)
	select {
	case res := <-done:
		if res.Code != base.CodeOK {
			t.Fatalf("res = %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("never recovered from unavailable")
	}
}

func TestClientCloseUnblocksPerform(t *testing.T) {
	n := NewNetwork(Config{ResendAfter: 5 * time.Millisecond})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer srv.Close()
	srv.SetDown(true)

	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, LSN: 1, Kind: base.OpRead, Table: "t", Key: "k"})
	}()
	time.Sleep(10 * time.Millisecond)
	cl.Close()
	select {
	case res := <-done:
		if res.Code != base.CodeUnavailable {
			t.Fatalf("res = %+v", res)
		}
	case <-time.After(time.Second):
		t.Fatal("Perform hung after client close")
	}
}

func TestPerformBatchRoundTrip(t *testing.T) {
	n := NewNetwork(Config{})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	ops := []*base.Op{
		{TC: 1, LSN: 10, Kind: base.OpUpsert, Table: "t", Key: "a"},
		{TC: 1, LSN: 11, Kind: base.OpUpsert, Table: "t", Key: "b"},
		{TC: 1, LSN: 12, Kind: base.OpUpsert, Table: "t", Key: "c"},
	}
	rs := cl.PerformBatch(context.Background(), ops)
	if len(rs) != len(ops) {
		t.Fatalf("got %d results for %d ops", len(rs), len(ops))
	}
	for i, r := range rs {
		if r.Code != base.CodeOK || r.LSN != ops[i].LSN || string(r.Value) != ops[i].Key {
			t.Fatalf("result %d = %+v for op %+v", i, r, ops[i])
		}
	}
}

func TestPerformBatchLossyNetwork(t *testing.T) {
	n := NewNetwork(Config{LossProb: 0.3, DupProb: 0.2, Jitter: 300 * time.Microsecond,
		ResendAfter: 2 * time.Millisecond, Seed: 11})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	var wg sync.WaitGroup
	for b := 0; b < 20; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			ops := make([]*base.Op, 10)
			for i := range ops {
				ops[i] = &base.Op{TC: 1, LSN: base.LSN(b*10 + i + 1),
					Kind: base.OpUpsert, Table: "t", Key: fmt.Sprintf("k%d-%d", b, i)}
			}
			rs := cl.PerformBatch(context.Background(), ops)
			for i, r := range rs {
				if r.Code != base.CodeOK || r.LSN != ops[i].LSN {
					t.Errorf("batch %d result %d = %+v", b, i, r)
				}
			}
		}(b)
	}
	wg.Wait()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for i := 1; i <= 200; i++ {
		if svc.applied[base.LSN(i)] == 0 {
			t.Fatalf("batched op %d never delivered", i)
		}
	}
}

func TestClientCloseDuringResendUnblocksPerform(t *testing.T) {
	// Close while the call is parked in the resend loop against a dead
	// server: the documented "fail outstanding calls" contract.
	n := NewNetwork(Config{ResendAfter: 5 * time.Millisecond})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer srv.Close()
	srv.SetDown(true)

	done := make(chan *base.Result, 2)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, LSN: 1, Kind: base.OpUpsert, Table: "t", Key: "k"})
	}()
	go func() {
		rs := cl.PerformBatch(context.Background(), []*base.Op{
			{TC: 1, LSN: 2, Kind: base.OpUpsert, Table: "t", Key: "a"},
			{TC: 1, LSN: 3, Kind: base.OpUpsert, Table: "t", Key: "b"},
		})
		done <- rs[0]
	}()
	time.Sleep(12 * time.Millisecond) // let both enter the resend loop
	cl.Close()
	for i := 0; i < 2; i++ {
		select {
		case res := <-done:
			if res.Code != base.CodeUnavailable {
				t.Fatalf("res = %+v", res)
			}
		case <-time.After(time.Second):
			t.Fatal("call hung after client close mid-resend")
		}
	}
}

func TestClientCloseDuringUnavailableRetryUnblocks(t *testing.T) {
	// The DC answers CodeUnavailable (up but recovering), which parks
	// Perform in its retry pause; Close must cut the pause short instead
	// of letting the caller sleep through another resend interval.
	n := NewNetwork(Config{ResendAfter: 500 * time.Millisecond})
	svc := newEchoService()
	svc.unavail.Store(true)
	cl, srv := n.Connect(svc)
	defer srv.Close()

	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(context.Background(), &base.Op{TC: 1, LSN: 5, Kind: base.OpUpsert, Table: "t", Key: "k"})
	}()
	time.Sleep(20 * time.Millisecond) // reply with Unavailable arrives; retry pause begins
	start := time.Now()
	cl.Close()
	select {
	case res := <-done:
		if res.Code != base.CodeUnavailable {
			t.Fatalf("res = %+v", res)
		}
		if time.Since(start) > 250*time.Millisecond {
			t.Fatalf("close did not cut the retry pause short: %v", time.Since(start))
		}
	case <-time.After(time.Second):
		t.Fatal("Perform hung in unavailable-retry after client close")
	}
}

// fencingService nacks every operation with CodeStaleEpoch and fails
// control calls with a wrapped base.ErrStaleEpoch, mimicking a DC whose
// fence has moved past the caller's incarnation.
type fencingService struct{ echoService }

func (s *fencingService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	out := base.NewResults(len(ops))
	for i, op := range ops {
		*out[i] = base.Result{LSN: op.LSN, Code: base.CodeStaleEpoch}
	}
	return out
}

func (s *fencingService) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	return fmt.Errorf("dc x: epoch %d fenced: %w", epoch, base.ErrStaleEpoch)
}

func TestStaleEpochIsPermanentNack(t *testing.T) {
	// Unlike CodeUnavailable, a stale-epoch reply must come straight back —
	// no resend pause, no retry loop (epochs only move forward).
	n := NewNetwork(Config{ResendAfter: time.Second})
	svc := &fencingService{}
	svc.applied = make(map[base.LSN]int)
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	start := time.Now()
	res := cl.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 7, Kind: base.OpUpsert, Table: "t", Key: "k"})
	if res.Code != base.CodeStaleEpoch {
		t.Fatalf("res = %+v", res)
	}
	rs := cl.PerformBatch(context.Background(), []*base.Op{
		{TC: 1, Epoch: 1, LSN: 8, Kind: base.OpUpsert, Table: "t", Key: "a"},
		{TC: 1, Epoch: 1, LSN: 9, Kind: base.OpUpsert, Table: "t", Key: "b"},
	})
	for i, r := range rs {
		if r.Code != base.CodeStaleEpoch {
			t.Fatalf("batch result %d = %+v", i, r)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("stale-epoch nack was retried (%v elapsed)", elapsed)
	}

	// Typed control errors survive the string crossing: errors.Is works
	// through the stub.
	if err := cl.Checkpoint(context.Background(), 1, 1, 10); !base.IsStaleEpoch(err) {
		t.Fatalf("checkpoint error not rehydrated as stale-epoch: %v", err)
	}
}

func TestDelayIsApplied(t *testing.T) {
	n := NewNetwork(Config{Delay: 5 * time.Millisecond})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()

	start := time.Now()
	cl.Perform(context.Background(), &base.Op{TC: 1, LSN: 1, Kind: base.OpRead, Table: "t", Key: "k"})
	if rtt := time.Since(start); rtt < 10*time.Millisecond {
		t.Fatalf("round trip %v < 2x one-way delay", rtt)
	}
}

func BenchmarkPerformRoundTrip(b *testing.B) {
	for _, cfg := range []struct {
		name string
		c    Config
	}{
		{"perfect", Config{}},
		{"delay100us", Config{Delay: 100 * time.Microsecond}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			n := NewNetwork(cfg.c)
			svc := newEchoService()
			cl, srv := n.Connect(svc)
			defer cl.Close()
			defer srv.Close()
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					i++
					cl.Perform(context.Background(), &base.Op{TC: 1, LSN: base.LSN(i), Kind: base.OpRead, Table: "t", Key: "k"})
				}
			})
		})
	}
}

// checkNoGoroutineLeak polls until the goroutine count returns to within
// slack of the baseline (wire pumps the caller still owns are accounted
// for by taking the baseline after Connect).
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

// TestCancelDuringUnavailableRetry: a Perform parked in the unavailable-
// retry pause returns promptly with CodeCancelled when the caller's
// context is cancelled, without tearing down the client, and leaks no
// goroutines.
func TestCancelDuringUnavailableRetry(t *testing.T) {
	n := NewNetwork(Config{ResendAfter: 500 * time.Millisecond})
	svc := newEchoService()
	svc.unavail.Store(true)
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()
	time.Sleep(10 * time.Millisecond) // pumps up
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *base.Result, 1)
	go func() {
		done <- cl.Perform(ctx, &base.Op{TC: 1, LSN: 5, Kind: base.OpRead, Table: "t", Key: "k"})
	}()
	time.Sleep(20 * time.Millisecond) // Unavailable reply arrives; pause begins
	start := time.Now()
	cancel()
	select {
	case res := <-done:
		if res.Code != base.CodeCancelled {
			t.Fatalf("res = %+v", res)
		}
		if err := res.Err(); !errors.Is(err, base.ErrCancelled) {
			t.Fatalf("result error %v does not match ErrCancelled", err)
		}
		if time.Since(start) > 250*time.Millisecond {
			t.Fatalf("cancel did not cut the retry pause short: %v", time.Since(start))
		}
	case <-time.After(time.Second):
		t.Fatal("Perform hung in unavailable-retry after cancellation")
	}
	// The client stays usable for other contexts.
	svc.unavail.Store(false)
	if res := cl.Perform(context.Background(), &base.Op{TC: 1, LSN: 6, Kind: base.OpRead, Table: "t", Key: "k"}); res.Code != base.CodeOK {
		t.Fatalf("client unusable after a cancelled call: %+v", res)
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestCancelDuringResendLoop: cancellation also unblocks a call that is
// resending into a void (server down, no replies at all).
func TestCancelDuringResendLoop(t *testing.T) {
	n := NewNetwork(Config{ResendAfter: 50 * time.Millisecond})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()
	srv.SetDown(true)
	time.Sleep(10 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := cl.Perform(ctx, &base.Op{TC: 1, LSN: 9, Kind: base.OpRead, Table: "t", Key: "k"})
	if res.Code != base.CodeCancelled {
		t.Fatalf("res = %+v", res)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("cancelled resend loop took %v", el)
	}
	// Batches too.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel2()
	rs := cl.PerformBatch(ctx2, []*base.Op{
		{TC: 1, LSN: 10, Kind: base.OpUpsert, Table: "t", Key: "a"},
		{TC: 1, LSN: 11, Kind: base.OpUpsert, Table: "t", Key: "b"},
	})
	for _, r := range rs {
		if r.Code != base.CodeCancelled {
			t.Fatalf("batch result = %+v", r)
		}
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestCancelControlCall: a control call abandoned by cancellation returns
// the typed taxonomy error wrapping the context error.
func TestCancelControlCall(t *testing.T) {
	n := NewNetwork(Config{ResendAfter: 50 * time.Millisecond})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer cl.Close()
	defer srv.Close()
	srv.SetDown(true)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	err := cl.Checkpoint(ctx, 1, 1, 10)
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("control error %v does not carry ErrCancelled + DeadlineExceeded", err)
	}
}

// TestClosedClientErrorIsTyped: a closed stub's control failure folds into
// ErrUnavailable (rehydrated from the reply string), so retry policies
// classify it as transient.
func TestClosedClientErrorIsTyped(t *testing.T) {
	n := NewNetwork(Config{})
	svc := newEchoService()
	cl, srv := n.Connect(svc)
	defer srv.Close()
	cl.Close()
	err := cl.Checkpoint(context.Background(), 1, 1, 10)
	if !errors.Is(err, base.ErrUnavailable) {
		t.Fatalf("closed-client control error %v does not match ErrUnavailable", err)
	}
	if !base.IsTransient(err) {
		t.Fatal("closed-client error must classify as transient")
	}
}
