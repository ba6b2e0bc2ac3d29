package wire

import (
	"bytes"
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
	core := newServeCore(svc, ListenConfig{MaxInFlight: n}, false)
	replies := make(chan *message, n+1)
	acks := core.newAcks(func(m *message) { replies <- m })
	reg := stats.NewRegistry()
	core.registerStats(reg.Group("wire"))
	gauge := func(name string) uint64 { return reg.Snapshot()["wire"][name] }
	serve := func(i int) {
		op := &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(i), Kind: base.OpUpsert, Table: "t", Key: fmt.Sprintf("k%d", i)}
		core.serve(&message{kind: msgPerform, id: uint64(i), tc: 1, epoch: 1, body: base.AppendOp(nil, op)}, acks)
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
	core.drain()
	if got := gauge("worker_queue_depth"); got != 0 {
		t.Fatalf("worker_queue_depth %d after the drain, want 0", got)
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if len(svc.applied) != n {
		t.Fatalf("service ran %d requests, want %d", len(svc.applied), n)
	}
}

// --- ack batcher unit tests --------------------------------------------

// TestAckBatcherCoalescesDuringFlush drives the group-commit shape
// deterministically: the first reply flushes alone; replies arriving while
// that flush is on the wire leave together as one batch.
func TestAckBatcherCoalescesDuringFlush(t *testing.T) {
	var batches, coalesced atomic.Uint64
	var mu sync.Mutex
	var got [][]uint64
	inFlush := make(chan struct{})
	release := make(chan struct{})
	first := true
	a := &ackBatcher{batches: &batches, coalesced: &coalesced}
	a.out = func(m *message) {
		batch := []*message{m}
		if m.kind == msgReplyBatch {
			var err error
			if batch, err = decodeAckBatch(m.body); err != nil {
				t.Errorf("flushed frame does not decode: %v", err)
			}
		}
		ids := make([]uint64, len(batch))
		for i, r := range batch {
			ids[i] = r.id
		}
		mu.Lock()
		got = append(got, ids)
		mu.Unlock()
		if first {
			first = false
			inFlush <- struct{}{}
			<-release
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.add(&message{kind: msgReply, id: 1})
	}()
	<-inFlush // the adder is now the flusher, blocked mid-write
	a.add(&message{kind: msgReply, id: 2})
	a.add(&message{kind: msgReply, id: 3})
	a.add(&message{kind: msgReply, id: 4})
	close(release)
	wg.Wait()
	if len(got) != 2 || len(got[0]) != 1 || got[0][0] != 1 {
		t.Fatalf("flushes = %v, want first flush [1]", got)
	}
	if want := []uint64{2, 3, 4}; fmt.Sprint(got[1]) != fmt.Sprint(want) {
		t.Fatalf("second flush = %v, want %v", got[1], want)
	}
	if batches.Load() != 2 || coalesced.Load() != 2 {
		t.Fatalf("batches=%d coalesced=%d, want 2 and 2", batches.Load(), coalesced.Load())
	}
}

func TestAckBatchCodecRoundTrip(t *testing.T) {
	batch := []*message{
		{kind: msgReply, id: 1, body: append([]byte(nil), 0xde, 0xad, 0xbe, 0xef)},
		{kind: msgReply, id: 2, err: overloadedErrText},
		{kind: msgReply, id: 1 << 40, body: append([]byte(nil), []byte("result")...)},
		{kind: msgReply, id: 4},
	}
	// encodeAckBatch recycles member bodies; keep copies to compare.
	wantBodies := make([][]byte, len(batch))
	for i, m := range batch {
		wantBodies[i] = append([]byte(nil), m.body...)
	}
	enc := encodeAckBatch(nil, batch)
	dec, err := decodeAckBatch(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(batch) {
		t.Fatalf("decoded %d replies, want %d", len(dec), len(batch))
	}
	for i, m := range dec {
		if m.kind != msgReply || m.id != batch[i].id || m.err != batch[i].err {
			t.Fatalf("reply[%d] = kind=%d id=%d err=%q, want id=%d err=%q",
				i, m.kind, m.id, m.err, batch[i].id, batch[i].err)
		}
		if !bytes.Equal(m.body, wantBodies[i]) {
			t.Fatalf("reply[%d] body = %x, want %x", i, m.body, wantBodies[i])
		}
	}
}

func TestAckBatchDecodeRejectsCorruptFrames(t *testing.T) {
	batch := []*message{
		{kind: msgReply, id: 7, body: append([]byte(nil), []byte("value")...)},
		{kind: msgReply, id: 8, err: "boom"},
	}
	enc := encodeAckBatch(nil, batch)
	// Every truncation must fail typed, never panic or misparse.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeAckBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	if _, err := decodeAckBatch(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("trailing garbage decoded successfully")
	}
	// An absurd member count must be refused before allocation.
	huge := make([]byte, 0, 16)
	huge = appendUvarintForTest(huge, 1<<40)
	if _, err := decodeAckBatch(huge); err == nil {
		t.Fatal("oversized count decoded successfully")
	}
}

// FuzzAckBatch pins the msgReplyBatch body codec, the bytes the simulated
// fabric's reply pump takes from its endpoint: any input either fails to decode or decodes to
// replies whose encoding decodes to the same replies. Run with
// go test -fuzz=FuzzAckBatch ./internal/wire.
func FuzzAckBatch(f *testing.F) {
	f.Add(encodeAckBatch(nil, []*message{
		{kind: msgReply, id: 1, body: []byte{0xde, 0xad, 0xbe, 0xef}},
		{kind: msgReply, id: 2, err: overloadedErrText},
		{kind: msgReply, id: 1 << 40, body: []byte("result")},
		{kind: msgReply, id: 4},
	}))
	f.Add(encodeAckBatch(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a count no buffer can back
	f.Fuzz(func(t *testing.T, data []byte) {
		batch, err := decodeAckBatch(data)
		if err != nil {
			return
		}
		// encodeAckBatch recycles the member bodies it is handed, so encode
		// copies and compare against the originals.
		copies := make([]*message, len(batch))
		for i, m := range batch {
			copies[i] = &message{kind: m.kind, id: m.id, err: m.err, body: append([]byte(nil), m.body...)}
		}
		again, err := decodeAckBatch(encodeAckBatch(nil, copies))
		if err != nil || len(again) != len(batch) {
			t.Fatalf("re-decode of a re-encoded batch: %v, %d replies for %d", err, len(again), len(batch))
		}
		for i, m := range again {
			if w := batch[i]; m.kind != msgReply || m.id != w.id || m.err != w.err || !bytes.Equal(m.body, w.body) {
				t.Fatalf("reply %d: got %+v want %+v", i, m, w)
			}
		}
	})
}

func appendUvarintForTest(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// --- server runtime over TCP -------------------------------------------

// slowService delays every Perform, so a tiny in-flight cap fills on demand.
type slowService struct {
	*echoService
	delay time.Duration
	gate  chan struct{} // non-nil: Perform also waits for the gate
}

func (s *slowService) Perform(ctx context.Context, op *base.Op) *base.Result {
	if s.gate != nil {
		<-s.gate
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return s.echoService.Perform(ctx, op)
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

// heldService blocks Perform while held, filling the in-flight cap on demand.
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

func (s *heldService) Perform(ctx context.Context, op *base.Op) *base.Result {
	s.hmu.Lock()
	gate := s.gate
	s.hmu.Unlock()
	if gate != nil {
		<-gate
	}
	return s.echoService.Perform(ctx, op)
}

// performed returns how many Perform invocations reached the service,
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
