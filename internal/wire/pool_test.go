package wire

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// --- worker pool unit tests --------------------------------------------

func TestWorkerPoolOverloadRefusal(t *testing.T) {
	p := newWorkerPool(2, 1)
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	// Occupy both workers; least-busy placement lands one job on each.
	for i := 0; i < 2; i++ {
		if !p.dispatch(func() { started <- struct{}{}; <-gate }) {
			t.Fatal("dispatch refused with empty queues")
		}
	}
	<-started
	<-started
	// Fill both queues behind the running jobs.
	for i := 0; i < 2; i++ {
		if !p.dispatch(func() {}) {
			t.Fatalf("dispatch %d refused with queue room", i)
		}
	}
	if got := p.queued(); got != 4 {
		t.Fatalf("queued = %d, want 4 (2 running + 2 queued)", got)
	}
	// Every queue full: the next dispatch must refuse, not block.
	if p.dispatch(func() { t.Error("refused job ran") }) {
		t.Fatal("dispatch admitted a job with every queue full")
	}
	if got := p.overloads.Load(); got != 1 {
		t.Fatalf("overloads = %d, want 1", got)
	}
	close(gate)
	p.close()
	if got := p.dispatched.Load(); got != 4 {
		t.Fatalf("dispatched = %d, want 4", got)
	}
	if got := p.queued(); got != 0 {
		t.Fatalf("queued after close = %d, want 0", got)
	}
}

func TestWorkerPoolLeastBusyPlacement(t *testing.T) {
	p := newWorkerPool(2, 4)
	gate := make(chan struct{})
	started := make(chan struct{})
	// First dispatch (loads 0,0) lands on worker 0 and pins it.
	p.dispatch(func() { close(started); <-gate })
	<-started
	blocked, free := p.workers[0], p.workers[1]
	// Every further job must route around the pinned shard.
	done := make(chan struct{})
	for i := 0; i < 3; i++ {
		// Wait for the previous job's load decrement so the free worker
		// reads 0 and the placement is deterministic (1 vs 0).
		for free.load.Load() != 0 {
			runtime.Gosched()
		}
		p.dispatch(func() { done <- struct{}{} })
		<-done
	}
	if got := blocked.done.Load(); got != 0 {
		t.Fatalf("pinned worker executed %d jobs before release", got)
	}
	close(gate)
	p.close()
	if got := free.done.Load(); got != 3 {
		t.Fatalf("free worker executed %d jobs, want 3", got)
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

// FuzzAckBatch pins the msgReplyBatch body codec, the bytes a TC's reply pump
// takes from the network: any input either fails to decode or decodes to
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

// slowService delays every Perform, so a tiny pool backs up on demand.
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

// TestTCPBackpressureOverloadIsAbsorbed saturates a deliberately tiny pool
// (one worker, queue depth one) with concurrent calls. The server must
// refuse the excess typed — never queue unboundedly — and the client's
// pause-and-retry loop must absorb every refusal invisibly: all calls
// still complete OK, with the refusals visible only in the counters.
func TestTCPBackpressureOverloadIsAbsorbed(t *testing.T) {
	svc := &slowService{echoService: newEchoService(), delay: 2 * time.Millisecond}
	l, err := ListenWith("127.0.0.1:0", svc, ListenConfig{Workers: 1, QueueDepth: 1})
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
		t.Fatal("no overload refusals despite 32 concurrent calls on a 1x1 pool")
	}
	if l.core.pool.overloads.Load() == 0 {
		t.Fatal("listener pool recorded no overloads")
	}
	svc.mu.Lock()
	applied := len(svc.applied)
	svc.mu.Unlock()
	if applied != calls {
		t.Fatalf("service applied %d distinct LSNs, want %d", applied, calls)
	}
}

// TestTCPCloseFinishesQueuedWork pins the lone worker on a gate, queues
// work behind it, and closes the listener. Admission is a promise: Close
// must wait for every admitted request to execute at the service, even
// though the connections (and therefore the replies) are already gone.
func TestTCPCloseFinishesQueuedWork(t *testing.T) {
	gate := make(chan struct{})
	svc := &slowService{echoService: newEchoService(), gate: gate}
	l, err := ListenWith("127.0.0.1:0", svc, ListenConfig{Workers: 1, QueueDepth: 8})
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
	// Wait until all five are admitted: one running (blocked on the gate),
	// four queued.
	deadline := time.Now().Add(10 * time.Second)
	for l.core.pool.queued() != calls {
		if time.Now().After(deadline) {
			t.Fatalf("pool load = %d, want %d", l.core.pool.queued(), calls)
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

// TestTCPReplyBatchFrameDelivery proves the coalesced-reply wire format
// end to end over real TCP: a msgReplyBatch frame written on the server
// side of a live connection fans out through the client's reply pump into
// the waiters of three in-flight calls. Whether replies actually collide
// at the batcher is timing-dependent (with GOMAXPROCS=1 pool workers
// never overlap, so fast flushes never collide at all) — the collision
// mechanics are pinned deterministically by
// TestAckBatcherCoalescesDuringFlush; this test pins the framing: the
// batch a collision produces is what a real dialed client decodes.
func TestTCPReplyBatchFrameDelivery(t *testing.T) {
	gate := make(chan struct{})
	svc := &slowService{echoService: newEchoService(), gate: gate}
	l, err := Listen("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	cl := Dial(l.Addr(), DialConfig{ResendAfter: time.Hour}) // no resends: correlation ids stay 1..3
	t.Cleanup(func() {
		cl.Close()
		l.Close()
	})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before l.Close, which waits for the gated workers
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := cl.WaitConnected(wctx); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const calls = 3
	results := make(chan *base.Result, calls)
	for i := 0; i < calls; i++ {
		go func(i int) {
			results <- cl.Perform(ctx, &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(i + 1),
				Kind: base.OpRead, Table: "t", Key: "k"})
		}(i)
	}
	// Each call registers its waiter before sending, so once three sends
	// are counted all three waiters exist — and the gated service holds
	// every request, so none has been answered.
	deadline := time.Now().Add(10 * time.Second)
	for cl.Calls() < calls {
		if time.Now().After(deadline) {
			t.Fatalf("sent %d calls, want %d", cl.Calls(), calls)
		}
		time.Sleep(time.Millisecond)
	}

	// Write one coalesced batch at the outstanding ids from the server side
	// of the live connection, exactly as a flush collision would. The
	// reader's own srvConn is idle — the service is gated — so the frame
	// never interleaves with a real reply.
	l.mu.Lock()
	var conn net.Conn
	for c := range l.conns {
		conn = c
	}
	l.mu.Unlock()
	if conn == nil {
		t.Fatal("no accepted connection")
	}
	sc := &srvConn{conn: conn, bw: bufio.NewWriter(conn)}
	batch := make([]*message, calls)
	for i := range batch {
		batch[i] = &message{kind: msgReply, id: uint64(i + 1),
			body: base.AppendResult(getReplyBuf(), &base.Result{LSN: base.LSN(i + 1),
				Code: base.CodeOK, Found: true, Value: []byte("batched")})}
	}
	sc.write(&message{kind: msgReplyBatch, body: encodeAckBatch(getReplyBuf(), batch)})

	for i := 0; i < calls; i++ {
		select {
		case res := <-results:
			if res.Code != base.CodeOK || string(res.Value) != "batched" {
				t.Fatalf("batched reply: %+v", res)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("call not completed by the batch frame")
		}
	}
	release() // the gated requests finish; their late replies are dropped as duplicates
}

// --- server runtime over the simulated fabric --------------------------

// heldService blocks Perform while held, pinning pool workers on demand.
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
// reordering through the worker pool and its admission control — the
// runtime a deployed DC runs. On a 1x1 pool with the worker held, refusals
// must reach the client typed and be absorbed by its retry loop (every
// call completes, each LSN applied), and Close must not return before
// every admitted job has run at the service.
func TestSimOverloadOnMisbehavingNetwork(t *testing.T) {
	n := NewNetwork(Config{Jitter: 200 * time.Microsecond, LossProb: 0.1, DupProb: 0.1,
		ResendAfter: 2 * time.Millisecond, Seed: 7})
	svc := &heldService{echoService: newEchoService()}
	cl, srv := n.connect(svc, ListenConfig{Workers: 1, QueueDepth: 1})
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

	// Overload: one request runs (held), one queues, the rest are refused.
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
	if srv.core.pool.overloads.Load() == 0 {
		t.Fatal("server pool recorded no overloads")
	}
	if st := n.Stats(); st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("network never misbehaved: %+v", st)
	}

	// Drain: fill the held pool again, then close under it.
	svc.hold()
	perform(calls + 1)
	perform(calls + 2)
	waitFor("the pool to fill", func() bool { return srv.core.pool.queued() == 2 })
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
	if admitted := srv.core.pool.dispatched.Load(); uint64(invocations) != admitted {
		t.Fatalf("service ran %d requests, pool admitted %d (queued work dropped on Close)", invocations, admitted)
	}
	cancel() // the last two calls' replies died with the server
	wg.Wait()
}
