package wire

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/stats"
)

// recordingService is the echo service with a journal: every watermark
// and every operation it is handed, in the order the server runtime handed
// them over.
type recordingService struct {
	*echoService
	jmu     sync.Mutex
	journal []string
}

func newRecordingService() *recordingService {
	return &recordingService{echoService: newEchoService()}
}

func (s *recordingService) note(format string, args ...any) {
	s.jmu.Lock()
	s.journal = append(s.journal, fmt.Sprintf(format, args...))
	s.jmu.Unlock()
}

// events drains the journal.
func (s *recordingService) events() []string {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	out := s.journal
	s.journal = nil
	return out
}

// await polls until the journal holds n events, then drains it.
func (s *recordingService) await(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.jmu.Lock()
		got := len(s.journal)
		s.jmu.Unlock()
		if got >= n {
			return s.events()
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal has %d events, want %d: %v", got, n, s.events())
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *recordingService) Perform(ctx context.Context, op *base.Op) *base.Result {
	s.note("op %d", op.LSN)
	return s.echoService.Perform(ctx, op)
}

func (s *recordingService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	s.note("batch %d+%d", ops[0].LSN, len(ops))
	return s.echoService.PerformBatch(ctx, ops)
}

func (s *recordingService) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	s.note("eosl %d/%d %d", tc, epoch, eosl)
}

func (s *recordingService) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	s.note("lwm %d/%d %d", tc, epoch, lwm)
}

func (s *recordingService) SafeTS(tc base.TCID, epoch base.Epoch, safe, horizon base.TS) {
	s.note("safe %d/%d %d %d", tc, epoch, safe, horizon)
}

func (s *recordingService) Checkpoint(ctx context.Context, tc base.TCID, epoch base.Epoch, newRSSP base.LSN) error {
	s.note("checkpoint %d", newRSSP)
	return nil
}

// tap records every frame the client puts on the wire and can eat them
// first, the way a lossy fabric would.
type tap struct {
	mu     sync.Mutex
	frames []message
	drop   int // eat this many frames more (they are still recorded)
}

func tapClient(cl *Client) *tap {
	tp := &tap{}
	send := cl.sendFn
	cl.sendFn = func(m *message) {
		tp.mu.Lock()
		tp.frames = append(tp.frames, *m)
		eat := tp.drop != 0
		if eat {
			tp.drop--
		}
		tp.mu.Unlock()
		if !eat {
			send(m)
		}
	}
	return tp
}

func (tp *tap) take() []message {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := tp.frames
	tp.frames = nil
	return out
}

func (tp *tap) dropNext(n int) {
	tp.mu.Lock()
	tp.drop = n
	tp.mu.Unlock()
}

// onBothTransports runs f against a tapped client of a recording service,
// once over the simulated fabric and once over loopback TCP.
func onBothTransports(t *testing.T, resendAfter time.Duration, f func(t *testing.T, cl *Client, svc *recordingService, tp *tap)) {
	t.Run("sim", func(t *testing.T) {
		svc := newRecordingService()
		cl, srv := NewNetwork(Config{ResendAfter: resendAfter}).Connect(svc)
		defer srv.Close()
		defer cl.Close()
		f(t, cl, svc, tapClient(cl))
	})
	t.Run("tcp", func(t *testing.T) {
		svc := newRecordingService()
		l, err := Listen("127.0.0.1:0", svc)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		cl := Dial(l.Addr(), DialConfig{ResendAfter: resendAfter})
		defer cl.Close()
		tp := tapClient(cl)
		if err := cl.WaitConnected(context.Background()); err != nil {
			t.Fatal(err)
		}
		f(t, cl, svc, tp)
	})
}

func readOp(epoch base.Epoch, lsn base.LSN) *base.Op {
	return &base.Op{TC: 1, Epoch: epoch, LSN: lsn, Kind: base.OpRead, Table: "t", Key: "k"}
}

func mustPerform(t *testing.T, cl *Client, op *base.Op) {
	t.Helper()
	if res := cl.Perform(context.Background(), op); res.Code != base.CodeOK {
		t.Fatalf("perform %d: %+v", op.LSN, res)
	}
}

func wantEvents(t *testing.T, got []string, want ...string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("service saw %v, want %v", got, want)
	}
}

func clientStat(cl *Client, name string) uint64 {
	reg := stats.NewRegistry()
	cl.RegisterStats(reg.Group("c"), "")
	return reg.Snapshot()["c"][name]
}

// TestWatermarksRideTheNextRequest is the rule: EndOfStableLog and
// LowWaterMark send nothing; the next request of that incarnation delivers
// both before its operation executes, and only that one request.
func TestWatermarksRideTheNextRequest(t *testing.T) {
	onBothTransports(t, time.Second, func(t *testing.T, cl *Client, svc *recordingService, tp *tap) {
		cl.EndOfStableLog(1, 1, 42)
		cl.LowWaterMark(1, 1, 40)
		cl.EndOfStableLog(1, 1, 41) // a late, lower claim changes nothing
		if frames := tp.take(); len(frames) != 0 {
			t.Fatalf("watermark calls alone sent %d frames: %+v", len(frames), frames)
		}

		mustPerform(t, cl, readOp(1, 7))
		wantEvents(t, svc.events(), "eosl 1/1 42", "lwm 1/1 40", "op 7")
		frames := tp.take()
		if len(frames) != 1 || frames[0].wm != (watermarks{has: wmEOSL | wmLWM, eosl: 42, lwm: 40}) {
			t.Fatalf("first request: %+v", frames)
		}

		mustPerform(t, cl, readOp(1, 8))
		wantEvents(t, svc.events(), "op 8")
		if frames := tp.take(); len(frames) != 1 || frames[0].wm.has != 0 {
			t.Fatalf("second request carried a block again: %+v", frames)
		}

		// Only what moved waits: a batch and a control call carry it too.
		cl.LowWaterMark(1, 1, 41)
		cl.PerformBatch(context.Background(), []*base.Op{readOp(1, 9), readOp(1, 10)})
		wantEvents(t, svc.events(), "lwm 1/1 41", "batch 9+2")
		cl.EndOfStableLog(1, 1, 50)
		if err := cl.Checkpoint(context.Background(), 1, 1, 11); err != nil {
			t.Fatal(err)
		}
		wantEvents(t, svc.await(t, 2), "eosl 1/1 50", "checkpoint 11")

		if frames, carried := clientStat(cl, "watermark_frames"), clientStat(cl, "watermarks_carried"); frames != 0 || carried != 3 {
			t.Fatalf("watermark_frames %d, watermarks_carried %d; want 0, 3", frames, carried)
		}
	})
}

// TestSafeTSSendsOneFrameWithAllThree: the tick's frame. It also takes the
// marks no request has carried yet, so none is sent twice over.
func TestSafeTSSendsOneFrameWithAllThree(t *testing.T) {
	onBothTransports(t, time.Second, func(t *testing.T, cl *Client, svc *recordingService, tp *tap) {
		cl.EndOfStableLog(1, 1, 9)
		cl.LowWaterMark(1, 1, 8)
		cl.SafeTS(1, 1, 7, 6)
		want := message{kind: msgWatermarks, tc: 1, epoch: 1,
			wm: watermarks{has: wmAll, eosl: 9, lwm: 8, safe: 7, horizon: 6}}
		if frames := tp.take(); len(frames) != 1 || !reflect.DeepEqual(frames[0], want) {
			t.Fatalf("SafeTS sent %+v, want one %+v", frames, want)
		}
		wantEvents(t, svc.await(t, 3), "eosl 1/1 9", "lwm 1/1 8", "safe 1/1 7 6")

		mustPerform(t, cl, readOp(1, 1))
		wantEvents(t, svc.events(), "op 1")

		// A SafeTS of another incarnation has nothing of this one to carry.
		cl.SafeTS(1, 2, 70, 60)
		wantEvents(t, svc.await(t, 1), "safe 1/2 70 60")
		if frames := tp.take(); len(frames) != 2 || frames[1].wm.has != wmSafe {
			t.Fatalf("frames %+v", frames)
		}
		if frames, carried := clientStat(cl, "watermark_frames"), clientStat(cl, "watermarks_carried"); frames != 2 || carried != 0 {
			t.Fatalf("watermark_frames %d, watermarks_carried %d; want 2, 0", frames, carried)
		}
	})
}

// TestHeldWatermarksStayWithTheirEpoch: a block is stamped with its frame's
// epoch, so marks held under epoch e do not leave on a request of e+1 —
// and a newer incarnation's marks replace them, lower or not.
func TestHeldWatermarksStayWithTheirEpoch(t *testing.T) {
	onBothTransports(t, time.Second, func(t *testing.T, cl *Client, svc *recordingService, tp *tap) {
		cl.EndOfStableLog(1, 1, 42)
		mustPerform(t, cl, readOp(2, 1))
		wantEvents(t, svc.events(), "op 1")
		if frames := tp.take(); len(frames) != 1 || frames[0].wm.has != 0 {
			t.Fatalf("epoch-2 request took an epoch-1 block: %+v", frames)
		}
		mustPerform(t, cl, readOp(1, 2))
		wantEvents(t, svc.events(), "eosl 1/1 42", "op 2")

		cl.EndOfStableLog(1, 2, 5) // the restarted TC reuses the LSN space
		cl.EndOfStableLog(1, 1, 99)
		mustPerform(t, cl, readOp(1, 3))
		mustPerform(t, cl, readOp(2, 4))
		wantEvents(t, svc.events(), "op 3", "eosl 1/2 5", "op 4")
	})
}

// TestResendKeepsItsBlock: the block a first attempt took leaves again with
// every resend, so a lost frame cannot strand it; and when the call itself is
// given up, the next SafeTS frame repairs the loss.
func TestResendKeepsItsBlock(t *testing.T) {
	onBothTransports(t, 2*time.Millisecond, func(t *testing.T, cl *Client, svc *recordingService, tp *tap) {
		cl.EndOfStableLog(1, 1, 42)
		cl.LowWaterMark(1, 1, 40)
		tp.dropNext(2)
		mustPerform(t, cl, readOp(1, 7))
		wantEvents(t, svc.events(), "eosl 1/1 42", "lwm 1/1 40", "op 7")
		frames := tp.take()
		if len(frames) < 3 {
			t.Fatalf("%d attempts, want at least 3", len(frames))
		}
		for i, m := range frames {
			if m.wm != (watermarks{has: wmEOSL | wmLWM, eosl: 42, lwm: 40}) {
				t.Fatalf("attempt %d lost the block: %+v", i, m)
			}
		}
		// A call given up with every attempt lost took the waiting mark with
		// it; SafeTS sends what is held, waiting or not.
		cl.EndOfStableLog(1, 1, 50)
		tp.dropNext(1 << 30)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		res := cl.Perform(ctx, readOp(1, 8))
		cancel()
		if res.Code != base.CodeCancelled {
			t.Fatalf("perform into the void: %+v", res)
		}
		tp.dropNext(0)
		tp.take()
		cl.SafeTS(1, 1, 7, 6)
		wantEvents(t, svc.await(t, 3), "eosl 1/1 50", "lwm 1/1 40", "safe 1/1 7 6")
	})
}

// TestCarriedWatermarksSurviveInjectedLoss drives the same property through
// the transports' own loss injection: whatever was stored before a request
// has been applied by the time the request is answered.
func TestCarriedWatermarksSurviveInjectedLoss(t *testing.T) {
	run := func(t *testing.T, cl *Client, svc *echoService) {
		for i := 1; i <= 60; i++ {
			cl.EndOfStableLog(1, 1, base.LSN(i))
			cl.LowWaterMark(1, 1, base.LSN(i))
			mustPerform(t, cl, readOp(1, base.LSN(i)))
			svc.mu.Lock()
			eosl, lwm := svc.eosl, svc.lwm
			svc.mu.Unlock()
			if eosl != base.LSN(i) || lwm != base.LSN(i) {
				t.Fatalf("request %d answered with eosl %d, lwm %d applied", i, eosl, lwm)
			}
		}
		if cl.Resends() == 0 {
			t.Fatal("no resends: the loss injection did nothing")
		}
	}
	t.Run("sim", func(t *testing.T) {
		svc := newEchoService()
		cl, srv := NewNetwork(Config{LossProb: 0.3, ResendAfter: 2 * time.Millisecond, Seed: 5}).Connect(svc)
		defer srv.Close()
		defer cl.Close()
		run(t, cl, svc)
	})
	t.Run("tcp", func(t *testing.T) {
		svc := newEchoService()
		cl, _ := dialTest(t, svc, DialConfig{DropProb: 0.4, DropSeed: 42, ResendAfter: 2 * time.Millisecond})
		run(t, cl, svc)
	})
}

// TestCloseLeavesNoWaiter: callers blocked against a server that never
// answers all fail typed on Close, and none leaves its waiter behind.
func TestCloseLeavesNoWaiter(t *testing.T) {
	cl, srv := NewNetwork(Config{ResendAfter: time.Hour}).Connect(newEchoService())
	defer srv.Close()
	srv.SetDown(true)

	const callers = 8
	done := make(chan base.Code, callers)
	for i := 1; i <= callers; i++ {
		go func() { done <- cl.Perform(context.Background(), readOp(1, base.LSN(i))).Code }()
	}
	for {
		cl.mu.Lock()
		blocked := len(cl.waiters)
		cl.mu.Unlock()
		if blocked == callers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	cl.Close()
	for i := 0; i < callers; i++ {
		select {
		case code := <-done:
			if code != base.CodeUnavailable {
				t.Fatalf("caller returned %v, want CodeUnavailable", code)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("caller still blocked after Close")
		}
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if len(cl.waiters) != 0 {
		t.Fatalf("%d waiters left behind by Close", len(cl.waiters))
	}
}
