package tc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// shipped is one logged operation as a DC received it, copied out of the
// operation the TC lent for the call.
type shipped struct {
	key, value string
	ts         base.TS
	versioned  bool
}

func (s shipped) String() string {
	return fmt.Sprintf("%s=%q@%d/%v", s.key, s.value, s.ts, s.versioned)
}

// shipLog records every delivery of logged operations its DC receives.
type shipLog struct {
	base.Service
	mu   sync.Mutex
	sent [][]shipped
}

func copyOut(ops []*base.Op) []shipped {
	out := make([]shipped, len(ops))
	for i, op := range ops {
		out[i] = shipped{key: op.Key, value: string(op.Value), ts: op.TS, versioned: op.Versioned}
	}
	return out
}

func (s *shipLog) record(ops []*base.Op) {
	if !ops[0].Kind.IsWrite() {
		return
	}
	s.mu.Lock()
	s.sent = append(s.sent, copyOut(ops))
	s.mu.Unlock()
}

func (s *shipLog) Perform(ctx context.Context, op *base.Op) *base.Result {
	s.record([]*base.Op{op})
	return s.Service.Perform(ctx, op)
}

func (s *shipLog) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	s.record(ops)
	return s.Service.PerformBatch(ctx, ops)
}

// take returns and resets the deliveries seen.
func (s *shipLog) take() [][]shipped {
	s.mu.Lock()
	defer s.mu.Unlock()
	sent := s.sent
	s.sent = nil
	return sent
}

// newStubbedTC wires one TC to one DC with table "t" through the stub wrap
// makes of it, and returns the DC.
func newStubbedTC(t *testing.T, wrap func(*dc.DC) base.Service) (*TC, *dc.DC) {
	t.Helper()
	d, err := dc.New(dc.Config{Name: "dc0", CheckConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tcx, err := New(Config{ID: 1}, []base.Service{wrap(d)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	return tcx, d
}

func newShipLogPair(t *testing.T) (*TC, *shipLog) {
	t.Helper()
	stub := &shipLog{}
	tcx, _ := newStubbedTC(t, func(d *dc.DC) base.Service { stub.Service = d; return stub })
	return tcx, stub
}

// TestRecycledScratchStartsEmpty: a transaction's scratch — cache, versioned
// keys, queue, slab, payload buffer — goes back to the pool when it finishes,
// and the next transaction on the TC (usually handed the same one) sees none
// of it: not a value its predecessor cached, not an operation it queued or
// logged, not a key it wrote versioned.
func TestRecycledScratchStartsEmpty(t *testing.T) {
	ctx := context.Background()
	t.Run("cache", func(t *testing.T) {
		tcx, _ := newShipLogPair(t)
		if err := tcx.RunTxn(ctx, TxnOptions{}, func(x *Txn) error { return x.Upsert("t", "k", []byte("dc")) }); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			x := tcx.Begin(ctx, TxnOptions{})
			if err := x.Upsert("t", "k", []byte("aborted")); err != nil {
				t.Fatal(err)
			}
			if err := x.Abort(); err != nil {
				t.Fatal(err)
			}
			y := tcx.Begin(ctx, TxnOptions{})
			if v, ok, err := y.Read("t", "k"); err != nil || !ok || string(v) != "dc" {
				t.Fatalf("read after an aborted upsert = %q %v %v, want the DC's %q", v, ok, err, "dc")
			}
			if err := y.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("batch", func(t *testing.T) {
		tcx, stub := newShipLogPair(t)
		for i := 0; i < 8; i++ {
			x := tcx.Begin(ctx, TxnOptions{})
			for _, k := range []string{"a", "b", "c"} {
				if err := x.Upsert("t", k, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.flush(); err != nil { // logged and shipped, then rolled back
				t.Fatal(err)
			}
			for _, k := range []string{"d", "e"} {
				if err := x.Upsert("t", k, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.Abort(); err != nil {
				t.Fatal(err)
			}
			stub.take()
			y := tcx.Begin(ctx, TxnOptions{})
			if err := y.Upsert("t", "own", []byte("y")); err != nil {
				t.Fatal(err)
			}
			if err := y.Commit(); err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(stub.take()), `[[own="y"@0/false]]`; got != want {
				t.Fatalf("the next commit shipped %s, want %s", got, want)
			}
			ops, clrs := txnRecords(tcx, y.ID())
			if len(ops) != 1 || len(clrs) != 0 {
				t.Fatalf("the next commit logged %d op and %d compensation records, want 1 and 0", len(ops), len(clrs))
			}
			if op, _, err := decodeOpPayload(ops[0].Payload); err != nil || op.Key != "own" {
				t.Fatalf("the next commit logged %v (%v), want its own upsert", op, err)
			}
		}
	})
	t.Run("versioned", func(t *testing.T) {
		tcx, stub := newShipLogPair(t)
		for i := 0; i < 8; i++ {
			x := tcx.Begin(ctx, TxnOptions{Versioned: true})
			if err := x.Upsert("t", "v", []byte("stamped")); err != nil {
				t.Fatal(err)
			}
			if err := x.flush(); err != nil { // marked for its commit barrier to write again
				t.Fatal(err)
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			stub.take()
			y := tcx.Begin(ctx, TxnOptions{})
			if err := y.Upsert("t", "plain", []byte("p")); err != nil {
				t.Fatal(err)
			}
			if err := y.Commit(); err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprint(stub.take()), `[[plain="p"@0/false]]`; got != want {
				t.Fatalf("an unversioned commit after a versioned one shipped %s, want %s", got, want)
			}
		}
	})
}

// parkingLog parks the first delivery of logged operations it is sent once
// armed, copying the operations out as they arrive, and passes them on when
// released. What it passes on must still be what it was sent: the operations
// are lent by a transaction whose Commit returned long before.
type parkingLog struct {
	base.Service
	armed   bool
	mu      sync.Mutex
	parked  chan []shipped
	release chan struct{}
	passed  chan []shipped
}

func (s *parkingLog) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	s.mu.Lock()
	park := s.armed && ops[0].Kind.IsWrite()
	if park {
		s.armed = false
	}
	s.mu.Unlock()
	if park {
		s.parked <- copyOut(ops)
		<-s.release
		s.passed <- copyOut(ops)
	}
	return s.Service.PerformBatch(ctx, ops)
}

// TestCancelledCommitKeepsItsScratch: a Commit cancelled while its batch is
// parked at the DC returns at once, and its finisher goes on with the
// transaction's scratch — the operations it lent the DC live there. While it
// is parked, 100 transactions run on the same TC, taking scratch from the
// pool and giving it back; none of them may be handed the parked one. The
// batch the DC finally executes carries the parked transaction's own keys and
// values, and (under -race) nobody else wrote them meanwhile.
func TestCancelledCommitKeepsItsScratch(t *testing.T) {
	stub := &parkingLog{parked: make(chan []shipped, 1), release: make(chan struct{}), passed: make(chan []shipped, 1)}
	tcx, d := newStubbedTC(t, func(d *dc.DC) base.Service { stub.Service = d; return stub })

	ctx, cancel := context.WithCancel(context.Background())
	x := tcx.Begin(ctx, TxnOptions{})
	for i := 0; i < 3; i++ {
		if err := x.Upsert("t", fmt.Sprintf("p%d", i), []byte(fmt.Sprintf("parked%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	stub.mu.Lock()
	stub.armed = true
	stub.mu.Unlock()
	// 100 transactions on four goroutines, one of them the goroutine that ran
	// the cancelled Commit: the pool keeps a scratch given back on the
	// processor that gave it back, so a scratch given back too early would be
	// handed to one of them.
	others := func(g int) {
		for i := 0; i < 25; i++ {
			if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
				if _, _, err := y.Read("t", fmt.Sprintf("o%d-%d", g, i)); err != nil {
					return err
				}
				for _, k := range []string{"a", "b", "c"} {
					if err := y.Upsert("t", fmt.Sprintf("o%d-%d%s", g, i, k), []byte("other")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	wg.Add(4)
	done := make(chan error, 1)
	go func() {
		defer wg.Done()
		done <- x.Commit()
		others(0)
	}()
	var sent []shipped
	select {
	case sent = <-stub.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the commit's batch never reached the DC")
	}
	cancel()
	if err := <-done; !errors.Is(err, ErrCommitAmbiguous) {
		t.Errorf("cancelled commit = %v, want ErrCommitAmbiguous", err)
	}
	for g := 1; g < 4; g++ {
		go func() {
			defer wg.Done()
			others(g)
		}()
	}
	wg.Wait()
	close(stub.release)
	if t.Failed() {
		return
	}
	if got := <-stub.passed; fmt.Sprint(got) != fmt.Sprint(sent) {
		t.Fatalf("the parked batch was sent as %v and executed as %v", sent, got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(tcx.Locks().Held(x.ID())) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the finisher never released its locks")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if v, ok := dirty(d, "t", fmt.Sprintf("p%d", i)); !ok || v != fmt.Sprintf("parked%d", i) {
			t.Fatalf("p%d = %q %v after the finisher, want %q", i, v, ok, fmt.Sprintf("parked%d", i))
		}
	}
}
