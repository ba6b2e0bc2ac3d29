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

// TestRecycledScratchStartsEmpty: a transaction's scratch — cache, queue,
// slab, payload buffer — goes back to the pool when it finishes, and the next
// transaction on the TC (usually handed the same one) sees none of it: not a
// value its predecessor cached or wrote, not an operation it queued or
// logged, not a commit timestamp it stamped.
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
			if keys, _, err := x.Scan("t", "a", "d", 0); err != nil || len(keys) != 3 { // read over, then dropped
				t.Fatalf("scan: %v %v", keys, err)
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
			ops := txnRecords(tcx, y.ID())
			if len(ops) != 1 {
				t.Fatalf("the next commit logged %d op records, want 1", len(ops))
			}
			if op, err := decodeOpPayload(ops[0].Payload); err != nil || op.Key != "own" {
				t.Fatalf("the next commit logged %v (%v), want its own upsert", op, err)
			}
		}
	})
	t.Run("grown", func(t *testing.T) {
		// A scratch a bulk commit grew is kept grown: the first bulk commit
		// grows its cache map, the second moves into that map once it
		// outgrows the small one. The small transactions after them keep to
		// the small map. The key they read changes at the DC behind the TC's
		// back (a write of another TC), so a stale cache entry shows.
		tcx, stub := newShipLogPair(t)
		for range 2 {
			if err := tcx.RunTxn(ctx, TxnOptions{}, func(x *Txn) error {
				for i := 0; i < 100; i++ {
					if err := x.Upsert("t", fmt.Sprintf("b%03d", i), []byte("bulk")); err != nil {
						return err
					}
				}
				return x.Upsert("t", "k", []byte("dc"))
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			x := tcx.Begin(ctx, TxnOptions{})
			if err := x.Upsert("t", "k", []byte("aborted")); err != nil {
				t.Fatal(err)
			}
			if _, _, err := x.Read("t", "b005"); err != nil {
				t.Fatal(err)
			}
			if err := x.Abort(); err != nil {
				t.Fatal(err)
			}
			fresh := fmt.Sprintf("new%d", i)
			other := &base.Op{TC: 2, Epoch: 1, LSN: base.LSN(i + 1), Kind: base.OpUpsert, Table: "t", Key: "b005", Value: []byte(fresh)}
			if res := stub.Service.PerformBatch(ctx, []*base.Op{other}); res[0].Code != base.CodeOK {
				t.Fatalf("another TC's write: %v", res[0].Code)
			}
			y := tcx.Begin(ctx, TxnOptions{})
			if v, ok, err := y.Read("t", "k"); err != nil || !ok || string(v) != "dc" {
				t.Fatalf("read after an aborted upsert = %q %v %v, want the DC's %q", v, ok, err, "dc")
			}
			if v, ok, err := y.Read("t", "b005"); err != nil || !ok || string(v) != fresh {
				t.Fatalf("read of a key a predecessor read = %q %v %v, want %q", v, ok, err, fresh)
			}
			if err := y.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// A later bulk transaction moves into the grown map again, which
		// holds nothing of the transactions before it.
		other := &base.Op{TC: 2, Epoch: 1, LSN: 9, Kind: base.OpUpsert, Table: "t", Key: "b005", Value: []byte("last")}
		if res := stub.Service.PerformBatch(ctx, []*base.Op{other}); res[0].Code != base.CodeOK {
			t.Fatalf("another TC's write: %v", res[0].Code)
		}
		x := tcx.Begin(ctx, TxnOptions{})
		for i := 0; i < 2*slabOps; i++ {
			if err := x.Upsert("t", fmt.Sprintf("c%03d", i), []byte("c")); err != nil {
				t.Fatal(err)
			}
		}
		if v, ok, err := x.Read("t", "b005"); err != nil || !ok || string(v) != "last" {
			t.Fatalf("a bulk transaction reads %q %v %v, want %q", v, ok, err, "last")
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("versioned", func(t *testing.T) {
		tcx, stub := newShipLogPair(t)
		for i := 0; i < 8; i++ {
			x := tcx.Begin(ctx, TxnOptions{Versioned: true})
			if err := x.Upsert("t", "v", []byte("stamped")); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := x.ReadDirty("t", "v"); err != nil || !ok || string(v) != "stamped" { // its own write
				t.Fatalf("read dirty: %q %v %v", v, ok, err)
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
