package tc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// slowService delays every operation delivery, making the asynchrony of
// pipelined writes observable: a posted write is provably not yet applied
// when the transaction continues, so the commit barrier has real work.
type slowService struct {
	base.Service
	delay time.Duration
}

func (s *slowService) Perform(ctx context.Context, op *base.Op) *base.Result {
	time.Sleep(s.delay)
	return s.Service.Perform(ctx, op)
}

func (s *slowService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	time.Sleep(s.delay)
	return s.Service.PerformBatch(ctx, ops)
}

// newPipelinedPair wires one pipelined TC to one DC through a delay.
func newPipelinedPair(t *testing.T, delay time.Duration) (*TC, *dc.DC) {
	t.Helper()
	d, err := dc.New(dc.Config{Name: "dc0", CheckConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"t", "u"} {
		if err := d.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	var svc base.Service = d
	if delay > 0 {
		svc = &slowService{Service: d, delay: delay}
	}
	tcx, err := New(Config{ID: 1, Pipeline: true}, []base.Service{svc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	return tcx, d
}

func TestPipelinedWriteSemantics(t *testing.T) {
	tcx, _ := newPipelinedPair(t, 0)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if err := x.Insert("t", "k", []byte("v1")); err != nil {
			return err
		}
		if err := x.Insert("t", "k", nil); !errors.Is(err, ErrDuplicate) {
			return fmt.Errorf("dup insert: %v", err)
		}
		if err := x.Update("t", "missing", nil); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("update missing: %v", err)
		}
		// Own write visible before the ack arrives (transaction cache).
		if v, ok, _ := x.Read("t", "k"); !ok || string(v) != "v1" {
			return fmt.Errorf("own read: %q %v", v, ok)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if err := x.Upsert("t", "k", []byte("v2")); err != nil {
			return err
		}
		return x.Delete("t", "k")
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if _, ok, _ := x.Read("t", "k"); ok {
			return fmt.Errorf("key survived delete")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedCommitAckBarrier(t *testing.T) {
	// A 2ms delivery delay means writes are certainly still in flight when
	// the transaction body finishes; Commit must not return (nor release
	// locks) until every one of them has been applied at the DC.
	tcx, d := newPipelinedPair(t, 2*time.Millisecond)
	const n = 5
	start := time.Now()
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < n; i++ {
			if err := x.Insert("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("commit returned before any batch could have been delivered")
	}
	// After Commit returns, the DC must reflect every write.
	for i := 0; i < n; i++ {
		r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t",
			Key: fmt.Sprintf("k%d", i), Flavor: base.ReadDirty})
		if !r.Found {
			t.Fatalf("k%d not applied at DC after commit", i)
		}
	}
}

func TestPipelinedAbortDrainsBeforeUndo(t *testing.T) {
	tcx, _ := newPipelinedPair(t, time.Millisecond)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "base", []byte("committed"))
	}); err != nil {
		t.Fatal(err)
	}
	x := tcx.Begin(context.Background(), TxnOptions{})
	if err := x.Update("t", "base", []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert("t", "tmp", []byte("temp")); err != nil {
		t.Fatal(err)
	}
	// The barrier logs and posts them; the abort meets them in flight.
	if err := x.flush(); err != nil {
		t.Fatal(err)
	}
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		if v, ok, _ := y.Read("t", "base"); !ok || string(v) != "committed" {
			return fmt.Errorf("update not rolled back: %q %v", v, ok)
		}
		if _, ok, _ := y.Read("t", "tmp"); ok {
			return fmt.Errorf("insert not rolled back")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tcx.Stats().UndoOps != 2 {
		t.Fatalf("stats: %+v", tcx.Stats())
	}
}

func TestPipelinedVersionedBlindUpsert(t *testing.T) {
	tcx, d := newPipelinedPair(t, 0)
	// Versioned upserts skip the existence pre-check entirely; semantics
	// must be unchanged, including finalize-before-unlock at commit.
	if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
		return x.Upsert("t", "v", []byte("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	rc := func() *base.Result {
		return d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "v",
			Flavor: base.ReadCommitted})
	}
	// Commit has drained the finalize op: read-committed sees v1 at once.
	if r := rc(); !r.Found || string(r.Value) != "v1" {
		t.Fatalf("committed read: %+v", r)
	}
	x := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := x.Upsert("t", "v", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := rc(); string(r.Value) != "v2" {
		t.Fatalf("after second commit: %+v", r)
	}
	// Aborted blind upsert rolls back via abort-versions.
	y := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := y.Upsert("t", "v", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := y.Abort(); err != nil {
		t.Fatal(err)
	}
	if r := rc(); string(r.Value) != "v2" {
		t.Fatalf("after abort: %+v", r)
	}
}

func TestPipelinedScanSeesOwnWrites(t *testing.T) {
	tcx, _ := newPipelinedPair(t, time.Millisecond)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < 8; i++ {
			if err := x.Insert("t", fmt.Sprintf("s%03d", i), []byte("v")); err != nil {
				return err
			}
		}
		// The scan must drain the pipeline first (read-your-writes).
		keys, _, err := x.Scan("t", "s000", "s999", 0)
		if err != nil {
			return err
		}
		if len(keys) != 8 {
			return fmt.Errorf("scan sees %d of 8 own writes: %v", len(keys), keys)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedTCCrashRecovery(t *testing.T) {
	tcx, _ := newPipelinedPair(t, 0)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "committed", []byte("keep"))
	}); err != nil {
		t.Fatal(err)
	}
	// A loser with writes that may still be queued when the crash hits.
	loser := tcx.Begin(context.Background(), TxnOptions{})
	if err := loser.Insert("t", "loser", []byte("drop")); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update("t", "committed", []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	if err := loser.flush(); err != nil {
		t.Fatal(err)
	}
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if v, ok, _ := x.Read("t", "committed"); !ok || string(v) != "keep" {
			return fmt.Errorf("committed data wrong: %q %v", v, ok)
		}
		if _, ok, _ := x.Read("t", "loser"); ok {
			return fmt.Errorf("loser survived")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "after", []byte("ok"))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedDCCrashRecoveryViaResend(t *testing.T) {
	tcx, d := newPipelinedPair(t, 0)
	for i := 0; i < 50; i++ {
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", fmt.Sprintf("k%03d", i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < 50; i++ {
			if _, ok, _ := x.Read("t", fmt.Sprintf("k%03d", i)); !ok {
				return fmt.Errorf("key %d lost in DC crash", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLoggedWriteRidesOutDCOutage: the §4.2 resend contract is one rule,
// whoever runs it. A logged write issued while its DC admits nothing — it
// is draining, or crashed and not yet redone — parks in deliver's resend
// loop, on the transaction's goroutine or the pipeline worker's alike, and
// lands once the DC admits again; until then its LSN, whose only replies
// were unavailable nacks, must not complete in the ack tracker (the
// low-water mark would tell the DC that the operation was acknowledged).
func TestLoggedWriteRidesOutDCOutage(t *testing.T) {
	outages := []struct {
		name string
		down func(*dc.DC)
		up   func(*TC, *dc.DC) error
	}{
		{"drain", (*dc.DC).Drain, func(_ *TC, d *dc.DC) error {
			d.Undrain()
			return nil
		}},
		{"crash", (*dc.DC).Crash, func(tcx *TC, d *dc.DC) error {
			if err := d.Recover(); err != nil {
				return err
			}
			return tcx.RecoverDC(0)
		}},
	}
	for _, pipeline := range []bool{false, true} {
		for _, o := range outages {
			t.Run(fmt.Sprintf("pipeline=%v/%s", pipeline, o.name), func(t *testing.T) {
				tcx, d := newPair(t, Config{Pipeline: pipeline})
				if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
					return x.Insert("t", "pre", []byte("v"))
				}); err != nil {
					t.Fatal(err)
				}
				o.down(d)
				// Versioned: the upsert needs no pre-check read, so its op
				// record takes the very next LSN and the write is the first
				// thing to meet the outage.
				nacked := tcx.Log().LastLSN() + 1
				done := make(chan error, 1)
				go func() {
					done <- tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
						return x.Upsert("t", "during", []byte("v"))
					})
				}()
				for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
					select {
					case err := <-done:
						t.Fatalf("transaction finished against a DC that admits nothing: %v", err)
					default:
					}
					if lwm := tcx.acks.LWM(); lwm >= nacked {
						t.Fatalf("low-water mark %d reached LSN %d, which was only ever nacked", lwm, nacked)
					}
				}
				if err := o.up(tcx, d); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("write never landed after the DC admitted again")
				}
				if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
					if v, ok, err := x.Read("t", "during"); err != nil || !ok || string(v) != "v" {
						return fmt.Errorf("write issued during the outage reads back %q %v %v", v, ok, err)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// closedStubService mimics a wire client whose Close was called: every
// call answers CodeUnavailable and Closed reports true.
type closedStubService struct {
	base.Service
	closed atomic.Bool
}

func (s *closedStubService) Perform(ctx context.Context, op *base.Op) *base.Result {
	if s.closed.Load() {
		return &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
	}
	return s.Service.Perform(ctx, op)
}

func (s *closedStubService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if !s.closed.Load() {
		return s.Service.PerformBatch(ctx, ops)
	}
	out := make([]*base.Result, len(ops))
	for i, op := range ops {
		out[i] = &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
	}
	return out
}

func (s *closedStubService) Closed() bool { return s.closed.Load() }

func TestLoggedWriteUnblocksWhenStubClosed(t *testing.T) {
	// A wire stub closed before the TC (out-of-order shutdown) answers
	// everything with CodeUnavailable; deliver must recognize the closed
	// stub and fail the write (inline) or the commit barrier (pipelined)
	// instead of resending forever.
	for _, pipeline := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipeline), func(t *testing.T) {
			d, err := dc.New(dc.Config{Name: "dc0"})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			stub := &closedStubService{Service: d}
			tcx, err := New(Config{ID: 1, Pipeline: pipeline}, []base.Service{stub}, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tcx.Close)
			stub.closed.Store(true)
			done := make(chan error, 1)
			go func() {
				done <- tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
					return x.Upsert("t", "k", []byte("v"))
				})
			}()
			select {
			case err := <-done:
				if !errors.Is(err, ErrTCStopped) {
					t.Fatalf("transaction error = %v, want ErrTCStopped", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("transaction hung against a closed stub")
			}
		})
	}
}

func TestPipelinedStaleBatchNotDeliveredAfterTCCrash(t *testing.T) {
	// A batch parked in the unavailable-retry loop (DC down) when the TC
	// crashes belongs to a dead incarnation: its records vanished with the
	// unforced log tail, so after recovery it must be retired, never
	// delivered — delivering would apply a write no undo covers and record
	// a reused LSN in the DC's idempotence tables.
	tcx, d := newPipelinedPair(t, 0)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "committed", []byte("keep"))
	}); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	x := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := x.Upsert("t", "ghost", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := x.flush(); err != nil { // the barrier logs and posts the write
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the worker pop the batch and park
	tcx.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the parked batch's backoff expire
	r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "ghost",
		Flavor: base.ReadDirty})
	if r.Found {
		t.Fatal("stale pipelined batch delivered after crash+recovery")
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		if v, ok, _ := y.Read("t", "committed"); !ok || string(v) != "keep" {
			return fmt.Errorf("committed data wrong: %q %v", v, ok)
		}
		return y.Insert("t", "after", []byte("ok"))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelinedConcurrentNoConflictInvariant(t *testing.T) {
	// Concurrent conflicting transactions through the pipelines: the DC
	// conflict checker must stay clean, proving the ack barrier keeps
	// strict 2PL airtight (no lock release before the ops are applied).
	tcx, d := newPipelinedPair(t, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("hot%d", i%5)
				_ = tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
					return x.Upsert("t", key, []byte(fmt.Sprintf("g%d", g)))
				})
			}
		}(g)
	}
	wg.Wait()
	if v := d.Stats().ConflictViols; v != 0 {
		t.Fatalf("conflicting concurrent operations reached the DC: %d", v)
	}
}
