package tc

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// chaosIters returns the iteration count for crash-interleaving tests:
// the default for ordinary runs, or CHAOS_ITERS when the chaos CI job (or
// a developer) wants elevated coverage.
func chaosIters(tb testing.TB, def int) int {
	s := os.Getenv("CHAOS_ITERS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		tb.Fatalf("bad CHAOS_ITERS %q", s)
	}
	return n
}

// gatedService wraps a DC and, when armed, parks the next delivery (a
// PerformBatch) until the gate is released — freezing a batch "on the wire"
// so the test can crash and restart the TC underneath it with full
// determinism.
type gatedService struct {
	base.Service
	armed   atomic.Bool
	gate    chan struct{}
	parked  chan struct{}
	results chan []*base.Result
}

func newGatedService(svc base.Service) *gatedService {
	return &gatedService{
		Service: svc,
		gate:    make(chan struct{}),
		parked:  make(chan struct{}),
		results: make(chan []*base.Result, 1),
	}
}

func (g *gatedService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if g.armed.CompareAndSwap(true, false) {
		g.parked <- struct{}{}
		<-g.gate
		rs := g.Service.PerformBatch(ctx, ops)
		g.results <- rs
		return rs
	}
	return g.Service.PerformBatch(ctx, ops)
}

// TestStaleBatchFencedAtDCAfterTCRestart is the end-to-end fence: the TC
// crashes while the PerformBatch of a forced commit is in flight and
// restarts, and its redo delivers the commit; when the frozen batch finally
// reaches the DC it must be refused as stale — a dead incarnation executes
// nothing once its successor has fenced it — and the write is there, from the
// redo.
func TestStaleBatchFencedAtDCAfterTCRestart(t *testing.T) {
	for it := 0; it < chaosIters(t, 3); it++ {
		d, err := dc.New(dc.Config{Name: "dc0", CheckConflicts: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		gated := newGatedService(d)
		tcx, err := New(Config{ID: 1}, []base.Service{gated}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(tcx.Close)

		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", "committed", []byte("keep"))
		}); err != nil {
			t.Fatal(err)
		}

		// A blind upsert reads nothing: its commit logs it, forces it and
		// ships it straight away; the wrapper freezes the shipped batch
		// mid-flight, and the commit with it.
		gated.armed.Store(true)
		ghost := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
		if err := ghost.Upsert("t", "ghost", []byte("x")); err != nil {
			t.Fatal(err)
		}
		commit := make(chan error, 1)
		go func() { commit <- ghost.Commit() }()
		<-gated.parked

		// Crash with the batch frozen on the wire; restart mints the next
		// incarnation and fences the DC.
		tcx.Crash()
		if err := tcx.Recover(); err != nil {
			t.Fatal(err)
		}
		if got := d.EpochOf(1); got != tcx.Epoch() {
			t.Fatalf("DC fence %d != TC epoch %d after restart", got, tcx.Epoch())
		}

		// Release the batch: it reaches the DC after the restart and must
		// be refused in full with the permanent stale-epoch nack.
		close(gated.gate)
		for i, r := range <-gated.results {
			if r.Code != base.CodeStaleEpoch {
				t.Fatalf("iter %d: late batch op %d executed: %+v", it, i, r)
			}
		}
		if d.Stats().StaleEpochs == 0 {
			t.Fatalf("iter %d: fence never fired", it)
		}
		if err := <-commit; !errors.Is(err, ErrTCStopped) || !errors.Is(err, ErrCommitAmbiguous) {
			t.Fatalf("iter %d: the dead incarnation's commit = %v, want an ambiguous ErrTCStopped", it, err)
		}
		if r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "ghost",
			Flavor: base.ReadDirty}); !r.Found || string(r.Value) != "x" {
			t.Fatalf("iter %d: the forced commit's write after the restart: %+v", it, r)
		}

		// The restarted incarnation's writes execute fresh, and the
		// committed data is intact.
		if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
			return x.Upsert("t", "after", []byte("ok"))
		}); err != nil {
			t.Fatal(err)
		}
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			if v, ok, _ := x.Read("t", "committed"); !ok || string(v) != "keep" {
				return fmt.Errorf("committed data wrong: %q %v", v, ok)
			}
			if v, ok, _ := x.Read("t", "after"); !ok || string(v) != "ok" {
				return fmt.Errorf("post-restart write lost (LSN reuse poisoned): %q %v", v, ok)
			}
			if v, ok, _ := x.Read("t", "ghost"); !ok || string(v) != "x" {
				return fmt.Errorf("the forced commit's write: %q %v", v, ok)
			}
			return nil
		}); err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		tcx.Close()
	}
}

// TestEpochMonotonicAcrossRestarts: each recovery mints a strictly larger
// epoch, forced into the log before use, and installs it at every DC.
func TestEpochMonotonicAcrossRestarts(t *testing.T) {
	tcx, d := newPair(t, Config{})
	if got := tcx.Epoch(); got != 1 {
		t.Fatalf("fresh TC epoch = %d, want 1", got)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	for want := base.Epoch(2); want <= 4; want++ {
		tcx.Crash()
		if err := tcx.Recover(); err != nil {
			t.Fatal(err)
		}
		if got := tcx.Epoch(); got != want {
			t.Fatalf("epoch after restart = %d, want %d", got, want)
		}
		if got := d.EpochOf(1); got != want {
			t.Fatalf("DC fence after restart = %d, want %d", got, want)
		}
	}
	// Still fully usable.
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "after", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochSurvivesLogTruncation: checkpoints truncate the log — possibly
// past the recEpoch record — but carry the epoch themselves, so recovery
// still mints a strictly larger incarnation.
func TestEpochSurvivesLogTruncation(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	for i := 0; i < 10; i++ {
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", fmt.Sprintf("k%02d", i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	checkpointTwice(t, tcx)
	if start, _, _ := tcx.Log().Media().Bounds(); start <= 1 {
		t.Fatalf("checkpoint did not truncate the epoch record away (start=%d); test vacuous", start)
	}
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := tcx.Epoch(); got != 2 {
		t.Fatalf("epoch after truncated-log restart = %d, want 2", got)
	}
	// A second truncation + restart keeps climbing.
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "more", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	before, _, _ := tcx.Log().Media().Bounds()
	checkpointTwice(t, tcx)
	if start, _, _ := tcx.Log().Media().Bounds(); start <= before {
		t.Fatalf("the second pair of checkpoints truncated nothing (start %d -> %d); test vacuous", before, start)
	}
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := tcx.Epoch(); got != 3 {
		t.Fatalf("epoch after second truncated restart = %d, want 3", got)
	}
}
