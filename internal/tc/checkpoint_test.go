package tc

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/page"
)

// dirtyPagesOf counts the cached pages of d holding an operation of tc that
// no write-back has made stable.
func dirtyPagesOf(d *dc.DC, tc base.TCID) int {
	n := 0
	d.Pool().Pages(func(pg *page.Page) {
		pg.L.RLock()
		if _, ok := pg.FirstDirty[tc]; ok && pg.Dirty {
			n++
		}
		pg.L.RUnlock()
	})
	return n
}

func upsertOne(t *testing.T, tcx *TC, table, key, val string) {
	t.Helper()
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Upsert(table, key, []byte(val))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestHotLeafWrittenBackEveryOtherCheckpoint: with the pool holding every
// page, a leaf re-dirtied right after checkpoint k is left dirty by
// checkpoint k+1, which proposes the candidate k took, below the write, and
// written back by k+2, which proposes the one k+1 took, above it. So a leaf
// rewritten after every checkpoint is written back by every other one (the
// first finds it clean).
func TestHotLeafWrittenBackEveryOtherCheckpoint(t *testing.T) {
	tcx, d := newPair(t, Config{})
	upsertOne(t, tcx, "t", "hot", "v0")
	checkpointTwice(t, tcx)
	if n := dirtyPagesOf(d, tcx.ID()); n != 0 {
		t.Fatalf("%d pages dirty after two checkpoints", n)
	}
	var pattern []uint64
	for k := 1; k <= 6; k++ {
		before := d.Pool().Stats().Flushes
		if _, err := tcx.Checkpoint(context.Background()); err != nil {
			t.Fatal(err)
		}
		pattern = append(pattern, d.Pool().Stats().Flushes-before)
		upsertOne(t, tcx, "t", "hot", fmt.Sprintf("v%d", k))
	}
	if want := "[0 0 1 0 1 0]"; fmt.Sprint(pattern) != want {
		t.Fatalf("write-backs per checkpoint %v, want %s", pattern, want)
	}
	if ev := d.Pool().Stats().Evictions; ev != 0 {
		t.Fatalf("the pool evicted %d pages; test vacuous", ev)
	}
}

// TestTwoQuietCheckpointsLeaveNothingDirty: a checkpoint proposes the
// candidate its predecessor took, so the one right after a burst of writes
// leaves the pages they first dirtied dirty (table u's here; table t's
// holds older writes), and a second with no write between them makes every
// page of the TC stable: a restart after them redoes nothing.
func TestTwoQuietCheckpointsLeaveNothingDirty(t *testing.T) {
	tcx, d := newPair(t, Config{})
	for i := 0; i < 50; i++ {
		upsertOne(t, tcx, "t", fmt.Sprintf("a%02d", i), "v")
	}
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		upsertOne(t, tcx, "u", fmt.Sprintf("b%02d", i), "v")
	}
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if dirtyPagesOf(d, tcx.ID()) == 0 {
		t.Fatal("the checkpoint right after the writes made their pages stable: it proposed its own candidate")
	}
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := dirtyPagesOf(d, tcx.ID()); n != 0 {
		t.Fatalf("%d pages dirty after two checkpoints with no write between them", n)
	}
	redone := tcx.Stats().RedoOps
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := tcx.Stats().RedoOps - redone; got != 0 {
		t.Fatalf("a restart after two quiet checkpoints redid %d operations", got)
	}
}

// TestRestartRedoesFromThePenultimateCandidate: a TC crashed right after
// checkpoint k+1 redoes from the candidate checkpoint k took — the operations
// logged between the two, and nothing older — and every acknowledged commit
// reads back.
func TestRestartRedoesFromThePenultimateCandidate(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	var acked []string
	burst := func(prefix string, n int) {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("%s%02d", prefix, i)
			upsertOne(t, tcx, "t", k, k)
			acked = append(acked, k)
		}
	}
	burst("a", 20)
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	burst("b", 20)
	candidate := tcx.inc.Load().acks.LWM() + 1
	if _, err := tcx.Checkpoint(context.Background()); err != nil { // k
		t.Fatal(err)
	}
	const tail = 15
	burst("c", tail)
	if rssp, err := tcx.Checkpoint(context.Background()); err != nil || rssp != candidate { // k+1
		t.Fatalf("checkpoint k+1 moved the RSSP to %d (%v), want checkpoint k's candidate %d", rssp, err, candidate)
	}
	redone := tcx.Stats().RedoOps
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := tcx.RSSP(); got != candidate {
		t.Fatalf("restart scanned from %d, want checkpoint k's candidate %d", got, candidate)
	}
	if got := tcx.Stats().RedoOps - redone; got != tail {
		t.Fatalf("restart redid %d operations, want the %d logged since checkpoint k", got, tail)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for _, k := range acked {
			if v, ok, err := x.Read("t", k); err != nil || !ok || string(v) != k {
				return fmt.Errorf("%s = %q %v (%v)", k, v, ok, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCheckpointsNeverLowerRSSP runs checkpoints from several
// goroutines beside writers: calls on one TC run one at a time, so the RSSP
// a watcher reads never falls, and none returned is above the last.
func TestConcurrentCheckpointsNeverLowerRSSP(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	ctx := context.Background()
	var stop atomic.Bool
	var writers, checkpointers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; !stop.Load(); i++ {
				if err := tcx.RunTxn(ctx, TxnOptions{}, func(x *Txn) error {
					return x.Upsert("t", fmt.Sprintf("w%d-%d", w, i%32), []byte("v"))
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var highest atomic.Uint64
	for c := 0; c < 4; c++ {
		checkpointers.Add(1)
		go func() {
			defer checkpointers.Done()
			for i := 0; i < 200; i++ {
				rssp, err := tcx.Checkpoint(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				for cur := highest.Load(); uint64(rssp) > cur && !highest.CompareAndSwap(cur, uint64(rssp)); cur = highest.Load() {
				}
			}
		}()
	}
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		var last base.LSN
		for !stop.Load() {
			cur := tcx.RSSP()
			if cur < last {
				t.Errorf("the RSSP fell from %d to %d", last, cur)
				return
			}
			last = cur
		}
	}()
	checkpointers.Wait()
	stop.Store(true)
	writers.Wait()
	<-watched
	if got, top := tcx.RSSP(), base.LSN(highest.Load()); got < top || top <= 1 {
		t.Fatalf("the RSSP ends at %d, the highest a checkpoint returned %d", got, top)
	}
}

// TestRestartAfterEveryCheckpointMovesTheRSSP: a TC that crashes and recovers
// right after every checkpoint never makes a second checkpoint in one
// incarnation. Recover takes as the new incarnation's candidate everything
// its resends delivered, so each checkpoint after a restart still moves the
// RSSP past the writes before that restart, each restart redoes only the
// writes of its own cycle, and every acknowledged write reads back.
func TestRestartAfterEveryCheckpointMovesTheRSSP(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	const perCycle = 10
	var acked []string
	last := tcx.RSSP()
	for cycle := 0; cycle < 6; cycle++ {
		for i := 0; i < perCycle; i++ {
			k := fmt.Sprintf("c%d-%02d", cycle, i)
			upsertOne(t, tcx, "t", k, k)
			acked = append(acked, k)
		}
		rssp, err := tcx.Checkpoint(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if cycle > 0 && rssp <= last {
			t.Fatalf("cycle %d: the first checkpoint of a restarted incarnation left the RSSP at %d", cycle, rssp)
		}
		last = rssp
		redone := tcx.Stats().RedoOps
		tcx.Crash()
		if err := tcx.Recover(); err != nil {
			t.Fatal(err)
		}
		if got := tcx.Stats().RedoOps - redone; got > perCycle {
			t.Fatalf("cycle %d: the restart redid %d operations, want at most the %d of its cycle", cycle, got, perCycle)
		}
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for _, k := range acked {
			if v, ok, err := x.Read("t", k); err != nil || !ok || string(v) != k {
				return fmt.Errorf("%s = %q %v (%v)", k, v, ok, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
