package tc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/wal"
)

// countingService counts the calls that carry logged operations (writes,
// finalizes, CLRs) to one DC: how many frames a transaction's writes cost.
// Reads and probes pass through uncounted.
type countingService struct {
	base.Service
	mu      sync.Mutex
	single  int   // Perform calls carrying a logged operation
	batches []int // sizes of the PerformBatch calls
}

func (s *countingService) Perform(ctx context.Context, op *base.Op) *base.Result {
	if op.Kind.IsWrite() {
		s.mu.Lock()
		s.single++
		s.mu.Unlock()
	}
	return s.Service.Perform(ctx, op)
}

func (s *countingService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	s.mu.Lock()
	s.batches = append(s.batches, len(ops))
	s.mu.Unlock()
	return s.Service.PerformBatch(ctx, ops)
}

// take returns and resets the counts.
func (s *countingService) take() (single int, batches []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	single, batches = s.single, s.batches
	s.single, s.batches = 0, nil
	return single, batches
}

func (s *countingService) ops() int {
	single, batches := s.take()
	for _, n := range batches {
		single += n
	}
	return single
}

// newCountedPair wires one TC to two DCs through counting stubs: table "t"
// lives on DC 0, table "u" on DC 1.
func newCountedPair(t *testing.T, pipeline bool) (*TC, []*dc.DC, []*countingService) {
	t.Helper()
	var dcs []*dc.DC
	var stubs []*countingService
	var svcs []base.Service
	for i, table := range []string{"t", "u"} {
		d, err := dc.New(dc.Config{Name: fmt.Sprintf("dc%d", i), CheckConflicts: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable(table); err != nil {
			t.Fatal(err)
		}
		stub := &countingService{Service: d}
		dcs, stubs, svcs = append(dcs, d), append(stubs, stub), append(svcs, stub)
	}
	tcx, err := New(Config{ID: 1, Pipeline: pipeline}, svcs, placement.MustParse("t: dc=0; u: dc=1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	return tcx, dcs, stubs
}

// dirty reads key at the DC itself, bypassing every TC.
func dirty(d *dc.DC, table, key string) (string, bool) {
	r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: table, Key: key,
		Flavor: base.ReadDirty})
	return string(r.Value), r.Found
}

// forEachShipping runs f under inline and under pipelined shipping: what a
// transaction observes, and what its barriers leave at the DC, must not
// depend on who runs deliver.
func forEachShipping(t *testing.T, f func(t *testing.T, pipeline bool)) {
	for _, pipeline := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipeline), func(t *testing.T) { f(t, pipeline) })
	}
}

func TestCommitShipsOneBatchPerDC(t *testing.T) {
	forEachShipping(t, func(t *testing.T, pipeline bool) {
		tcx, dcs, stubs := newCountedPair(t, pipeline)
		const n = 4
		for _, versioned := range []bool{false, true} {
			x := tcx.Begin(context.Background(), TxnOptions{Versioned: versioned})
			var firstWrite base.LSN
			for i := 0; i < n; i++ {
				for _, table := range []string{"t", "u"} {
					if err := x.Upsert(table, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%v", versioned))); err != nil {
						t.Fatal(err)
					}
					if firstWrite == 0 {
						firstWrite = x.lastLSN
					}
				}
			}
			if !pipeline {
				// Nothing has left, and the low-water mark waits below the
				// oldest unflushed write however many reads completed above it.
				for i, s := range stubs {
					if got := s.ops(); got != 0 {
						t.Fatalf("versioned=%v: %d logged ops reached DC %d before any barrier", versioned, got, i)
					}
				}
				if lwm := tcx.acks.LWM(); lwm >= firstWrite {
					t.Fatalf("versioned=%v: low-water mark %d passed unsent LSN %d", versioned, lwm, firstWrite)
				}
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			if lwm := tcx.acks.LWM(); lwm < x.lastLSN {
				t.Fatalf("versioned=%v: low-water mark %d below the committed transaction's last LSN %d", versioned, lwm, x.lastLSN)
			}
			for i, s := range stubs {
				want := []int{n}
				if versioned {
					want = []int{n, n} // the writes, then their finalizes
				}
				if pipeline {
					// The worker ships whatever has queued when it is free, so
					// only the total is fixed.
					if got := s.ops(); got != len(want)*n {
						t.Fatalf("versioned=%v DC %d: %d logged ops delivered, want %d", versioned, i, got, len(want)*n)
					}
					continue
				}
				if single, batches := s.take(); single != 0 || fmt.Sprint(batches) != fmt.Sprint(want) {
					t.Fatalf("versioned=%v DC %d: %d single sends and batches %v, want 0 and %v", versioned, i, single, batches, want)
				}
			}
			for i, table := range []string{"t", "u"} {
				for k := 0; k < n; k++ {
					if v, ok := dirty(dcs[i], table, fmt.Sprintf("k%d", k)); !ok || v != fmt.Sprintf("v%v", versioned) {
						t.Fatalf("versioned=%v %s/k%d at the DC after commit: %q %v", versioned, table, k, v, ok)
					}
				}
			}
		}
	})
}

func TestSameKeyWritesLandInOrder(t *testing.T) {
	forEachShipping(t, func(t *testing.T, pipeline bool) {
		tcx, dcs, _ := newCountedPair(t, pipeline)
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", "gone", []byte("old"))
		}); err != nil {
			t.Fatal(err)
		}
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			// Every pre-check after the first write is answered by the cache:
			// the DC has seen none of these yet.
			if err := x.Upsert("t", "k", []byte("v1")); err != nil {
				return err
			}
			if err := x.Delete("t", "k"); err != nil {
				return err
			}
			if err := x.Insert("t", "k", []byte("v3")); err != nil {
				return fmt.Errorf("insert after own unsent delete: %w", err)
			}
			if err := x.Update("t", "gone", []byte("new")); err != nil {
				return err
			}
			if err := x.Delete("t", "gone"); err != nil {
				return err
			}
			if err := x.Delete("t", "gone"); !errors.Is(err, ErrNotFound) {
				return fmt.Errorf("second delete of an unsent delete: %v", err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if v, ok := dirty(dcs[0], "t", "k"); !ok || v != "v3" {
			t.Fatalf("upsert, delete, insert of one key left %q %v at the DC", v, ok)
		}
		if v, ok := dirty(dcs[0], "t", "gone"); ok {
			t.Fatalf("update, delete of one key left %q at the DC", v)
		}
	})
}

func TestScanReadsUnsentWrites(t *testing.T) {
	forEachShipping(t, func(t *testing.T, pipeline bool) {
		tcx, _, stubs := newCountedPair(t, pipeline)
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			for i := 0; i < 8; i++ {
				if err := x.Insert("t", fmt.Sprintf("s%03d", i), []byte("v")); err != nil {
					return err
				}
			}
			if err := x.Delete("t", "s003"); err != nil {
				return err
			}
			keys, _, err := x.Scan("t", "s000", "s999", 0)
			if err != nil {
				return err
			}
			if len(keys) != 7 {
				return fmt.Errorf("scan sees %d keys, want 7 own writes: %v", len(keys), keys)
			}
			if _, batches := stubs[0].take(); !pipeline && fmt.Sprint(batches) != "[9]" {
				return fmt.Errorf("the scan's barrier shipped batches %v, want one of 9", batches)
			}
			// ...and so does an unlocked read, which bypasses the cache.
			if err := x.Upsert("t", "s003", []byte("back")); err != nil {
				return err
			}
			if v, ok, err := x.ReadDirty("t", "s003"); err != nil || !ok || string(v) != "back" {
				return fmt.Errorf("ReadDirty of an unsent write: %q %v %v", v, ok, err)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAbortWithUnsentWrites(t *testing.T) {
	forEachShipping(t, func(t *testing.T, pipeline bool) {
		tcx, dcs, _ := newCountedPair(t, pipeline)
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", "base", []byte("committed"))
		}); err != nil {
			t.Fatal(err)
		}
		x := tcx.Begin(context.Background(), TxnOptions{})
		if err := x.Update("t", "base", []byte("scribble")); err != nil {
			t.Fatal(err)
		}
		if err := x.Insert("u", "tmp", []byte("temp")); err != nil {
			t.Fatal(err)
		}
		if err := x.Insert("t", "tmp", []byte("temp")); err != nil {
			t.Fatal(err)
		}
		if err := x.Abort(); err != nil {
			t.Fatal(err)
		}
		if v, ok := dirty(dcs[0], "t", "base"); !ok || v != "committed" {
			t.Fatalf("aborted update left %q %v at the DC", v, ok)
		}
		for i, table := range []string{"t", "u"} {
			if v, ok := dirty(dcs[i], table, "tmp"); ok {
				t.Fatalf("aborted insert left %s/tmp=%q at the DC", table, v)
			}
		}
		// One CLR per forward record, each pointing past the record it
		// compensates, newest first.
		tcx.log.Force()
		var ops, clrs []*wal.Record
		for _, rec := range tcx.log.Scan(0) {
			if rec.Txn != x.id {
				continue
			}
			switch rec.Kind {
			case recOp:
				ops = append(ops, rec)
			case recCLR:
				clrs = append(clrs, rec)
			}
		}
		if len(ops) != 3 || len(clrs) != 3 || tcx.Stats().UndoOps != 3 {
			t.Fatalf("%d op records, %d CLRs, %d undo ops; want 3 of each", len(ops), len(clrs), tcx.Stats().UndoOps)
		}
		for i, clr := range clrs {
			undone := ops[len(ops)-1-i]
			if clr.NextUndo != undone.Prev {
				t.Fatalf("CLR %d: NextUndo %d, want %d (the record before op @%d)", i, clr.NextUndo, undone.Prev, undone.LSN)
			}
		}
	})
}

// TestTCCrashWithUnsentOps: a logged operation that never left the TC is
// the state "crash between AppendAssign and send". Restart delivers it when
// its record is stable — and then inverts it unless a commit record is
// stable too — and never hears of it when it is not.
func TestTCCrashWithUnsentOps(t *testing.T) {
	forEachShipping(t, func(t *testing.T, pipeline bool) {
		tcx, dcs, stubs := newCountedPair(t, pipeline)
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", "base", []byte("committed"))
		}); err != nil {
			t.Fatal(err)
		}
		for _, s := range stubs {
			s.take()
		}
		write := func(tag string) *Txn {
			x := tcx.Begin(context.Background(), TxnOptions{})
			if err := x.Insert("t", tag, []byte(tag)); err != nil {
				t.Fatal(err)
			}
			if err := x.Insert("u", tag, []byte(tag)); err != nil {
				t.Fatal(err)
			}
			return x
		}
		// The winner's commit record is appended by hand: Commit itself would
		// ship the writes first.
		winner := write("winner")
		tcx.log.AppendAssign(&wal.Record{Kind: recCommit, Txn: winner.id, Prev: winner.lastLSN,
			Payload: encodeCommit(nil, 0)})
		stableLoser := write("stable-loser")
		tcx.log.Force()
		write("lost-loser") // records in the unforced tail
		if !pipeline {
			for i, s := range stubs {
				if got := s.ops(); got != 0 {
					t.Fatalf("%d logged ops reached DC %d before the crash", got, i)
				}
			}
		}
		tcx.Crash()
		if err := tcx.Recover(); err != nil {
			t.Fatal(err)
		}
		for i, table := range []string{"t", "u"} {
			if v, ok := dirty(dcs[i], table, "winner"); !ok || v != "winner" {
				t.Fatalf("%s/winner after restart: %q %v", table, v, ok)
			}
			for _, tag := range []string{"stable-loser", "lost-loser"} {
				if v, ok := dirty(dcs[i], table, tag); ok {
					t.Fatalf("%s/%s survived restart as %q", table, tag, v)
				}
			}
		}
		if !pipeline {
			// An orphan that reaches a barrier after the restart has its list
			// retired, not delivered: its LSNs belong to the new incarnation.
			if err := stableLoser.Commit(); !errors.Is(err, ErrTCStopped) {
				t.Fatalf("orphan's commit = %v, want ErrTCStopped", err)
			}
			if _, ok := dirty(dcs[0], "t", "stable-loser"); ok {
				t.Fatal("orphan's unsent write was delivered after the restart")
			}
		}
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			if v, ok, err := x.Read("t", "base"); err != nil || !ok || string(v) != "committed" {
				return fmt.Errorf("committed data after restart: %q %v %v", v, ok, err)
			}
			return x.Insert("t", "after", []byte("ok"))
		}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMoreThanMaxBatchWritesSplit(t *testing.T) {
	forEachShipping(t, func(t *testing.T, pipeline bool) {
		tcx, dcs, stubs := newCountedPair(t, pipeline)
		const n = 2*maxBatch + 22
		// Versioned blind upserts: no pre-check reads, so the DC hears
		// nothing of the transaction except its batches.
		if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
			for i := 0; i < n; i++ {
				if err := x.Upsert("t", fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		single, batches := stubs[0].take()
		if !pipeline {
			want := []int{maxBatch, maxBatch, 22, maxBatch, maxBatch, 22}
			if single != 0 || fmt.Sprint(batches) != fmt.Sprint(want) {
				t.Fatalf("%d single sends and batches %v, want 0 and %v", single, batches, want)
			}
		}
		for _, b := range batches {
			if b > maxBatch {
				t.Fatalf("a batch of %d exceeds maxBatch %d", b, maxBatch)
			}
		}
		r := dcs[0].Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRangeRead, Table: "t",
			Key: "k", EndKey: "l", Flavor: base.ReadCommitted})
		if len(r.Keys) != n {
			t.Fatalf("%d of %d keys committed at the DC", len(r.Keys), n)
		}
	})
}

// TestCheckpointBesideWriters: Checkpoint reads every active transaction's
// first LSN to bound truncation while the transactions' own goroutines set
// it. Run with -race.
func TestCheckpointBesideWriters(t *testing.T) {
	forEachShipping(t, func(t *testing.T, pipeline bool) {
		tcx, _ := newPair(t, Config{Pipeline: pipeline})
		var stop atomic.Bool
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; !stop.Load(); i++ {
					if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
						for k := 0; k < 3; k++ {
							if err := x.Upsert("t", fmt.Sprintf("c%d-%d", c, (i+k)%16), []byte("v")); err != nil {
								return err
							}
						}
						return nil
					}); err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
				}
			}(c)
		}
		for i := 0; i < 200 && !t.Failed(); i++ {
			if _, err := tcx.Checkpoint(context.Background()); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
			}
		}
		stop.Store(true)
		wg.Wait()
	})
}
