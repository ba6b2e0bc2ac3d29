package tc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// newPair wires one TC directly to one DC (in-process Service).
func newPair(t *testing.T, cfg Config) (*TC, *dc.DC) {
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
	if cfg.ID == 0 {
		cfg.ID = 1
	}
	tcx, err := New(cfg, []base.Service{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	return tcx, d
}

func TestCommitAndReadBack(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	x := tcx.Begin(context.Background(), TxnOptions{})
	if err := x.Insert("t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Own write visible before commit.
	if v, ok, _ := x.Read("t", "a"); !ok || string(v) != "1" {
		t.Fatalf("own read: %q %v", v, ok)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
	y := tcx.Begin(context.Background(), TxnOptions{})
	defer y.Abort()
	if v, ok, _ := y.Read("t", "a"); !ok || string(v) != "1" {
		t.Fatalf("next txn read: %q %v", v, ok)
	}
}

func TestWriteSemantics(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	// Duplicate inserts and missing updates are detected before logging:
	// they surface as recoverable errors and do not poison the txn.
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
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if v, ok, _ := x.Read("t", "k"); !ok || string(v) != "v1" {
			return fmt.Errorf("first insert lost: %q %v", v, ok)
		}
		return x.Upsert("t", "k", []byte("v2"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Upsert("t", "k", []byte("v3"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		v, ok, err := x.Read("t", "k")
		if err != nil || !ok || string(v) != "v3" {
			return fmt.Errorf("read: %q %v %v", v, ok, err)
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

func TestAbortRollsBack(t *testing.T) {
	tcx, _ := newPair(t, Config{})
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
	// Past a barrier the writes are logged and at the DC: the abort has
	// something to invert.
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

func TestDeadlockRetry(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	for _, k := range []string{"a", "b"} {
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", k, []byte("0"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	order := [][]string{{"a", "b"}, {"b", "a"}}
	start := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
				if err := x.Update("t", order[i][0], []byte("x")); err != nil {
					return err
				}
				time.Sleep(20 * time.Millisecond)
				return x.Update("t", order[i][1], []byte("x"))
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("RunTxn retry failed: %v %v", errs[0], errs[1])
	}
	if tcx.Stats().DeadlockAborts == 0 {
		t.Fatal("expected at least one deadlock abort")
	}
}

func TestVersionedCommitAndAbort(t *testing.T) {
	tcx, d := newPair(t, Config{})
	if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
		return x.Insert("t", "v", []byte("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	// Committed: read-committed observers (e.g. another TC) see v1.
	rc := func() *base.Result {
		return d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "v",
			Flavor: base.ReadCommitted})
	}
	if r := rc(); !r.Found || string(r.Value) != "v1" {
		t.Fatalf("committed read: %+v", r)
	}
	// In-flight update: observers still see v1 until commit.
	x := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := x.Update("t", "v", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if r := rc(); string(r.Value) != "v1" {
		t.Fatalf("before-version not served: %+v", r)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := rc(); string(r.Value) != "v2" {
		t.Fatalf("after commit: %+v", r)
	}
	// Aborted versioned update disappears entirely.
	y := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := y.Update("t", "v", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	y.Abort()
	if r := rc(); string(r.Value) != "v2" {
		t.Fatalf("after abort: %+v", r)
	}
}

func TestScan(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < 30; i++ {
			if err := x.Insert("t", fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		keys, vals, err := x.Scan("t", "k010", "k020", 0)
		if err != nil {
			return err
		}
		if len(keys) != 10 || len(vals) != 10 || keys[0] != "k010" || keys[9] != "k019" {
			return fmt.Errorf("scan = %v", keys)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScanBlocksConflictingWriter(t *testing.T) {
	// The range protocol must prevent a concurrent writer from changing the
	// scanned range until the scanner finishes (serializability of the
	// scanned keys).
	tcx, _ := newPair(t, Config{})
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < 10; i++ {
			if err := x.Insert("t", fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	x := tcx.Begin(context.Background(), TxnOptions{})
	keys, _, err := x.Scan("t", "k000", "k009", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 9 {
		t.Fatalf("scan = %v", keys)
	}
	// A writer to a scanned key must block until the scan txn ends.
	done := make(chan error, 1)
	go func() {
		done <- tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
			return y.Update("t", "k005", []byte("w"))
		})
	}()
	select {
	case err := <-done:
		t.Fatalf("writer not blocked by scan locks: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	x.Commit()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCCrashRecovery(t *testing.T) {
	tcx, d := newPair(t, Config{})
	// Committed work (forced).
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "committed", []byte("keep"))
	}); err != nil {
		t.Fatal(err)
	}
	// A loser: applied at the DC but never committed; log tail unforced.
	loser := tcx.Begin(context.Background(), TxnOptions{})
	if err := loser.Insert("t", "loser", []byte("drop")); err != nil {
		t.Fatal(err)
	}
	if err := loser.Update("t", "committed", []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	// An unlocked read is a barrier: it ships the loser's writes, and the DC
	// now reflects them.
	if _, _, err := loser.ReadDirty("t", "loser"); err != nil {
		t.Fatal(err)
	}
	if r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "loser", Flavor: base.ReadDirty}); !r.Found {
		t.Fatalf("precondition: %+v", r)
	}

	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	// Committed data intact, loser gone (either via DC reset of unforced
	// ops or logical undo of forced-but-uncommitted ones).
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
	// The TC is fully usable after restart.
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "after", []byte("ok"))
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTCCrashMidUndoUsesCLRs(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	// Forced loser: ops stable, commit record absent -> restart must undo
	// via inverse operations (the §4.1.1(2b) path, not the cache reset).
	x := tcx.Begin(context.Background(), TxnOptions{})
	if err := x.Insert("t", "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert("t", "b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := x.flush(); err != nil { // the barrier logs and ships them
		t.Fatal(err)
	}
	tcx.Log().Force() // ops stable; no commit record
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		if _, ok, _ := y.Read("t", "a"); ok {
			return fmt.Errorf("loser op a survived")
		}
		if _, ok, _ := y.Read("t", "b"); ok {
			return fmt.Errorf("loser op b survived")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if tcx.Stats().UndoOps == 0 {
		t.Fatal("expected restart undo")
	}
	// Crash again right away: CLRs must prevent double-undo (second
	// recovery sees CLRs and does nothing harmful).
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		if _, ok, _ := y.Read("t", "a"); ok {
			return fmt.Errorf("a resurrected after double recovery")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDCCrashRecoveryViaResend(t *testing.T) {
	tcx, d := newPair(t, Config{})
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
	if tcx.Stats().RedoOps == 0 {
		t.Fatal("expected redo resends")
	}
}

func TestCheckpointAdvancesAndBoundsRedo(t *testing.T) {
	tcx, d := newPair(t, Config{})
	for i := 0; i < 40; i++ {
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", fmt.Sprintf("k%03d", i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	rssp, err := tcx.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rssp <= 1 {
		t.Fatalf("rssp = %d", rssp)
	}
	if tcx.Log().StartLSN() == 1 {
		t.Fatal("log not truncated by checkpoint")
	}
	// After a checkpoint, a DC crash needs only the redo suffix.
	before := tcx.Stats().RedoOps
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	if got := tcx.Stats().RedoOps - before; got != 0 {
		t.Fatalf("redo after full checkpoint should be empty, resent %d", got)
	}
	// Data nevertheless intact (checkpoint made it stable at the DC).
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < 40; i++ {
			if _, ok, _ := x.Read("t", fmt.Sprintf("k%03d", i)); !ok {
				return fmt.Errorf("key %d lost", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointAdvancesPastLocalRecords(t *testing.T) {
	// Abort and checkpoint records consume LSNs with no DC round trip;
	// they must feed the ack tracker like commit records do, or the first
	// abort (or checkpoint) freezes the low-water mark and the RSSP can
	// never advance again.
	tcx, _ := newPair(t, Config{})
	x := tcx.Begin(context.Background(), TxnOptions{})
	if err := x.Insert("t", "doomed", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", fmt.Sprintf("k%d", i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	r1, err := tcx.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= 1 {
		t.Fatalf("rssp stuck at %d after abort", r1)
	}
	// A second round: the checkpoint record itself must not pin the LWM.
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "more", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	r2, err := tcx.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r2 <= r1 {
		t.Fatalf("rssp did not advance past checkpoint record: %d -> %d", r1, r2)
	}
}

func TestBothCrash(t *testing.T) {
	tcx, d := newPair(t, Config{})
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "survivor", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	loser := tcx.Begin(context.Background(), TxnOptions{})
	loser.Insert("t", "ghost", []byte("x"))

	// Complete failure of both components (§5.3.2: "returns us to the
	// current fail-together situation").
	tcx.Crash()
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if _, ok, _ := x.Read("t", "survivor"); !ok {
			return fmt.Errorf("committed data lost")
		}
		if _, ok, _ := x.Read("t", "ghost"); ok {
			return fmt.Errorf("uncommitted data survived")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestNoConflictInvariantHolds(t *testing.T) {
	// Run concurrent conflicting transactions; the DC-side checker must
	// stay at zero violations because 2PL serializes the sends.
	tcx, d := newPair(t, Config{})
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

func TestPayloadRoundTrips(t *testing.T) {
	op := &base.Op{TC: 3, LSN: 77, Kind: base.OpUpdate, Table: "t", Key: "k",
		Value: []byte("new"), Versioned: true}
	buf := appendOpPayload(nil, op, []byte("old"), true)
	if op.LSN != 77 {
		t.Fatal("encode must restore the op LSN")
	}
	got, prior, pf, err := decodeOpPayload(buf)
	if err != nil || string(prior) != "old" || !pf {
		t.Fatalf("decode: %v %q %v", err, prior, pf)
	}
	op.LSN = 0 // payload zeroes it
	if !reflect.DeepEqual(op, got) {
		t.Fatalf("op mismatch: %+v vs %+v", op, got)
	}

	keys := []tableKey{{"a", "k1"}, {"b", "k2"}}
	dk, cts, err := decodeCommit(appendCommit(nil, keys, 909))
	if err != nil || cts != 909 || !reflect.DeepEqual(keys, dk) {
		t.Fatalf("commit payload: %v %v %v", err, cts, dk)
	}
	empty, cts, err := decodeCommit(appendCommit(nil, nil, 0))
	if err != nil || cts != 0 || len(empty) != 0 {
		t.Fatalf("empty commit payload: %v %v %v", err, cts, empty)
	}
	// Pre-timestamp commit payloads (no trailing varint) still decode.
	dk, cts, err = decodeCommit(appendCommit(nil, keys, 0))
	if err != nil || cts != 0 || !reflect.DeepEqual(keys, dk) {
		t.Fatalf("legacy commit payload: %v %v %v", err, cts, dk)
	}

	r, e, err := decodeCheckpoint(encodeCheckpoint(12345, 7))
	if err != nil || r != 12345 || e != 7 {
		t.Fatalf("checkpoint payload: %v %v %v", err, r, e)
	}
	// Pre-epoch checkpoint payloads (bare RSSP varint) still decode.
	r, e, err = decodeCheckpoint(binary.AppendUvarint(nil, 999))
	if err != nil || r != 999 || e != 0 {
		t.Fatalf("legacy checkpoint payload: %v %v %v", err, r, e)
	}

	ep, err := decodeEpoch(encodeEpoch(42))
	if err != nil || ep != 42 {
		t.Fatalf("epoch payload: %v %v", err, ep)
	}
}

func TestAckTracker(t *testing.T) {
	a := newAckTracker(0)
	a.Complete(2)
	if a.LWM() != 0 {
		t.Fatal("gap not respected")
	}
	a.Complete(1)
	if a.LWM() != 2 {
		t.Fatalf("lwm = %d", a.LWM())
	}
	a.Complete(4)
	a.Complete(3)
	if a.LWM() != 4 {
		t.Fatalf("lwm = %d", a.LWM())
	}
	a = newAckTracker(10) // what a restart does: every LSN at or below the base is complete
	if a.LWM() != 10 {
		t.Fatal("reset failed")
	}
	a.Complete(11)
	if a.LWM() != 11 {
		t.Fatal("post-reset completion failed")
	}
}

func TestInverseOp(t *testing.T) {
	mk := func(kind base.OpKind, versioned bool) *base.Op {
		return &base.Op{TC: 1, Kind: kind, Table: "t", Key: "k", Value: []byte("new"), Versioned: versioned}
	}
	if inv := inverseOp(mk(base.OpInsert, false), nil, false); inv.Kind != base.OpDelete {
		t.Fatalf("insert inverse: %v", inv)
	}
	if inv := inverseOp(mk(base.OpUpdate, false), []byte("old"), true); inv.Kind != base.OpUpdate || string(inv.Value) != "old" {
		t.Fatalf("update inverse: %v", inv)
	}
	if inv := inverseOp(mk(base.OpDelete, false), []byte("old"), true); inv.Kind != base.OpInsert || string(inv.Value) != "old" {
		t.Fatalf("delete inverse: %v", inv)
	}
	if inv := inverseOp(mk(base.OpUpsert, false), nil, false); inv.Kind != base.OpDelete {
		t.Fatalf("upsert-new inverse: %v", inv)
	}
	if inv := inverseOp(mk(base.OpUpsert, false), []byte("old"), true); inv.Kind != base.OpUpdate {
		t.Fatalf("upsert-old inverse: %v", inv)
	}
	for _, k := range []base.OpKind{base.OpInsert, base.OpUpdate, base.OpDelete} {
		if inv := inverseOp(mk(k, true), nil, false); inv.Kind != base.OpAbortVersions {
			t.Fatalf("versioned %v inverse: %v", k, inv)
		}
	}
	if inv := inverseOp(mk(base.OpCommitVersions, false), nil, false); inv != nil {
		t.Fatalf("finalize inverse must be nil: %v", inv)
	}
}

// TestCrashFailsBlockedLockWaiters: a transaction blocked in a lock wait
// when the TC crashes must fail out promptly with a transient error (the
// lock table it was queued in vanished with the incarnation) instead of
// sleeping forever, and it must NOT run its own rollback — restart owns
// the undo of everything the dead incarnation logged. Regression test
// for the hang moviesim -crash used to hit.
func TestCrashFailsBlockedLockWaiters(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	ctx := context.Background()

	holder := tcx.Begin(ctx, TxnOptions{})
	if err := holder.Update("t", "contended", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("setup: %v", err)
	}
	if err := holder.Insert("t", "contended", []byte("v")); err != nil {
		t.Fatal(err)
	}

	waiterErr := make(chan error, 1)
	go func() {
		x := tcx.Begin(ctx, TxnOptions{})
		if err := x.Insert("t", "unrelated", []byte("w")); err != nil {
			waiterErr <- err
			return
		}
		waiterErr <- x.Update("t", "contended", []byte("w")) // blocks on holder's X lock
	}()
	for i := 0; tcx.Locks().Stats().Waited == 0; i++ {
		if i > 2000 {
			t.Fatal("waiter never blocked")
		}
		time.Sleep(time.Millisecond)
	}

	redoBefore := tcx.Stats().UndoOps
	tcx.Crash()
	select {
	case err := <-waiterErr:
		if !errors.Is(err, base.ErrUnavailable) {
			t.Fatalf("orphaned waiter = %v, want a transient ErrUnavailable", err)
		}
		if !base.IsTransient(err) {
			t.Fatalf("orphaned waiter error %v must be transient (a retry lands on the recovered TC)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lock waiter still blocked after TC crash (the moviesim hang)")
	}
	// The orphan did not roll itself back: no inverse operations were sent
	// by anyone between crash and recovery.
	if undos := tcx.Stats().UndoOps; undos != redoBefore {
		t.Fatalf("orphaned waiter ran undo (%d -> %d undo ops)", redoBefore, undos)
	}
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	// The recovered incarnation serves normally.
	if err := tcx.RunTxnOnce(ctx, TxnOptions{}, func(x *Txn) error {
		return x.Upsert("t", "contended", []byte("after"))
	}); err != nil {
		t.Fatal(err)
	}
}
