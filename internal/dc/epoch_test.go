package dc

import (
	"context"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// TestEpochFenceRejectsPreRestartOps is the core DC-side guarantee: after
// begin_restart installs incarnation epoch 2, every request still stamped
// by incarnation 1 (or unstamped) is refused with the permanent
// CodeStaleEpoch nack and leaves no trace in the abstract-LSN tables.
func TestEpochFenceRejectsPreRestartOps(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	h.epoch = 1
	h.insert("a", "stable")
	h.ack()
	if err := d.Checkpoint(context.Background(), 1, 1, 2); err != nil {
		t.Fatal(err)
	}

	// The TC crashes with stable log end 1 and restarts as incarnation 2.
	if err := d.BeginRestart(context.Background(), 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRestart(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}

	// A batch of the dead incarnation arrives late: every op is refused,
	// nothing executes, nothing lands in the idempotence tables.
	late := []*base.Op{
		{TC: 1, Epoch: 1, LSN: 2, Kind: base.OpInsert, Table: "t", Key: "ghost", Value: []byte("x")},
		{TC: 1, Epoch: 1, LSN: 3, Kind: base.OpUpdate, Table: "t", Key: "a", Value: []byte("scribble")},
	}
	for i, r := range d.PerformBatch(context.Background(), late) {
		if r.Code != base.CodeStaleEpoch {
			t.Fatalf("late op %d not fenced: %+v", i, r)
		}
	}
	if got := d.Stats().StaleEpochs; got != 2 {
		t.Fatalf("stale-epoch stat = %d, want 2", got)
	}
	// An old-epoch read is fenced too — a dead incarnation gets nothing.
	stale := d.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, Kind: base.OpRead, Table: "t", Key: "a"})
	if stale.Code != base.CodeStaleEpoch {
		t.Fatalf("stale read not fenced: %+v", stale)
	}

	// The new incarnation reuses LSN 2: it must execute fresh (the fenced
	// insert above must not have claimed the LSN) and read back cleanly.
	h.epoch = 2
	h.next = 2
	if r := h.insert("fresh", "v2"); r.Code != base.CodeOK || r.Applied {
		t.Fatalf("reused LSN not clean: %+v", r)
	}
	if r := h.read("ghost"); r.Found {
		t.Fatalf("fenced insert executed: %+v", r)
	}
	if r := h.read("a"); !r.Found || string(r.Value) != "stable" {
		t.Fatalf("fenced update executed: %+v", r)
	}
}

// TestEpochFenceDurableAcrossDCCrash: the fence is recorded in the DC-log
// and forced before the restart reset touches anything, so a DC crash and
// recovery cannot resurrect acceptance of a dead incarnation's requests.
func TestEpochFenceDurableAcrossDCCrash(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	h.epoch = 1
	h.insert("a", "v")
	h.ack()
	if err := d.BeginRestart(context.Background(), 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRestart(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}

	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := d.EpochOf(1); got != 2 {
		t.Fatalf("fence lost in DC crash: epoch = %d, want 2", got)
	}
	r := d.Perform(context.Background(), &base.Op{TC: 1, Epoch: 1, LSN: 9, Kind: base.OpInsert,
		Table: "t", Key: "ghost", Value: []byte("x")})
	if r.Code != base.CodeStaleEpoch {
		t.Fatalf("dead incarnation accepted after DC recovery: %+v", r)
	}
}

// TestEpochFenceSurvivesDCLogTruncation: a checkpoint can truncate the
// DC-log past the epoch snapshot; truncation must re-log the snapshot
// first so a later crash still recovers the fence.
func TestEpochFenceSurvivesDCLogTruncation(t *testing.T) {
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	h.epoch = 1
	h.insert("a", "v")
	h.ack()
	if err := d.BeginRestart(context.Background(), 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRestart(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	// New incarnation fills pages (forcing splits into the DC-log), then
	// checkpoints everything: the log truncates past the epoch record.
	h.epoch = 2
	for i := 0; i < 100; i++ {
		h.insert(fmt.Sprintf("key%04d", i), "v")
	}
	h.ack()
	if err := d.Checkpoint(context.Background(), 1, 2, h.next); err != nil {
		t.Fatal(err)
	}

	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := d.EpochOf(1); got != 2 {
		t.Fatalf("fence lost to DC-log truncation: epoch = %d, want 2", got)
	}
}

// TestRestartControlEpochValidation covers the control-plane half of the
// fence: stale begin/end restarts and checkpoints are refused, duplicate
// begin_restarts do not repeat the reset, and end_restart re-admits
// checkpoints for the new incarnation only.
func TestRestartControlEpochValidation(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	h.epoch = 1
	h.insert("a", "v")
	h.ack()
	if err := d.Checkpoint(context.Background(), 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	h.update("a", "lost") // unstable tail op

	if err := d.BeginRestart(context.Background(), 1, 3, 1); err != nil {
		t.Fatal(err)
	}
	resets := d.Stats().ResetPages
	if resets == 0 {
		t.Fatal("restart reset did not run")
	}

	// Mid-restart: checkpoints are refused — stale ones permanently, the
	// new incarnation's until end_restart activates it.
	if err := d.Checkpoint(context.Background(), 1, 1, 5); !base.IsStaleEpoch(err) {
		t.Fatalf("stale checkpoint: %v", err)
	}
	if err := d.Checkpoint(context.Background(), 1, 3, 5); err == nil || base.IsStaleEpoch(err) {
		t.Fatalf("mid-restart checkpoint: %v", err)
	}

	// Late control calls of the dead incarnation are refused.
	if err := d.BeginRestart(context.Background(), 1, 2, 1); !base.IsStaleEpoch(err) {
		t.Fatalf("stale begin-restart: %v", err)
	}
	if err := d.EndRestart(context.Background(), 1, 2); !base.IsStaleEpoch(err) {
		t.Fatalf("stale end-restart: %v", err)
	}

	// A duplicate delivery of the current begin_restart must not repeat
	// the reset (redo may already have begun).
	if err := d.BeginRestart(context.Background(), 1, 3, 1); err != nil {
		t.Fatalf("duplicate begin-restart: %v", err)
	}
	if got := d.Stats().ResetPages; got != resets {
		t.Fatalf("duplicate begin-restart repeated the reset: %d -> %d", resets, got)
	}

	// Activation: checkpoints for the new incarnation work again.
	if err := d.EndRestart(context.Background(), 1, 3); err != nil {
		t.Fatal(err)
	}
	h.epoch = 3
	h.ack()
	if err := d.Checkpoint(context.Background(), 1, 3, 2); err != nil {
		t.Fatal(err)
	}
}

// TestStaleWatermarksIgnoredAfterRestart: a dead incarnation's fire-and-
// forget watermark broadcasts still in flight must not re-poison the
// low-water mark that begin_restart re-based (the restarted TC reuses the
// LSN space the stale claim covers).
func TestStaleWatermarksIgnoredAfterRestart(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	h.epoch = 1
	h.insert("a", "v")
	d.EndOfStableLog(1, 1, 1)
	d.LowWaterMark(1, 1, 1)
	if err := d.BeginRestart(context.Background(), 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.inc.Load().tc(1).lwm.Load(); got != 0 {
		t.Fatalf("restart did not re-base the LWM: %d", got)
	}
	// Stale claim from the dead incarnation: dropped.
	d.LowWaterMark(1, 1, 9)
	if got := d.inc.Load().tc(1).lwm.Load(); got != 0 {
		t.Fatalf("stale LWM claim accepted: %d", got)
	}
	// The new incarnation's claim lands.
	d.LowWaterMark(1, 2, 1)
	if got := d.inc.Load().tc(1).lwm.Load(); got != 1 {
		t.Fatalf("new incarnation LWM dropped: %d", got)
	}
}
