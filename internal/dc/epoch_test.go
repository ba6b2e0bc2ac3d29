package dc

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/wire"
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
	if err := d.Checkpoint(context.Background(), 1, 1, 5); !errors.Is(err, base.ErrStaleEpoch) {
		t.Fatalf("stale checkpoint: %v", err)
	}
	if err := d.Checkpoint(context.Background(), 1, 3, 5); err == nil || errors.Is(err, base.ErrStaleEpoch) {
		t.Fatalf("mid-restart checkpoint: %v", err)
	}

	// Late control calls of the dead incarnation are refused.
	if err := d.BeginRestart(context.Background(), 1, 2, 1); !errors.Is(err, base.ErrStaleEpoch) {
		t.Fatalf("stale begin-restart: %v", err)
	}
	if err := d.EndRestart(context.Background(), 1, 2); !errors.Is(err, base.ErrStaleEpoch) {
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
	// The new incarnation's claim lands once its resend has ended.
	d.LowWaterMark(1, 2, 1)
	if got := d.inc.Load().tc(1).lwm.Load(); got != 0 {
		t.Fatalf("LWM claim taken inside the resend bracket: %d", got)
	}
	if err := d.EndRestart(context.Background(), 1, 2); err != nil {
		t.Fatal(err)
	}
	d.LowWaterMark(1, 2, 1)
	if got := d.inc.Load().tc(1).lwm.Load(); got != 1 {
		t.Fatalf("new incarnation LWM dropped: %d", got)
	}
}

// TestDeadIncarnationWatermarksDroppedOverTheWire: whichever way a watermark
// of a fenced incarnation arrives — alone in a watermark frame, or as the
// block of a request frame — the DC leaves its marks where they were, and
// the request is nacked for good. The zombie has a connection of its own, as
// a process that has not noticed its successor would.
func TestDeadIncarnationWatermarksDroppedOverTheWire(t *testing.T) {
	connect := map[string]func(t *testing.T, d *DC) *wire.Client{
		"sim": func(t *testing.T, d *DC) *wire.Client {
			cl, srv := wire.NewNetwork(wire.Config{}).Connect(d)
			t.Cleanup(func() { cl.Close(); srv.Close() })
			return cl
		},
		"tcp": func(t *testing.T, d *DC) *wire.Client {
			l, err := wire.Listen("127.0.0.1:0", d)
			if err != nil {
				t.Fatal(err)
			}
			cl := wire.Dial(l.Addr(), wire.DialConfig{})
			t.Cleanup(func() { cl.Close(); l.Close() })
			return cl
		},
	}
	for name, dial := range connect {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			d := newDC(t, Config{})
			zombie, live := dial(t, d), dial(t, d)
			read := func(cl *wire.Client, epoch base.Epoch) base.Code {
				return cl.Perform(ctx, &base.Op{TC: 1, Epoch: epoch, Kind: base.OpRead, Table: "t", Key: "a"}).Code
			}
			marks := func() [4]uint64 {
				s := d.inc.Load().tc(1)
				return [4]uint64{s.eosl.Load(), s.lwm.Load(), s.safe.Load(), s.horizon.Load()}
			}

			// Incarnation 1 dies with stable log end 1; incarnation 2 takes
			// over and publishes its marks. Its read is answered after them.
			h := newOpHelper(d, 1)
			h.epoch = 1
			h.insert("a", "v")
			if err := live.BeginRestart(ctx, 1, 2, 1); err != nil {
				t.Fatal(err)
			}
			if err := live.EndRestart(ctx, 1, 2); err != nil {
				t.Fatal(err)
			}
			live.EndOfStableLog(1, 2, 3)
			live.LowWaterMark(1, 2, 2)
			live.SafeTS(1, 2, 10, 5)
			if code := read(live, 2); code != base.CodeOK {
				t.Fatalf("live read: %v", code)
			}
			want := [4]uint64{3, 2, 10, 5}
			if got := marks(); got != want {
				t.Fatalf("incarnation 2's marks: %v, want %v", got, want)
			}

			// The zombie's frames are answered in order on its connection, so
			// the nack of its read means both were looked at.
			zombie.EndOfStableLog(1, 1, 99)
			zombie.LowWaterMark(1, 1, 98)
			zombie.SafeTS(1, 1, 97, 96) // one watermark frame, all three marks
			zombie.EndOfStableLog(1, 1, 101)
			zombie.LowWaterMark(1, 1, 100) // these two ride the read
			if code := read(zombie, 1); code != base.CodeStaleEpoch {
				t.Fatalf("zombie read: %v, want CodeStaleEpoch", code)
			}
			if got := marks(); got != want {
				t.Fatalf("a dead incarnation's watermarks moved the marks: %v, want %v", got, want)
			}
		})
	}
}
