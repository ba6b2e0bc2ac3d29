package tc

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/lockmgr"
)

func waitNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
}

// TestCommitBarrierCancellation: a commit whose ship is stuck (DC down,
// deliver in its resend loop) returns promptly with the ErrCancelled-wrapped
// context error when cancelled — and only the wait is abandoned, not the
// protocol: the transaction is done for its caller, its finisher keeps the
// locks, and once the DC recovers the resend contract still delivers the
// committed transaction's operations.
func TestCommitBarrierCancellation(t *testing.T) {
	tcx, d := newPair(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())

	// Versioned: upserts need no pre-read, so the commit after the crash
	// reaches its append and ship instead of failing cleanly at the down DC.
	x := tcx.Begin(ctx, TxnOptions{Versioned: true})
	if err := x.Upsert("t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// The first write is acknowledged at a barrier of its own; the crash
	// then parks the commit's batch against a down DC.
	if err := x.flush(); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if err := x.Upsert("t", "k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() { done <- x.Commit() }()
	time.Sleep(30 * time.Millisecond) // commit reaches its ship
	start := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled commit did not return")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("cancelled commit took %v", el)
	}
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("commit error %v does not carry ErrCancelled + context.Canceled", err)
	}
	if !errors.Is(err, ErrCommitAmbiguous) {
		t.Fatalf("commit error %v does not carry ErrCommitAmbiguous", err)
	}

	// Strict 2PL: the prompt return must NOT have released the locks —
	// the write to k2 is still unacknowledged, so another transaction must
	// not be able to touch the keys until the finisher is through.
	if got := len(tcx.Locks().Held(x.ID())); got == 0 {
		t.Fatal("cancelled commit released locks with unacknowledged writes outstanding")
	}
	// The transaction is the finisher's now (it is still parked: the DC is
	// down). A deferred Abort or a second Commit must leave it alone; -race
	// catches either touching what the finisher works on.
	if err := x.Abort(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("abort after a cancelled commit = %v, want ErrTxnDone", err)
	}
	if err := x.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit after a cancelled commit = %v, want ErrTxnDone", err)
	}
	if got := len(tcx.Locks().Held(x.ID())); got == 0 {
		t.Fatal("abort after a cancelled commit released the finisher's locks")
	}

	// The finisher keeps resending: after DC recovery it appends and forces
	// the commit record, and the transaction's writes must all be present.
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		for k, want := range map[string]string{"k": "v1", "k2": "v2"} {
			v, ok, err := y.Read("t", k)
			if err != nil {
				return err
			}
			if !ok || string(v) != want {
				t.Fatalf("committed write %s lost after cancel: %q %v", k, v, ok)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	waitNoGoroutineLeak(t, baseline)
}

// TestBlockedLockWaitCancellation, transaction level: a Read blocked
// behind another transaction's X lock returns promptly on cancellation,
// the error carries ErrCancelled + ctx.Err(), and the blocked transaction
// has been aborted (its locks are gone; the system is not wedged).
func TestBlockedLockWaitCancellation(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	holder := tcx.Begin(context.Background(), TxnOptions{})
	if err := holder.Upsert("t", "hot", []byte("v")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	blocked := tcx.Begin(ctx, TxnOptions{})
	done := make(chan error, 1)
	go func() {
		_, _, err := blocked.Read("t", "hot")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // enqueue behind the X lock
	start := time.Now()
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled lock wait did not return")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("cancelled read took %v", el)
	}
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("read error %v does not carry ErrCancelled + context.Canceled", err)
	}
	if got := len(tcx.Locks().Held(blocked.ID())); got != 0 {
		t.Fatalf("cancelled transaction still holds %d locks", got)
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPerTxnLockTimeout: TxnOptions.LockTimeout overrides the TC default
// for one transaction and surfaces the typed ErrLockTimeout.
func TestPerTxnLockTimeout(t *testing.T) {
	tcx, _ := newPair(t, Config{}) // no TC-level timeout: default is wait-forever
	holder := tcx.Begin(context.Background(), TxnOptions{})
	if err := holder.Upsert("t", "hot", []byte("v")); err != nil {
		t.Fatal(err)
	}
	bounded := tcx.Begin(context.Background(), TxnOptions{LockTimeout: 30 * time.Millisecond})
	start := time.Now()
	_, _, err := bounded.Read("t", "hot")
	if !errors.Is(err, base.ErrLockTimeout) || !errors.Is(err, lockmgr.ErrTimeout) {
		t.Fatalf("want lock timeout, got %v", err)
	}
	if el := time.Since(start); el < 25*time.Millisecond || el > 2*time.Second {
		t.Fatalf("bounded wait took %v", el)
	}
	if !base.IsTransient(err) {
		t.Fatal("lock timeout must classify as transient")
	}
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyTxn: writes inside a ReadOnly transaction fail typed and
// mutate nothing; reads proceed normally.
func TestReadOnlyTxn(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	err := tcx.RunTxn(context.Background(), TxnOptions{ReadOnly: true}, func(x *Txn) error {
		if v, ok, err := x.Read("t", "k"); err != nil || !ok || string(v) != "v" {
			t.Fatalf("read in read-only txn: %q %v %v", v, ok, err)
		}
		return x.Upsert("t", "k", []byte("scribble"))
	})
	if !errors.Is(err, base.ErrReadOnly) {
		t.Fatalf("want ErrReadOnly, got %v", err)
	}
	if base.IsTransient(err) {
		t.Fatal("read-only violation must not be transient")
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		v, _, err := x.Read("t", "k")
		if err != nil {
			return err
		}
		if string(v) != "v" {
			t.Fatalf("read-only txn mutated state: %q", v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
