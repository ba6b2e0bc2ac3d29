package base

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestIsTransientClassification(t *testing.T) {
	for _, err := range []error{ErrDeadlock, ErrLockTimeout, ErrUnavailable} {
		if !IsTransient(err) {
			t.Fatalf("%v must be transient", err)
		}
		if !IsTransient(fmt.Errorf("wrapped: %w", err)) {
			t.Fatalf("wrapped %v must stay transient", err)
		}
	}
	for _, err := range []error{ErrCancelled, ErrReadOnly, ErrStaleEpoch,
		ErrWrongOwner, ErrUnknownTable, errors.New("other")} {
		if IsTransient(err) {
			t.Fatalf("%v must not be transient", err)
		}
	}
}

func TestCodeErrorsFoldIntoTaxonomy(t *testing.T) {
	if err := CodeUnavailable.Err(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("CodeUnavailable error %v does not match ErrUnavailable", err)
	}
	if err := CodeCancelled.Err(); !errors.Is(err, ErrCancelled) {
		t.Fatalf("CodeCancelled error %v does not match ErrCancelled", err)
	}
	if err := CodeStaleEpoch.Err(); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("CodeStaleEpoch error %v does not match ErrStaleEpoch", err)
	}
	// Wrapped one level (the way the txn layer surfaces them).
	if err := fmt.Errorf("tc: read: %w", CodeUnavailable.Err()); !IsTransient(err) {
		t.Fatalf("wrapped unavailable %v lost transience", err)
	}
	if err := fmt.Errorf("tc: read: %w", CodeSnapshotTooOld.Err()); !IsTransient(err) {
		t.Fatalf("wrapped snapshot-too-old %v is not transient", err)
	}
	if err := CodeWrongOwner.Err(); !errors.Is(err, ErrWrongOwner) {
		t.Fatalf("CodeWrongOwner error %v does not match ErrWrongOwner", err)
	}
	if errors.Is(CodeNotFound.Err(), ErrUnavailable) || errors.Is(CodeOK.Err(), ErrUnavailable) {
		t.Fatal("unrelated codes must not match taxonomy sentinels")
	}
}

func TestCancelErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := CancelErr(ctx)
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("CancelErr %v must match ErrCancelled and context.Canceled", err)
	}
	if IsTransient(err) {
		t.Fatal("cancellation is not transient")
	}

	cause := errors.New("the reason")
	ctx2, cancel2 := context.WithCancelCause(context.Background())
	cancel2(cause)
	if err := CancelErr(ctx2); !errors.Is(err, cause) || !errors.Is(err, ErrCancelled) {
		t.Fatalf("CancelErr %v must carry the cancel cause", err)
	}
}

func TestRehydrateWireError(t *testing.T) {
	msg := "dc dc0: checkpoint for tc 1 epoch 2 behind fence 3: " + ErrStaleEpoch.Error()
	if err := RehydrateWireError(msg); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("rehydrated %q does not match ErrStaleEpoch", msg)
	}
	msg = "dc dc0: " + ErrUnavailable.Error()
	if err := RehydrateWireError(msg); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("rehydrated %q does not match ErrUnavailable", msg)
	}
	// The §6.1 placement sentinels rehydrate like their siblings, so
	// errors.Is(err, ErrWrongOwner) keeps working when a failure crosses
	// the TC:DC wire as a control-reply string.
	for _, sentinel := range []error{ErrWrongOwner, ErrUnknownTable, ErrStaleDC, ErrNothingOwed} {
		msg := "tc 2: upsert kv/\"w1-0\": " + sentinel.Error()
		if err := RehydrateWireError(msg); !errors.Is(err, sentinel) {
			t.Fatalf("rehydrated %q does not match %v", msg, sentinel)
		}
	}
	if err := RehydrateWireError("something else"); err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("unknown message must rehydrate to a plain error, got %v", err)
	}
}
