package base

import (
	"context"
	"errors"
	"strings"
)

// The public error taxonomy. Every failure a transaction can surface is
// rooted in exactly one of these sentinels, so callers branch with
// errors.Is instead of string matching, end to end: the sentinels are
// attached at the layer that detects the condition (lockmgr, wire, DC) and
// rehydrated when a failure crosses the TC:DC wire as a result code or a
// control-reply string.
var (
	// ErrDeadlock marks a transaction chosen as a deadlock victim. The
	// transaction has been aborted; retrying it as a fresh transaction is
	// expected to succeed (transient).
	ErrDeadlock = errors.New("unbundled: deadlock victim")
	// ErrLockTimeout marks a lock wait that exceeded its bound. The
	// transaction has been aborted; transient.
	ErrLockTimeout = errors.New("unbundled: lock wait timeout")
	// ErrUnavailable marks an operation refused because a component is
	// down, restarting, or its wire stub has been closed. Transient: the
	// resend/recovery contract will make a retry succeed once the
	// component is back.
	ErrUnavailable = errors.New("unbundled: component unavailable")
	// ErrCancelled marks an operation abandoned because the caller's
	// context was cancelled or its deadline expired. Errors carrying it
	// also wrap the context's own error, so errors.Is(err,
	// context.Canceled) / context.DeadlineExceeded work too. Permanent:
	// retrying under the same context cannot succeed.
	ErrCancelled = errors.New("unbundled: operation cancelled")
	// ErrReadOnly marks a write attempted inside a transaction begun with
	// TxnOptions.ReadOnly. Permanent.
	ErrReadOnly = errors.New("unbundled: read-only transaction")
	// ErrWrongOwner marks a write outside the issuing TC's §6.1 update-
	// ownership partition: the deployment's placement names another TC as
	// the key's owner, and update responsibility is exclusive. The
	// transaction has been aborted. Permanent — retrying at the same TC
	// can never succeed; route the transaction to the owner instead
	// (TxnOptions.WriteSet, Client.RunTxnAt).
	ErrWrongOwner = errors.New("unbundled: wrong update owner for key")
	// ErrUnknownTable marks a placement lookup for a table no clause of
	// the deployment's placement covers (and no "*" catch-all exists).
	// Permanent: the spec, not the moment, is wrong.
	ErrUnknownTable = errors.New("unbundled: table not covered by placement")
	// ErrDraining marks a transaction refused because the component is
	// draining: an operator asked it to quiesce, so it stops admitting
	// new transactions while finishing in-flight ones. Transient — the
	// client re-routes to another TC or retries after undrain.
	ErrDraining = errors.New("unbundled: component draining")
	// ErrPlacementMismatch marks a fleet-assembly cross-check failure:
	// the placement spec maps a table onto a DC whose live catalog does
	// not serve that table. Permanent: the deployment (spec or -tables
	// flags), not the moment, is wrong.
	ErrPlacementMismatch = errors.New("unbundled: placement does not match DC catalog")
	// ErrOverloaded marks a request refused by a server whose worker
	// queues are full: admission control shedding load instead of growing
	// goroutines without bound. Transient — the request was never
	// executed, so retrying after a pause is always safe and succeeds
	// once the queues drain.
	ErrOverloaded = errors.New("unbundled: server overloaded")
	// ErrNothingOwed is a DC's answer to a BeginRestart of the epoch whose
	// resend to this DC incarnation has already ended: there is nothing to
	// resend. A TC that only asks — after a reconnect that may or may not
	// have been a DC restart — replays nothing on it.
	ErrNothingOwed = errors.New("unbundled: no resend owed")
)

// IsTransient reports whether err is an abort a caller should retry as a
// fresh transaction: deadlock victims, bounded lock waits that timed out,
// component-unavailable windows, draining components (the retry
// re-routes), and overload sheds. Cancellation, stale epochs, and
// semantic failures (not-found, duplicate, read-only) are permanent.
func IsTransient(err error) bool {
	return errors.Is(err, ErrDeadlock) || errors.Is(err, ErrLockTimeout) ||
		errors.Is(err, ErrUnavailable) || errors.Is(err, ErrDraining) ||
		errors.Is(err, ErrOverloaded)
}

// CancelErr converts a done context into the taxonomy's cancellation
// error: errors.Is matches ErrCancelled, the context's cause, and the
// plain context error. Callers invoke it only after ctx.Done() fired.
func CancelErr(ctx context.Context) error {
	cause := context.Cause(ctx)
	if cause == nil {
		cause = context.Canceled
	}
	return &cancelErr{cause: cause}
}

type cancelErr struct{ cause error }

func (e *cancelErr) Error() string { return "unbundled: cancelled: " + e.cause.Error() }

func (e *cancelErr) Unwrap() error { return e.cause }

func (e *cancelErr) Is(target error) bool { return target == ErrCancelled }

// RehydrateWireError re-types a control-plane failure that crossed the
// wire as a string, so errors.Is keeps working through the stub: the known
// sentinel messages are matched by substring and re-wrapped.
func RehydrateWireError(msg string) error {
	for _, sentinel := range []error{ErrStaleEpoch, ErrStaleDC, ErrNothingOwed, ErrUnavailable, ErrWrongOwner,
		ErrUnknownTable, ErrDraining, ErrPlacementMismatch, ErrOverloaded} {
		if strings.Contains(msg, sentinel.Error()) {
			return &wireErr{msg: msg, sentinel: sentinel}
		}
	}
	return errors.New(msg)
}

type wireErr struct {
	msg      string
	sentinel error
}

func (e *wireErr) Error() string { return e.msg }

func (e *wireErr) Unwrap() error { return e.sentinel }
