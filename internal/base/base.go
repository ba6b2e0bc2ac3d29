// Package base defines the identifiers, logical-operation vocabulary, and
// the TC:DC service contract shared by the transactional component (TC),
// data components (DCs), the wire protocol, and the monolithic baseline.
//
// Terminology follows the paper: a TC labels every request it logs — every
// mutation — with the unique, monotonically increasing LSN of its log record
// (§4.2 "Unique request IDs"), and a read, which has no record, with none; a
// DC uses its own dLSN space for system transactions (§5.2.2). The two spaces
// are never compared with each other.
package base

import "fmt"

// LSN is a log sequence number in a TC's log space. It doubles as the
// unique request identifier of the logged operation whose record it names.
// Zero means "none": an unlogged operation (a read) carries it.
type LSN uint64

// DLSN is a DC-local log sequence number used to make structure
// modification (system transaction) recovery idempotent. Zero means "none".
type DLSN uint64

// TCID identifies a transactional component instance. A DC tracks abstract
// LSNs separately per TCID (§6.1.1).
type TCID uint16

// Epoch numbers the incarnations of one TC. A TC mints a fresh, strictly
// larger epoch every time it (re)starts, forces it into its log before
// stamping it on any operation, and announces it to every DC via
// begin_restart. The DC refuses anything stamped with an older epoch
// (CodeStaleEpoch): operations of a dead incarnation that were still on
// the wire when the TC crashed can therefore never execute after the
// restart reset, even though the restarted TC reuses the dead
// incarnation's LSN space. Zero means "no epoch" (pre-epoch encodings and
// a DC that has never seen a restart for the TC).
type Epoch uint64

// DCInc numbers the incarnations of one DC: durable, bumped by every DC
// recovery (the first start included), never reused. A TC's claims about a
// DC's contents — its low-water mark, its safe timestamp, a checkpoint —
// hold for the incarnation it resent its redo stream to and for no other
// (§5.3.1), so a DC refuses a TC's unstamped operations until that TC's
// resend to it has ended, answering CodeStaleDC with its own number; the
// resend itself is stamped with that number. Zero means "unstamped".
type DCInc uint64

// TS is a commit or snapshot timestamp: nanoseconds on the Unix epoch,
// drawn from a clock-with-error-bound (internal/clock). A TC stamps every
// versioned commit with a TS strictly larger than any it assigned before;
// a snapshot read at T sees exactly the versions committed with TS <= T.
// Zero means "no timestamp": unversioned data, visible to every snapshot.
type TS uint64

// PageID identifies a page within one DC's stable store. Zero is invalid.
type PageID uint32

// TxnID identifies a user transaction within one TC. Zero is invalid.
type TxnID uint64

// OpKind enumerates the logical, record-oriented operations of the TC:DC
// interface (§4.2.1 perform_operation). The DC never learns which user
// transaction an operation belongs to, nor whether it is forward activity
// or an inverse applied during rollback.
type OpKind uint8

const (
	// OpNone is the zero OpKind and is never sent.
	OpNone OpKind = iota
	// OpRead returns the current value for a key. Reads carry no request ID
	// (LSN zero): they do not mutate DC state, are not recorded in abstract
	// LSNs, and a repeated one simply runs again.
	OpRead
	// OpInsert adds a record; it fails with CodeDuplicate if the key exists.
	OpInsert
	// OpUpdate overwrites the value of an existing record; CodeNotFound if
	// the key does not exist.
	OpUpdate
	// OpDelete removes a record; CodeNotFound if the key does not exist.
	OpDelete
	// OpUpsert writes the value regardless of prior existence.
	OpUpsert
	// OpScanProbe is the speculative probe of the fetch-ahead protocol
	// (§3.1): it returns the next Limit keys at or after Key without
	// reading their values, so the TC can lock them before the real read.
	OpScanProbe
	// OpRangeRead returns records with Key <= k < EndKey, at most Limit.
	OpRangeRead
	// opRetired is the first number no kind holds: 8 was the §6.2.2
	// finalize (commit-versions) and 9 the rollback of a versioned write
	// (abort-versions). A versioned write now leaves once, at its commit,
	// carrying its commit timestamp (Op.TS), and an aborted one never
	// leaves the TC, so DecodeOp refuses both numbers and every one above.
	opRetired
)

var opKindNames = [...]string{
	OpNone:      "none",
	OpRead:      "read",
	OpInsert:    "insert",
	OpUpdate:    "update",
	OpDelete:    "delete",
	OpUpsert:    "upsert",
	OpScanProbe: "scan-probe",
	OpRangeRead: "range-read",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) && opKindNames[k] != "" {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// IsWrite reports whether the operation mutates DC state and therefore
// participates in abstract-LSN idempotence tracking.
func (k OpKind) IsWrite() bool {
	switch k {
	case OpInsert, OpUpdate, OpDelete, OpUpsert:
		return true
	}
	return false
}

// ReadFlavor selects the isolation behaviour of a read when multiple TCs
// share a DC (§6.2).
type ReadFlavor uint8

const (
	// ReadPlain reads the latest version; used by the owning TC for its own
	// partition, where strict two-phase locking already isolates access.
	ReadPlain ReadFlavor = iota
	// ReadDirty reads the latest version regardless of commit state.
	// Always well formed thanks to DC operation atomicity, but the value
	// may belong to an uncommitted transaction (§6.2.1).
	ReadDirty
	// ReadCommitted reads the before version when an uncommitted later
	// version exists; requires versioned data (§6.2.2). Never blocks.
	ReadCommitted
	// ReadSnapshot reads the newest version committed at or before the
	// operation's TS: the multi-version read of a snapshot transaction.
	// Requires versioned data; never blocks on locks (the DC waits until
	// its safe timestamp covers TS instead). Uncommitted versions are
	// never visible regardless of which TC wrote them.
	ReadSnapshot
)

func (f ReadFlavor) String() string {
	switch f {
	case ReadPlain:
		return "plain"
	case ReadDirty:
		return "dirty"
	case ReadCommitted:
		return "read-committed"
	case ReadSnapshot:
		return "snapshot"
	}
	return fmt.Sprintf("ReadFlavor(%d)", uint8(f))
}

// Code is the outcome of a logical operation.
type Code uint8

const (
	// CodeOK means the operation executed (or was recognized as already
	// executed and skipped idempotently).
	CodeOK Code = iota
	// CodeNotFound means the key did not exist for update/delete/read.
	CodeNotFound
	// CodeDuplicate means an insert hit an existing key.
	CodeDuplicate
	// CodeBadRequest means the operation was malformed.
	CodeBadRequest
	// CodeUnavailable means the DC is down or restarting; the sender
	// should retry (resend contract, §4.2).
	CodeUnavailable
	// CodeStaleEpoch means the operation was stamped with an incarnation
	// epoch older than the one the DC holds for that TC: it was issued by a
	// dead incarnation whose unforced log tail is gone. Unlike
	// CodeUnavailable this is a permanent nack — resending can never
	// succeed, because epochs only move forward.
	CodeStaleEpoch
	// CodeCancelled means the caller's context was cancelled while the
	// operation was waiting (on a wire reply, a retry pause, or a recovery
	// gate). It is a local outcome — a DC never sends it — and says nothing
	// about whether the operation executed.
	CodeCancelled
	// CodeWrongOwner means the operation targets a key outside the
	// issuing TC's §6.1 update-ownership partition. The TC enforces
	// ownership before an operation is ever logged or shipped, so today
	// this code crosses the wire only if a future DC-side check refuses
	// one; it is permanent either way — ownership moves by changing the
	// placement, not by retrying.
	CodeWrongOwner
	// CodeStaleDC means the DC did not execute the operation because it
	// was not stamped with the DC's incarnation (Result.DCInc names it) and
	// the sending TC's resend to that incarnation has not ended: the DC
	// restarted since the TC last resent, or the stamp names a dead
	// incarnation. The TC resends its redo stream, then sends again.
	CodeStaleDC
	// CodeSnapshotTooOld means a snapshot read found the DC's GC horizon
	// above its timestamp: versions it needs may have been reclaimed on
	// another TC's word before the DC heard from the reader's (a TC just
	// started, or a DC just restarted). The read is refused rather than
	// answered from a history with a hole. It folds into ErrUnavailable: a
	// fresh transaction, with a fresh snapshot, reads.
	CodeSnapshotTooOld
)

func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeNotFound:
		return "not-found"
	case CodeDuplicate:
		return "duplicate"
	case CodeBadRequest:
		return "bad-request"
	case CodeUnavailable:
		return "unavailable"
	case CodeStaleEpoch:
		return "stale-epoch"
	case CodeCancelled:
		return "cancelled"
	case CodeWrongOwner:
		return "wrong-owner"
	case CodeStaleDC:
		return "stale-dc"
	case CodeSnapshotTooOld:
		return "snapshot-too-old"
	}
	return fmt.Sprintf("Code(%d)", uint8(c))
}

// Err converts a failure code to an error, or nil for CodeOK.
func (c Code) Err() error {
	if c == CodeOK {
		return nil
	}
	return codeError(c)
}

type codeError Code

func (e codeError) Error() string { return "dc: " + Code(e).String() }

// Is folds the result codes into the error taxonomy, so a code that
// crossed the wire still matches its public sentinel via errors.Is.
func (e codeError) Is(target error) bool {
	switch Code(e) {
	case CodeUnavailable, CodeSnapshotTooOld:
		return target == ErrUnavailable
	case CodeCancelled:
		return target == ErrCancelled
	case CodeWrongOwner:
		return target == ErrWrongOwner
	}
	return false
}

// ErrStaleEpoch is the typed error for CodeStaleEpoch: the operation (or
// control call) came from a TC incarnation that has since been fenced by a
// restart. Senders must treat it as permanent and never retry; errors.Is
// works through wrapping.
var ErrStaleEpoch error = codeError(CodeStaleEpoch)

// ErrStaleDC is the typed error for CodeStaleDC, and what a DC incarnation
// answers a control call that belongs to a resend it never saw begin: an
// EndRestart, or a checkpoint before that TC's resend to it has ended.
var ErrStaleDC error = codeError(CodeStaleDC)
