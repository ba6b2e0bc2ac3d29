package tc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"github.com/cidr09/unbundled/internal/base"
)

// Op-record payload: the logical operation (LSN zeroed; the record's own
// LSN is authoritative) plus the undo information captured before the send
// (§4.1.1(3): "Undo logging in the TC will enable rollback … by providing
// information TC can use to submit inverse logical operations").
//
// The payload encoders append to buf. The log copies a payload into its own
// encoding of the record (wal.AppendBatch), so a caller that logs many keeps
// one buffer and passes buf[:0], or sizes it once for a whole batch with
// opPayloadBound and encodes the payloads back to back.
func appendOpPayload(buf []byte, op *base.Op, u undoImage) []byte {
	buf = slices.Grow(buf, opPayloadBound(op, u))
	saved, savedEpoch := op.LSN, op.Epoch
	// LSN and epoch are zeroed in the payload: the record's own LSN is
	// authoritative, and redo stamps the *restarted* incarnation's epoch —
	// a logged (dead) epoch would be refused by the DC fence.
	op.LSN, op.Epoch = 0, 0
	buf = base.AppendOp(buf, op)
	op.LSN, op.Epoch = saved, savedEpoch
	buf = binary.AppendUvarint(buf, uint64(len(u.prior)))
	buf = append(buf, u.prior...)
	return append(buf, u.flag())
}

// opPayloadBound bounds the bytes appendOpPayload adds: the strings and a
// bound on the varints and flags around them.
func opPayloadBound(op *base.Op, u undoImage) int {
	return len(op.Table) + len(op.Key) + len(op.EndKey) + len(op.Value) + len(u.prior) + 48
}

// undoImage is an op record's undo information: the value the key held before
// the operation, and whether it existed. A record appended in one batch with
// its transaction's commit record carries none (redoOnly): the batch is
// stable whole or not at all, so the record is never a loser's, and a crash
// that loses it is rolled back at the DC, whose cache still holds every
// operation above the stable log (DC.BeginRestart). Nothing inverts it.
type undoImage struct {
	prior    []byte
	found    bool
	redoOnly bool
}

// The last byte of an op payload.
const (
	priorAbsent  byte = iota // the key did not exist
	priorPresent             // it held prior
	priorNone                // redo-only: no undo image
)

func (u undoImage) flag() byte {
	switch {
	case u.redoOnly:
		return priorNone
	case u.found:
		return priorPresent
	}
	return priorAbsent
}

var errCorruptOp = errors.New("tc: corrupt op payload")

func decodeOpPayload(payload []byte) (*base.Op, undoImage, error) {
	op, rest, err := base.DecodeOp(payload)
	if err != nil {
		return nil, undoImage{}, err
	}
	n, w := binary.Uvarint(rest)
	if w <= 0 || n > uint64(len(rest)-w) {
		return nil, undoImage{}, errCorruptOp
	}
	rest = rest[w:]
	var u undoImage
	if n > 0 {
		u.prior = append([]byte(nil), rest[:n]...)
	}
	rest = rest[n:]
	if len(rest) != 1 || rest[0] > priorNone || (rest[0] == priorNone && n > 0) {
		return nil, undoImage{}, errCorruptOp
	}
	u.found, u.redoOnly = rest[0] == priorPresent, rest[0] == priorNone
	return op, u, nil
}

// Commit-record payload: the commit timestamp (zero for an unversioned
// transaction), so analysis can re-seed the timestamp allocator above every
// durable commit. Nothing else: a versioned write carries its timestamp in its
// own record, so redo re-delivers it stamped.
func appendCommit(buf []byte, ts base.TS) []byte {
	return binary.AppendUvarint(buf, uint64(ts))
}

func decodeCommit(payload []byte) (base.TS, error) {
	u, w := binary.Uvarint(payload)
	if w <= 0 || w != len(payload) {
		return 0, fmt.Errorf("tc: corrupt commit payload")
	}
	return base.TS(u), nil
}

// Checkpoint-record payload: the redo scan start point plus the current
// incarnation epoch. Carrying the epoch here guarantees the stable log
// always holds the newest epoch even after truncation discards the
// recEpoch record (a checkpoint appends its record before truncating).
func encodeCheckpoint(rssp base.LSN, epoch base.Epoch) []byte {
	buf := binary.AppendUvarint(nil, uint64(rssp))
	return binary.AppendUvarint(buf, uint64(epoch))
}

func decodeCheckpoint(payload []byte) (base.LSN, base.Epoch, error) {
	u, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, 0, fmt.Errorf("tc: corrupt checkpoint payload")
	}
	payload = payload[w:]
	// Pre-epoch records end here; they decode with epoch zero.
	if len(payload) == 0 {
		return base.LSN(u), 0, nil
	}
	e, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, 0, fmt.Errorf("tc: corrupt checkpoint payload")
	}
	return base.LSN(u), base.Epoch(e), nil
}

// Epoch-record payload: the minted incarnation epoch.
func encodeEpoch(epoch base.Epoch) []byte {
	return binary.AppendUvarint(nil, uint64(epoch))
}

func decodeEpoch(payload []byte) (base.Epoch, error) {
	u, w := binary.Uvarint(payload)
	if w <= 0 {
		return 0, fmt.Errorf("tc: corrupt epoch payload")
	}
	return base.Epoch(u), nil
}
