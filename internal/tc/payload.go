package tc

import (
	"encoding/binary"
	"errors"
	"slices"

	"github.com/cidr09/unbundled/internal/base"
)

// Op-record payload: the logical operation, and nothing restart does not
// read. It carries no undo information (§4.1.1(3)): an op record is appended
// in one batch with its transaction's commit record (Txn.appendQueued), so
// it is stable only beside it, never a loser's, and nothing inverts it.
//
//	head   1 byte: bits 0-3 the op kind, bit 4 Versioned, bits 5-7 zero
//	table  uvarint length, bytes
//	key    uvarint length, bytes
//	value  uvarint length, bytes; only for a kind that writes one
//
// The operation's LSN is the record's, its TC the log's owner, and its epoch
// the restarted incarnation's (a logged, dead one would be refused by the
// DC fence), so none is written; nor is anything only a read carries. Nor is
// its transaction's: the record has no transaction id, and a versioned
// write's timestamp is its commit's, which the commit record that closes the
// record's run in the log holds (redo). A decoded operation has Kind, Table,
// Key, Value and Versioned; its caller stamps the rest.
//
// The payload encoders append to buf. The log copies a payload into its own
// encoding of the record (wal.AppendBatch), so a caller that logs many keeps
// one buffer and passes buf[:0], or sizes it once for a whole batch with
// opPayloadLen and encodes the payloads back to back.
func appendOpPayload(buf []byte, op *base.Op) []byte {
	buf = slices.Grow(buf, opPayloadLen(op))
	head := byte(op.Kind)
	if op.Versioned {
		head |= opVersioned
	}
	buf = append(buf, head)
	buf = base.AppendField(buf, op.Table)
	buf = base.AppendField(buf, op.Key)
	if hasValue(op.Kind) {
		buf = base.AppendField(buf, op.Value)
	}
	return buf
}

// opPayloadLen is the length of appendOpPayload's encoding of op.
func opPayloadLen(op *base.Op) int {
	n := 1 + fieldLen(len(op.Table)) + fieldLen(len(op.Key))
	if hasValue(op.Kind) {
		n += fieldLen(len(op.Value))
	}
	return n
}

// The op payload's head byte, beside the kind in its low four bits.
const (
	opKindMask  = 0x0f
	opVersioned = 1 << 4
)

// hasValue reports whether kind writes a value, which its record carries.
func hasValue(kind base.OpKind) bool {
	return kind == base.OpInsert || kind == base.OpUpdate || kind == base.OpUpsert
}

func fieldLen(n int) int { return base.UvarintLen(uint64(n)) + n }

var errCorruptOp = errors.New("tc: corrupt op payload")

// decodeOpPayload parses exactly one payload of appendOpPayload: a kind that
// is not a write, a head bit the encoder never sets, a non-minimal varint and
// a byte past the end are corruption, so whatever decodes re-encodes to
// itself. The operation's Value aliases payload; Table and Key are copied,
// each in an allocation of its own.
func decodeOpPayload(payload []byte) (*base.Op, error) {
	d := base.NewDecoder(payload)
	head := d.Byte()
	op := &base.Op{Kind: base.OpKind(head & opKindMask), Versioned: head&opVersioned != 0}
	if !loggable(op.Kind) || head&^(opKindMask|opVersioned) != 0 {
		return nil, errCorruptOp
	}
	table, key := d.Field(), d.Field()
	if hasValue(op.Kind) {
		op.Value = d.Field()
	}
	if !d.End() {
		return nil, errCorruptOp
	}
	op.Table, op.Key = string(table), string(key)
	return op, nil
}

// loggable reports whether an op record may hold kind: the writes.
func loggable(kind base.OpKind) bool {
	return hasValue(kind) || kind == base.OpDelete
}

// Commit-record payload: the commit timestamp (zero for an unversioned
// transaction), so analysis can re-seed the timestamp allocator above every
// durable commit, and redo can stamp the transaction's versioned writes, whose
// records precede it in the same batch and carry no timestamp of their own.
// Nothing else: the record's transaction id is the log's (wal.Record.Txn).
func appendCommit(buf []byte, ts base.TS) []byte {
	return binary.AppendUvarint(buf, uint64(ts))
}

func decodeCommit(payload []byte) (base.TS, error) {
	d := base.NewDecoder(payload)
	ts := base.TS(d.Uvarint())
	if !d.End() {
		return 0, errors.New("tc: corrupt commit payload")
	}
	return ts, nil
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
	d := base.NewDecoder(payload)
	rssp, epoch := base.LSN(d.Uvarint()), base.Epoch(d.Uvarint())
	if !d.End() {
		return 0, 0, errors.New("tc: corrupt checkpoint payload")
	}
	return rssp, epoch, nil
}

// Epoch-record payload: the minted incarnation epoch.
func encodeEpoch(epoch base.Epoch) []byte {
	return binary.AppendUvarint(nil, uint64(epoch))
}

func decodeEpoch(payload []byte) (base.Epoch, error) {
	d := base.NewDecoder(payload)
	epoch := base.Epoch(d.Uvarint())
	if !d.End() {
		return 0, errors.New("tc: corrupt epoch payload")
	}
	return epoch, nil
}
