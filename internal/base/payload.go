package base

import (
	"errors"
	"slices"
)

// Op payload: the logical operation a log record holds for redo, and nothing
// redo does not read. The TC-log's op record is this payload alone; the
// monolith's integrated log puts its page ID in front and its undo image
// behind.
//
//	head   1 byte: bits 0-3 the op kind, bit 4 Versioned, bits 5-7 zero
//	table  uvarint length, bytes
//	key    uvarint length, bytes
//	value  uvarint length, bytes; only for a kind that writes one
//
// Nothing a log record holds itself is written: not the operation's LSN (the
// record's), its TC (the log's owner), its epoch (the redoing incarnation's),
// its transaction or a versioned write's timestamp (the commit record
// closing its run holds them), nor anything only a read carries. A decoded
// operation has Kind, Table, Key, Value and Versioned; its caller stamps the
// rest.
//
// AppendOpPayload appends to buf, growing it at most once. A caller that
// logs many keeps one buffer and passes buf[:0], or sizes it once for a
// whole batch with OpPayloadLen and encodes the payloads back to back.
func AppendOpPayload(buf []byte, op *Op) []byte {
	buf = slices.Grow(buf, OpPayloadLen(op))
	head := byte(op.Kind)
	if op.Versioned {
		head |= opPayloadVersioned
	}
	buf = append(buf, head)
	buf = AppendField(buf, op.Table)
	buf = AppendField(buf, op.Key)
	if hasValue(op.Kind) {
		buf = AppendField(buf, op.Value)
	}
	return buf
}

// OpPayloadLen is the length of AppendOpPayload's encoding of op.
func OpPayloadLen(op *Op) int {
	n := 1 + fieldLen(len(op.Table)) + fieldLen(len(op.Key))
	if hasValue(op.Kind) {
		n += fieldLen(len(op.Value))
	}
	return n
}

// The op payload's head byte, beside the kind in its low four bits.
const (
	opPayloadKindMask  = 0x0f
	opPayloadVersioned = 1 << 4
)

// hasValue reports whether kind writes a value, which its payload carries.
func hasValue(kind OpKind) bool {
	return kind == OpInsert || kind == OpUpdate || kind == OpUpsert
}

func fieldLen(n int) int { return UvarintLen(uint64(n)) + n }

var errCorruptOpPayload = errors.New("base: corrupt op payload")

// DecodeOpPayload parses exactly one payload of AppendOpPayload: a kind that
// is not a write, a head bit the encoder never sets, a non-minimal varint and
// a byte past the end are corruption, so whatever decodes re-encodes to
// itself. The operation's Value aliases payload; Table and Key are copied,
// each in an allocation of its own.
func DecodeOpPayload(payload []byte) (*Op, error) {
	d := NewDecoder(payload)
	op := d.OpPayload()
	if !d.End() {
		return nil, errCorruptOpPayload
	}
	return op, nil
}

// OpPayload reads one op payload (AppendOpPayload), as DecodeOpPayload does,
// for an encoding that holds one among fields of its own; nil once the
// decoding has failed.
func (d *Decoder) OpPayload() *Op {
	head := d.Byte()
	op := &Op{Kind: OpKind(head & opPayloadKindMask), Versioned: head&opPayloadVersioned != 0}
	if !op.Kind.IsWrite() || head&^(opPayloadKindMask|opPayloadVersioned) != 0 {
		d.Fail(errCorruptOpPayload)
	}
	table, key := d.Field(), d.Field()
	if hasValue(op.Kind) {
		op.Value = d.Field()
	}
	if d.err != nil {
		return nil
	}
	op.Table, op.Key = string(table), string(key)
	return op
}
