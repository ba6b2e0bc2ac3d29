package base

import (
	"encoding/binary"
	"fmt"
)

// errCorrupt is the failure of every read a Decoder refuses.
var errCorrupt = fmt.Errorf("base: truncated or corrupt encoding")

// errTrailing refuses a body with bytes past what it encodes.
var errTrailing = fmt.Errorf("base: trailing bytes after the encoding")

// AppendField appends f as a field: its uvarint length, then its bytes.
func AppendField[T string | []byte](buf []byte, f T) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(f))), f...)
}

// Decoder is the one reader of every varint encoding outside the page image —
// the operations and results here, log records and the payloads their owners
// put in them, wire frames, abstract-LSN tables — so that each decodes only
// from the bytes its encoder writes. It reads in place from the front,
// strictly: a missing byte, a short, overlong or non-minimal varint, and a
// count or a field longer than the bytes left are corruption. The first
// failure latches: the rest of the buffer is skipped, Err returns it, and
// every later read returns zero. A field aliases the buffer, its capacity
// clipped, so an append to it cannot reach the bytes behind; a caller that
// outlives the buffer copies.
//
// Two readers stay apart: package page's cursor, the cache-miss loop that
// aliases a page image's strings with unsafe, and package storage's frame
// and journal heads, parsed in place beside the CRC that guards them.
type Decoder struct {
	buf []byte
	off int // the next byte; OpSlab cuts its fields out of buf by offset
	err error
}

// NewDecoder returns a Decoder at the start of buf.
func NewDecoder(buf []byte) Decoder { return Decoder{buf: buf} }

// Fail fails the decoding with err, unless it has failed already: for a
// value the encoding can hold but its encoder never writes.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.buf)
}

// Err returns the first failure, nil while everything decoded.
func (d *Decoder) Err() error { return d.err }

// End reports whether everything decoded and nothing is left.
func (d *Decoder) End() bool { return d.err == nil && d.off == len(d.buf) }

// Rest returns the bytes not yet read; none after a failure.
func (d *Decoder) Rest() []byte { return d.buf[d.off:] }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.off >= len(d.buf) {
		d.Fail(errCorrupt)
		return 0
	}
	d.off++
	return d.buf[d.off-1]
}

// Uvarint reads one minimal uvarint.
func (d *Decoder) Uvarint() uint64 {
	u, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) { // short, overlong or non-minimal
		d.Fail(errCorrupt)
		return 0
	}
	d.off += n
	return u
}

// varint reads one minimal zig-zag varint (binary.AppendVarint).
func (d *Decoder) varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads the number of elements that follow, refusing one the bytes
// left cannot hold, each element taking at least one byte.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)-d.off) {
		d.Fail(errCorrupt)
		return 0
	}
	return int(n)
}

// Field reads one field (AppendField); an empty field is nil.
func (d *Decoder) Field() []byte {
	f := d.span()
	if f.lo == f.hi {
		return nil
	}
	return d.buf[f.lo:f.hi:f.hi]
}

// span reads one field and returns where its bytes lie in buf.
func (d *Decoder) span() span {
	n := d.Count()
	d.off += n
	return span{d.off - n, d.off}
}

// span is where a field's bytes lie in an encoding.
type span struct{ lo, hi int }

// cut returns the field from s, which holds the encoding's bytes from at on.
func (f span) cut(s string, at int) string { return s[f.lo-at : f.hi-at] }

// group reads the three fixed bytes behind an operation's or a result's
// leading varints.
func (d *Decoder) group() (a, b, c byte) {
	if len(d.buf)-d.off < 3 {
		d.Fail(errCorrupt)
		return 0, 0, 0
	}
	g := d.buf[d.off : d.off+3]
	d.off += 3
	return g[0], g[1], g[2]
}
