package base

import (
	"errors"
	"testing"
)

// TestDecoderIsStrict: each read takes exactly the bytes its writer wrote. A
// missing byte, a short, overlong or non-minimal varint, and a count or a
// field longer than what is left fail the decoding; the first failure
// latches and every later read returns zero.
func TestDecoderIsStrict(t *testing.T) {
	for _, c := range []struct {
		name string
		buf  []byte
		read func(d *Decoder) uint64
		want uint64 // when ok
		ok   bool
	}{
		// Every read that succeeds ends its buffer: nothing is left over.
		{"byte", []byte{7}, func(d *Decoder) uint64 { return uint64(d.Byte()) }, 7, true},
		{"byte missing", nil, func(d *Decoder) uint64 { return uint64(d.Byte()) }, 0, false},
		{"uvarint", []byte{0xac, 0x02}, (*Decoder).Uvarint, 300, true},
		{"uvarint zero", []byte{0}, (*Decoder).Uvarint, 0, true},
		{"uvarint widest", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, (*Decoder).Uvarint, 1<<64 - 1, true},
		{"uvarint short", []byte{0xac}, (*Decoder).Uvarint, 0, false},
		{"uvarint empty", nil, (*Decoder).Uvarint, 0, false},
		{"uvarint overlong", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, (*Decoder).Uvarint, 0, false},
		{"uvarint eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, (*Decoder).Uvarint, 0, false},
		{"uvarint non-minimal", []byte{0x85, 0x00}, (*Decoder).Uvarint, 0, false},
		{"uvarint non-minimal zero", []byte{0x80, 0x00}, (*Decoder).Uvarint, 0, false},
		{"varint", []byte{0x03}, func(d *Decoder) uint64 { return uint64(d.varint()) }, ^uint64(1), true},
		{"varint non-minimal", []byte{0x83, 0x00}, func(d *Decoder) uint64 { return uint64(d.varint()) }, 0, false},
		{"count", []byte{2, 0, 0}, countBytes, 2, true},
		{"count past the end", []byte{3, 0, 0}, countBytes, 0, false},
		{"count no buffer can back", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}, countBytes, 0, false},
		{"field", []byte{2, 'a', 'b'}, func(d *Decoder) uint64 { return uint64(len(d.Field())) }, 2, true},
		{"field past the end", []byte{3, 'a', 'b'}, func(d *Decoder) uint64 { return uint64(len(d.Field())) }, 0, false},
		{"field of a non-minimal length", []byte{0x82, 0x00, 'a', 'b'}, func(d *Decoder) uint64 { return uint64(len(d.Field())) }, 0, false},
	} {
		d := NewDecoder(c.buf)
		got := c.read(&d)
		if c.ok != d.End() || got != c.want {
			t.Errorf("%s: %x read %d, end %v (%v); want %d, end %v", c.name, c.buf, got, d.End(), d.Err(), c.want, c.ok)
		}
		if !c.ok && (d.Err() == nil || len(d.Rest()) != 0 || d.Uvarint() != 0 || d.Byte() != 0 || d.Field() != nil) {
			t.Errorf("%s: a failed decoding reads on: err %v, %d bytes left", c.name, d.Err(), len(d.Rest()))
		}
	}
}

// countBytes reads a count and that many bytes.
func countBytes(d *Decoder) uint64 {
	n := d.Count()
	for range n {
		d.Byte()
	}
	return uint64(n)
}

// TestDecoderLatchesTheFirstFailure: Fail keeps the first error, whether a
// read or a caller failed the decoding, and skips the rest of the buffer.
func TestDecoderLatchesTheFirstFailure(t *testing.T) {
	first := errors.New("first")
	d := NewDecoder([]byte{1, 2, 3})
	if d.Byte(); d.End() || d.Err() != nil || len(d.Rest()) != 2 {
		t.Fatalf("after one byte: end %v, err %v, rest %x", d.End(), d.Err(), d.Rest())
	}
	d.Fail(first)
	d.Fail(errors.New("second"))
	if d.Byte(); d.Err() != first || len(d.Rest()) != 0 {
		t.Fatalf("err %v, rest %x; want the first failure and nothing left", d.Err(), d.Rest())
	}
	d = NewDecoder([]byte{0x80})
	d.Uvarint()
	if d.Fail(first); !errors.Is(d.Err(), errCorrupt) {
		t.Fatalf("a caller's failure replaced the read's: %v", d.Err())
	}
}

// TestDecoderFieldsAliasTheBuffer: a field is the buffer's bytes, its
// capacity clipped; an empty field is nil.
func TestDecoderFieldsAliasTheBuffer(t *testing.T) {
	data := append(AppendField(AppendField(nil, "ab"), []byte{}), 'z')
	d := NewDecoder(data)
	f, empty := d.Field(), d.Field()
	if string(f) != "ab" || cap(f) != len(f) || empty != nil || string(d.Rest()) != "z" {
		t.Fatalf("field %q (cap %d), empty %v, rest %q", f, cap(f), empty, d.Rest())
	}
	data[1] = 'X'
	if string(f) != "Xb" {
		t.Fatalf("field %q does not alias the buffer", f)
	}
}
