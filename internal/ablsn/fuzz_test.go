package ablsn

import (
	"bytes"
	"testing"
)

// FuzzDecodeTable: no bytes make DecodeTable panic, and whatever it accepts
// encodes to something that decodes to the same table
// with the same bytes left over. Two seeds spell a varint over-long — an LSN
// delta, a TC — which Append writes short and DecodeTable refuses. The
// checked-in corpus (testdata/fuzz/FuzzDecodeTable) is the tables of the
// leaves in package page's FuzzDecode corpus.
func FuzzDecodeTable(f *testing.F) {
	var empty, one Table
	one.Ensure(7).Add(300)
	one.Ensure(7).Add(9)
	f.Add(empty.Append(nil))
	f.Add(append(one.Append(nil), "rest"...))
	f.Add([]byte{1, 1, 0, 5, 1, 0x85, 0x00}) // TC 1: <0, {5}>, max 5, the 5 in two bytes
	f.Add([]byte{1, 0x81, 0x00, 0, 5, 1, 5}) // the same table, TC 1 in two bytes
	f.Fuzz(func(t *testing.T, buf []byte) {
		tab, rest, err := DecodeTable(buf)
		if err != nil {
			return
		}
		enc := tab.Append(nil)
		again, left, err := DecodeTable(append(enc, rest...))
		if err != nil {
			t.Fatalf("the encoding of a decoded table does not decode: %v\nbytes %x\nagain %x", err, buf, enc)
		}
		if !bytes.Equal(again.Append(nil), enc) || !bytes.Equal(left, rest) {
			t.Fatalf("decode, encode, decode is not a fixed point\nbytes %x\nagain %x", buf, enc)
		}
	})
}

// TestDecodeTableIsStrict: a table decodes only from the bytes Append
// writes. A non-minimal varint in any of its fields is refused, and so is a
// count of entries or of LSNs reaching past the end.
func TestDecodeTableIsStrict(t *testing.T) {
	good := []byte{1, 1, 0, 5, 1, 5} // TC 1: <0, {5}>, max 5
	if tab, rest, err := DecodeTable(good); err != nil || len(rest) != 0 || !tab.Get(1).Contains(5) {
		t.Fatalf("the well-formed table: %v, %x, %v", tab, rest, err)
	}
	for name, buf := range map[string][]byte{
		"count non-minimal":        {0x81, 0x00, 1, 0, 5, 1, 5},
		"tc non-minimal":           {1, 0x81, 0x00, 0, 5, 1, 5},
		"low non-minimal":          {1, 1, 0x80, 0x00, 5, 1, 5},
		"max non-minimal":          {1, 1, 0, 0x85, 0x00, 1, 5},
		"lsn count non-minimal":    {1, 1, 0, 5, 0x81, 0x00, 5},
		"lsn delta non-minimal":    {1, 1, 0, 5, 1, 0x85, 0x00},
		"entry count past the end": {9, 1, 0, 5, 1, 5},
		"lsn count past the end":   {1, 1, 0, 5, 9, 5},
	} {
		if tab, _, err := DecodeTable(buf); err == nil {
			t.Errorf("%s: %x decoded to %v", name, buf, tab)
		}
	}
}
