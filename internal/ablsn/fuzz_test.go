package ablsn

import (
	"bytes"
	"testing"
)

// FuzzDecodeTable: no bytes make DecodeTable panic, and whatever it accepts
// encodes to something that decodes to the same table
// with the same bytes left over. A seed spells an LSN delta over-long, which
// decodes and which Append writes short. The checked-in corpus
// (testdata/fuzz/FuzzDecodeTable) is the tables of the leaves in package
// page's FuzzDecode corpus.
func FuzzDecodeTable(f *testing.F) {
	var empty, one Table
	one.Ensure(7).Add(300)
	one.Ensure(7).Add(9)
	f.Add(empty.Append(nil))
	f.Add(append(one.Append(nil), "rest"...))
	f.Add([]byte{1, 1, 0, 5, 1, 0x85, 0x00}) // TC 1: <0, {5}>, max 5, the 5 in two bytes
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
