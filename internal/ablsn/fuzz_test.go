package ablsn

import (
	"bytes"
	"testing"
)

// FuzzDecodeTable: no bytes make DecodeTable panic, and whatever it accepts
// encodes (in EncodedSize bytes) to something that decodes to the same table
// with the same bytes left over. The checked-in corpus
// (testdata/fuzz/FuzzDecodeTable) is the tables of the leaves in package
// page's FuzzDecode corpus.
func FuzzDecodeTable(f *testing.F) {
	var empty, one Table
	one.Ensure(7).Add(300)
	one.Ensure(7).Add(9)
	f.Add(empty.Append(nil))
	f.Add(append(one.Append(nil), "rest"...))
	f.Fuzz(func(t *testing.T, buf []byte) {
		tab, rest, err := DecodeTable(buf)
		if err != nil {
			return
		}
		enc := tab.Append(nil)
		if tab.EncodedSize() != len(enc) {
			t.Fatalf("EncodedSize %d, encoding %x", tab.EncodedSize(), enc)
		}
		again, left, err := DecodeTable(append(enc, rest...))
		if err != nil {
			t.Fatalf("the encoding of a decoded table does not decode: %v\nbytes %x\nagain %x", err, buf, enc)
		}
		if !bytes.Equal(again.Append(nil), enc) || !bytes.Equal(left, rest) {
			t.Fatalf("decode, encode, decode is not a fixed point\nbytes %x\nagain %x", buf, enc)
		}
	})
}
