package page

import (
	"bytes"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// FuzzDecode: no image makes Decode panic or write to it, and whatever it
// accepts encodes to an image that decodes to the same page. The checked-in
// corpus (testdata/fuzz/FuzzDecode) is the catalog, three branches and five
// two-TC leaves of btree.TestForwardMatchesRedo's seed-1 forest, 500
// operations in; the seeds added here carry what that forest's records do
// not: before versions, history and tombstones.
func FuzzDecode(f *testing.F) {
	versioned := benchLeaf(3, true)
	versioned.Put(Record{Key: "w", Owner: 2, Flags: FlagHasBefore, Value: []byte("new"), Before: []byte("old"), BeforeTS: 4})
	versioned.Put(Record{Key: "x", Owner: 2, Flags: FlagHasBefore | FlagBeforeNull, Value: []byte("ins")})
	versioned.Put(Record{Key: "y", Owner: 1, Flags: FlagTombstone, TS: 8, Hist: []Version{{TS: 2, Val: []byte("v")}, {TS: 6, Del: true}}})
	versioned.Ab.Ensure(2).Add(3)
	f.Add(versioned.Encode())
	f.Add(NewLeaf(1).Encode())
	f.Add(NewBranch(9, []string{"g", "m"}, []base.PageID{1, 2, 3}).Encode())
	f.Fuzz(func(t *testing.T, image []byte) {
		pristine := bytes.Clone(image)
		p, err := Decode(image)
		if err != nil {
			return
		}
		again := p.Encode()
		q, err := Decode(again)
		if err != nil {
			t.Fatalf("the encoding of a decoded page does not decode: %v\nimage %x\nagain %x", err, image, again)
		}
		if !q.Equal(p) {
			t.Fatalf("decode, encode, decode is not a fixed point\nimage %x\nagain %x", image, again)
		}
		if !bytes.Equal(image, pristine) {
			t.Fatalf("decoding and encoding wrote to the image\nwas %x\nnow %x", pristine, image)
		}
	})
}
