package page

import (
	"bytes"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// FuzzDecode: no image makes Decode panic or write to it, and whatever it
// accepts encodes to an image that decodes to the same page, with the size it
// summed while decoding equal to the walk (walkedSize); a lone base image of a
// leaf encodes to its very bytes. DecodeInto, into a page recycled from
// another image — a leaf with history and two TCs' abstract LSNs, or a
// branch — and still carrying Dirty, FirstDirty and RecDLSN, must agree with
// Decode: the same page, none of the old one's state, and the same verdict on
// a corrupt image. The checked-in
// corpus (testdata/fuzz/FuzzDecode) is the catalog, three branches and five
// two-TC leaves of btree.TestForwardMatchesRedo's seed-1 forest, 500
// operations in; the seeds added here carry what that forest's records do
// not: before versions, history and tombstones, delta frames after a base,
// frames whose records take two-byte lengths and history, and a base whose
// keys do not ascend, and one whose record count is a non-minimal varint.
func FuzzDecode(f *testing.F) {
	versioned := benchLeaf(3, true)
	// A before version over older history, a null before version, a
	// tombstone head over history and a tombstone before version.
	versioned.Put(Record{Key: "w", Owner: 2, Flags: FlagHasBefore, Value: []byte("new"),
		Hist: []Version{{TS: 1, Val: []byte("older")}, {TS: 4, Val: []byte("old")}}})
	versioned.Put(Record{Key: "x", Owner: 2, Flags: FlagHasBefore, Value: []byte("ins"), Hist: []Version{{Del: true}}})
	versioned.Put(Record{Key: "y", Owner: 1, Flags: FlagTombstone, TS: 8, Hist: []Version{{TS: 2, Val: []byte("v")}, {TS: 6, Del: true}}})
	versioned.Put(Record{Key: "z", Owner: 1, Flags: FlagHasBefore, Value: []byte("again"), TS: 9,
		Hist: []Version{{TS: 3, Val: []byte("v")}, {TS: 7, Del: true}}})
	versioned.Ab.Ensure(2).Add(3)
	branch := NewBranch(9, []string{"g", "m"}, []base.PageID{1, 2, 3})
	f.Add(versioned.Encode())
	f.Add(NewLeaf(1).Encode())
	f.Add(branch.Encode())
	// A chain of two frames, the same with its last frame torn, a frame that
	// removes a key twice and a frame after a branch.
	chain, _ := chainOf(f, versioned,
		func(q *Page) {
			q.Remove("w")
			q.Put(Record{Key: "a", Owner: 2, Flags: FlagHasBefore, TS: 12, Value: []byte("v2"), Hist: []Version{{TS: 3, Val: []byte("v1")}}})
		},
		func(q *Page) {
			setValue(q, "x", "again")
			q.Ab.Ensure(1).Add(40)
		})
	f.Add(chain)
	f.Add(chain[:len(chain)-1])
	f.Add(append(versioned.Encode(), removesTwice(versioned, "y")...))
	f.Add(append(branch.Encode(), frameOf(NewLeaf(9))...))
	// A frame whose records take two-byte lengths and history: a key and a
	// value of over 128 bytes, a before version over history decoded into
	// its slot, and a tombstone head inserted among them.
	long := strings.Repeat("long", 38)
	chain, _ = chainOf(f, versioned, func(q *Page) {
		q.Put(Record{Key: "k" + long, Owner: 1, Value: []byte(long), TS: 5, Hist: []Version{{TS: 2, Val: []byte(long)}}})
		r := *q.Get("z")
		r.Stage(11, 0)
		r.Value = []byte(long)
		q.Replace(q.Get("z"), r)
		q.Put(Record{Key: "x0", Owner: 2, Flags: FlagTombstone, TS: 6, Hist: []Version{{TS: 1, Val: []byte("v")}}})
	})
	f.Add(chain)
	// A base of keys b, a, a, which is corrupt (TestBaseKeysAscend).
	unordered := leafWith("a", "b")
	unordered.Recs = []Record{unordered.Recs[1], unordered.Recs[0], unordered.Recs[0]}
	f.Add(unordered.Encode())
	// A one-record leaf whose record count 01 is written 81 00.
	one := leafWith("a")
	image := one.Encode()
	at := len(one.appendHeader(nil)) + len(one.Ab.Append(nil))
	if image[at] != 1 {
		f.Fatalf("the record count of %x is not at %d", image, at)
	}
	f.Add(append(append(image[:at:at], 0x81, 0x00), image[at+1:]...))
	olds := [][]byte{versioned.Encode(), branch.Encode()}
	f.Fuzz(func(t *testing.T, image []byte) {
		pristine := bytes.Clone(image)
		p, err := Decode(image)
		for _, old := range olds {
			recycled := usedPage(t, old)
			if errInto := DecodeInto(recycled, image); (errInto == nil) != (err == nil) {
				t.Fatalf("Decode says %v, DecodeInto a used page %v\nimage %x", err, errInto, image)
			} else if err == nil {
				if !recycled.Equal(p) {
					t.Fatalf("DecodeInto a used page differs from Decode\nimage %x\ninto  %x", image, recycled.Encode())
				}
				if got, want := recycled.Size(), walkedSize(recycled); got != want {
					t.Fatalf("DecodeInto a used page: Size %d, the walk %d\nimage %x", got, want, image)
				}
				if recycled.Dirty || len(recycled.FirstDirty) != 0 || recycled.RecDLSN != 0 {
					t.Fatalf("DecodeInto kept the used page's bookkeeping: dirty %v first dirty %v rec dLSN %d",
						recycled.Dirty, recycled.FirstDirty, recycled.RecDLSN)
				}
				if recycled.Leaf && (recycled.Keys != nil || recycled.Children != nil) || !recycled.Leaf && recycled.Recs != nil {
					t.Fatalf("DecodeInto kept the used page's other payload: leaf %v, %d records, %d keys, %d children",
						recycled.Leaf, len(recycled.Recs), len(recycled.Keys), len(recycled.Children))
				}
			}
		}
		if !bytes.Equal(image, pristine) {
			t.Fatalf("decoding wrote to the image\nwas %x\nnow %x", pristine, image)
		}
		if err != nil {
			return
		}
		if got, want := p.Size(), walkedSize(p); got != want {
			t.Fatalf("Size %d, the walk %d\nimage %x", got, want, image)
		}
		again := p.Encode()
		if _, base := p.Chain(); base == len(image) && !bytes.Equal(again, image) {
			t.Fatalf("a base image decodes from bytes its encoder never writes\nimage %x\nagain %x", image, again)
		}
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

// usedPage is the page image decodes to after a cache has used it: dirty, a
// FirstDirty entry per TC of its table and a RecDLSN.
func usedPage(t *testing.T, image []byte) *Page {
	p, err := Decode(image)
	if err != nil {
		t.Fatal(err)
	}
	p.Dirty, p.RecDLSN = true, 5
	p.FirstDirty = map[base.TCID]base.LSN{}
	for i := 0; i < p.Ab.Len(); i++ {
		tc, _ := p.Ab.At(i)
		p.FirstDirty[tc] = 7
	}
	p.FirstDirty[3] = 9
	return p
}
