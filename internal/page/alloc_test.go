package page

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/cidr09/unbundled/internal/base"
)

// benchLeaf is a leaf of n 64-byte records of one TC, every one with a
// version of history if hist is set.
func benchLeaf(n int, hist bool) *Page {
	p := NewLeaf(1)
	for i := 0; i < n; i++ {
		r := Record{Key: fmt.Sprintf("key%04d", i), Owner: 1, Value: bytes.Repeat([]byte("v"), 64)}
		if hist {
			r.TS, r.Hist = 9, []Version{{TS: 5, Val: []byte("old")}}
		}
		p.Put(r)
	}
	p.Ab.Ensure(1).Add(100)
	return p
}

// TestDecodeAllocsIndependentOfRecords pins what a buffer-pool miss
// allocates: the page, its table and its record array, plus one array of
// versions if there is history, and nothing per record. A decoder that
// copied each field made 103 allocations for 50 records.
func TestDecodeAllocsIndependentOfRecords(t *testing.T) {
	for _, hist := range []bool{false, true} {
		allocs := func(n int) float64 {
			image := benchLeaf(n, hist).Encode()
			return testing.AllocsPerRun(200, func() {
				if _, err := Decode(image); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(10), allocs(100)
		if small != large || large > 6 {
			t.Fatalf("history %v: Decode allocates %.0f times for 10 records and %.0f for 100, want the same few", hist, small, large)
		}
	}
}

// TestSizeAndTableAppendDoNotAllocate: every write asks its page's Size (the
// split test) and every flush appends the table to the image; a Size that
// encoded the table to measure it was a tenth of a transaction's CPU.
func TestSizeAndTableAppendDoNotAllocate(t *testing.T) {
	p := benchLeaf(21, true)
	p.Ab.Ensure(2).Add(7)
	for l := base.LSN(200); l < 240; l += 3 {
		p.Ab.Ensure(1).Add(l)
	}
	var size int
	if got := testing.AllocsPerRun(200, func() { size = p.Size() }); got != 0 {
		t.Fatalf("Size allocates %.0f times", got)
	}
	buf := make([]byte, 0, size)
	if got := testing.AllocsPerRun(200, func() { buf = p.Ab.Append(buf[:0]) }); got != 0 {
		t.Fatalf("Table.Append into a sized buffer allocates %.0f times", got)
	}
	if p.Ab.EncodedSize() != len(buf) {
		t.Fatalf("EncodedSize %d, encoding %d bytes", p.Ab.EncodedSize(), len(buf))
	}
}

// TestDecodeAliasesImage shows both halves of the aliasing contract on one
// page: what Decode returns lies inside the image and is clipped, so growing
// a field moves it out of the image; and a write through an index, which
// nothing stops, lands in the image.
func TestDecodeAliasesImage(t *testing.T) {
	p := leafWith("a", "b")
	p.Recs[0].Before, p.Recs[0].Flags = []byte("old"), FlagHasBefore
	p.Recs[1].TS, p.Recs[1].Hist = 9, []Version{{TS: 5, Val: []byte("hist")}}
	image := p.Encode()
	pristine := bytes.Clone(image)
	got, err := Decode(image)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := &got.Recs[0], &got.Recs[1]
	fields := map[string][]byte{"value": r0.Value, "before": r0.Before, "history": r1.Hist[0].Val,
		"key": unsafe.Slice(unsafe.StringData(r1.Key), len(r1.Key))}
	for name, b := range fields {
		if i := bytes.Index(image, b); i < 0 || &image[i] != &b[0] {
			t.Fatalf("%s is a copy, not a slice of the image", name)
		}
		if name != "key" && cap(b) != len(b) {
			t.Fatalf("%s has capacity %d beyond its length %d: an append would overwrite the next field", name, cap(b), len(b))
		}
	}
	if cap(r1.Hist) != len(r1.Hist) {
		t.Fatal("a record's history is not clipped to its own versions")
	}
	r0.Value = append(r0.Value, "-grown"...)
	r0.Before = append(r0.Before, '!')
	r1.Hist = append(r1.Hist, Version{TS: 7})
	r1.Hist[0].Val = append(r1.Hist[0].Val, '!')
	if !bytes.Equal(image, pristine) {
		t.Fatal("an append to a decoded field wrote into the image")
	}
	// The forbidden write, made visible: this is the stable page changing.
	r1.Value[0] = 'Z'
	if bytes.Equal(image, pristine) {
		t.Fatal("a write through a decoded value did not reach the image: Decode copies")
	}
}

// TestDecodeBoundsCountsByBytes: a corrupt count cannot make Decode allocate
// more than the bytes behind it could hold (a record is at least 5 bytes, a
// history entry at least 3); a megabyte of zeroes behind a count of a fifth
// of a million and one asked for 25 MB of records.
func TestDecodeBoundsCountsByBytes(t *testing.T) {
	header := NewLeaf(1).Encode()
	header = header[:len(header)-1] // drop the record count
	pad := make([]byte, 1<<20)
	oneRecord := append(binary.AppendUvarint(bytes.Clone(header), 1), 1, 'k', 1, FlagHasTS, 0, 0, 0, 0)
	for name, image := range map[string][]byte{
		"records": append(binary.AppendUvarint(bytes.Clone(header), uint64(len(pad)/5+1)), pad...),
		"history": append(binary.AppendUvarint(oneRecord, uint64(len(pad)/3+1)), pad...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(image)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; err == nil || grew > 64<<10 {
			t.Fatalf("%s: err %v after allocating %d bytes", name, err, grew)
		}
	}
	// A count the bytes can hold decodes.
	two := append(binary.AppendUvarint(bytes.Clone(header), 2), 1, 'a', 1, 0, 0, 0, 1, 'b', 1, 0, 0, 0)
	if p, err := Decode(two); err != nil || len(p.Recs) != 2 {
		t.Fatalf("two minimal records: %v %v", p, err)
	}
}
