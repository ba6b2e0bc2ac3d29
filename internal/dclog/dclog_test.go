package dclog

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// payload is what the five record kinds have in common.
type payload interface{ Encode() []byte }

// kinds is one sample record per kind (IDs above 127 so their varints span
// two bytes, and every variable-length field non-empty) with its decoder.
var kinds = []struct {
	kind   uint8
	rec    payload
	decode func([]byte) (payload, error)
}{
	{KindCreateTree, &CreateTree{Table: "kv", RootID: 300, RootImage: []byte("root-image")},
		func(b []byte) (payload, error) { return DecodeCreateTree(b) }},
	{KindSplit, &Split{Table: "kv", Leaf: true, LeftID: 7, RightID: 301, SplitKey: "m",
		RightImage: []byte("right-image"), ParentID: 5, NewRootID: 302},
		func(b []byte) (payload, error) { return DecodeSplit(b) }},
	{KindConsolidate, &Consolidate{Table: "kv", LeftID: 7, RightID: 301, ParentID: 5,
		LeftImage: []byte("left-image")},
		func(b []byte) (payload, error) { return DecodeConsolidate(b) }},
	{KindRootCollapse, &RootCollapse{Table: "kv", OldRootID: 302, NewRootID: 7},
		func(b []byte) (payload, error) { return DecodeRootCollapse(b) }},
	{KindEpochs, &Epochs{Inc: 300, Epochs: []TCEpoch{{TC: 1, Epoch: 3}, {TC: 200, Epoch: base.Epoch(1 << 20)}}},
		func(b []byte) (payload, error) { return DecodeEpochs(b) }},
}

func TestRoundTripAndTruncation(t *testing.T) {
	for _, k := range kinds {
		enc := k.rec.Encode()
		got, err := k.decode(enc)
		if err != nil || !reflect.DeepEqual(got, k.rec) {
			t.Errorf("kind %d: round trip gave %+v, %v; want %+v", k.kind, got, err, k.rec)
		}
		// A torn record — any strict prefix — must be refused, not
		// half-decoded: DC recovery replays whatever decodes.
		for n := 0; n < len(enc); n++ {
			if got, err := k.decode(enc[:n]); err == nil {
				t.Errorf("kind %d: %d of %d bytes decoded to %+v without error", k.kind, n, len(enc), got)
			}
		}
	}
}

// TestDecodeIsStrict: a payload decodes only from the bytes its encoder
// writes. Its first varint (a table name's length, or an epoch snapshot's
// incarnation) spelled one byte longer, a table name or a snapshot's count
// reaching past the end, and a byte after the payload are each refused.
func TestDecodeIsStrict(t *testing.T) {
	for _, k := range kinds {
		enc := k.rec.Encode()
		past, at := bytes.Clone(enc), 0 // the table name's length
		if k.kind == KindEpochs {
			at = 2 // the count, behind the two-byte incarnation
		}
		past[at] = byte(len(enc))
		for name, bad := range map[string][]byte{
			"non-minimal":  nonMinimal(enc),
			"past the end": past,
			"trailing":     append(enc[:len(enc):len(enc)], 0),
		} {
			if got, err := k.decode(bad); err == nil {
				t.Errorf("kind %d, %s: %x decoded to %+v", k.kind, name, bad, got)
			}
		}
	}
}

// nonMinimal spells enc's first varint one byte longer: a continuation bit
// on its last byte, then a zero.
func nonMinimal(enc []byte) []byte {
	_, n := binary.Uvarint(enc)
	out := append(bytes.Clone(enc[:n]), 0)
	out[n-1] |= 0x80
	return append(out, enc[n:]...)
}

// TestEpochsCarryTheIncarnation pins the snapshot a fence-less DC writes at
// every recovery: the incarnation number alone survives a round trip.
func TestEpochsCarryTheIncarnation(t *testing.T) {
	for _, rec := range []*Epochs{{Inc: 1, Epochs: []TCEpoch{}}, {Inc: 1 << 40, Epochs: []TCEpoch{{TC: 3, Epoch: 7}}}} {
		got, err := DecodeEpochs(rec.Encode())
		if err != nil || !reflect.DeepEqual(got, rec) {
			t.Errorf("round trip of %+v gave %+v, %v", rec, got, err)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the decoder of an arbitrary kind: it
// may refuse them but never panic, and whatever it accepts must survive
// its own re-encoding.
func FuzzDecode(f *testing.F) {
	for _, k := range kinds {
		enc := k.rec.Encode()
		for n := 0; n <= len(enc); n++ {
			f.Add(k.kind, enc[:n])
		}
	}
	f.Add(KindEpochs, (&Epochs{Inc: 2}).Encode()) // the snapshot of a DC no TC has registered with
	f.Add(KindSplit, nonMinimal(kinds[1].rec.Encode()))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		k := kinds[int(kind-1)%len(kinds)] // a record kind picks its own decoder; Kind* start at 1
		rec, err := k.decode(data)
		if err != nil {
			return
		}
		again, err := k.decode(rec.Encode())
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("kind %d: %+v re-encodes to %+v, %v", k.kind, rec, again, err)
		}
	})
}
