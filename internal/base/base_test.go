package base

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOpKindStrings(t *testing.T) {
	for k := OpNone; k < opRetired; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
	if got := OpKind(200).String(); got != "OpKind(200)" {
		t.Fatalf("unknown kind name = %q", got)
	}
}

func TestIsWrite(t *testing.T) {
	writes := []OpKind{OpInsert, OpUpdate, OpDelete, OpUpsert}
	reads := []OpKind{OpRead, OpScanProbe, OpRangeRead, OpNone, opRetired, opRetired + 1}
	for _, k := range writes {
		if !k.IsWrite() {
			t.Errorf("%v should be a write", k)
		}
	}
	for _, k := range reads {
		if k.IsWrite() {
			t.Errorf("%v should not be a write", k)
		}
	}
}

func TestCodeErr(t *testing.T) {
	if CodeOK.Err() != nil {
		t.Fatal("CodeOK must map to nil error")
	}
	if err := fmt.Errorf("op: %w", CodeNotFound.Err()); !errors.Is(err, CodeNotFound.Err()) {
		t.Fatal("a wrapped not-found error is not CodeNotFound's")
	}
	if errors.Is(CodeDuplicate.Err(), CodeNotFound.Err()) {
		t.Fatal("duplicate matched not-found")
	}
}

func TestOpRoundTrip(t *testing.T) {
	ops := []*Op{
		{TC: 1, LSN: 42, Kind: OpInsert, Table: "users", Key: "u1", Value: []byte("v")},
		{TC: 7, LSN: 1 << 40, Kind: OpRangeRead, Table: "r", Key: "a", EndKey: "z", Limit: 100},
		{Kind: OpRead, Table: "t", Key: "k", Flavor: ReadCommitted},
		{TC: 3, LSN: 9, Kind: OpUpdate, Table: "t", Key: "k", Value: nil, Versioned: true},
		{Kind: OpScanProbe, Table: "t", Key: "", Limit: -1},
		{TC: 2, Epoch: 1, LSN: 5, Kind: OpUpsert, Table: "t", Key: "k", Value: []byte("v")},
		{TC: 2, Epoch: 1 << 33, LSN: 5, Kind: OpDelete, Table: "t", Key: "k", Versioned: true},
		{TC: 2, Epoch: 3, LSN: 6, Kind: OpUpsert, Table: "t", Key: "k", Value: []byte("v"), DCInc: 1},
		{TC: 2, Epoch: 3, LSN: 7, Kind: OpUpsert, Table: "t", Key: "k", Versioned: true, TS: 1 << 50, DCInc: 1 << 40},
		{TC: 2, Epoch: 3, LSN: 8, Kind: OpDelete, Table: "t", Key: "k", Versioned: true, TS: 1 << 50},
	}
	for _, o := range ops {
		buf := AppendOp(nil, o)
		got, rest, err := DecodeOp(buf)
		if err != nil {
			t.Fatalf("decode %v: %v", o, err)
		}
		if len(rest) != 0 {
			t.Fatalf("decode %v left %d bytes", o, len(rest))
		}
		if !reflect.DeepEqual(o, got) {
			t.Fatalf("roundtrip mismatch:\n in=%#v\nout=%#v", o, got)
		}
	}
}

// TestDecodeOpRefusesRetiredKind: the numbers the commit-versions finalize
// and the abort-versions rollback held decode to nothing, whatever else the
// frame carries, alone or inside a batch.
func TestDecodeOpRefusesRetiredKind(t *testing.T) {
	for _, o := range []*Op{
		{TC: 1, LSN: 7, Kind: opRetired, Table: "t", Key: "k"},
		{TC: 1, Epoch: 3, LSN: 7, Kind: opRetired, Table: "t", Key: "k", TS: 1 << 50, DCInc: 2},
		{TC: 1, LSN: 7, Kind: opRetired + 1, Table: "t", Key: "k"},
		{TC: 1, Epoch: 3, LSN: 7, Kind: opRetired + 1, Table: "t", Key: "k", Versioned: true},
	} {
		if got, _, err := DecodeOp(AppendOp(nil, o)); err == nil {
			t.Fatalf("DecodeOp accepted the retired kind: %v", got)
		}
		batch := AppendOpBatch(nil, []*Op{{TC: 1, LSN: 6, Kind: OpUpsert, Table: "t", Key: "j"}, o})
		if got, _, err := DecodeOpBatch(batch); err == nil {
			t.Fatalf("DecodeOpBatch accepted the retired kind: %v", got)
		}
	}
	if got := opRetired.String() + (opRetired + 1).String(); got != "OpKind(8)OpKind(9)" {
		t.Fatalf("the retired kinds print %q", got)
	}
}

// legacyAppendOp reproduces the pre-epoch frame layout: no flag bit on the
// kind byte, no epoch varint. Decoders must keep accepting it.
func legacyAppendOp(buf []byte, o *Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(o.TC))
	buf = binary.AppendUvarint(buf, uint64(o.LSN))
	buf = append(buf, byte(o.Kind), byte(o.Flavor), boolByte(o.Versioned))
	buf = appendString(buf, o.Table)
	buf = appendString(buf, o.Key)
	buf = appendString(buf, o.EndKey)
	buf = appendBytes(buf, o.Value)
	buf = binary.AppendVarint(buf, int64(o.Limit))
	return buf
}

func TestOpEpochBackwardCompatibleDecoding(t *testing.T) {
	o := &Op{TC: 4, LSN: 77, Kind: OpUpdate, Table: "t", Key: "k",
		Value: []byte("v"), Limit: 3, Versioned: true}

	// An epoch-zero frame is byte-identical to the legacy frame: old
	// decoders would accept everything a pre-restart sender emits.
	if got, want := AppendOp(nil, o), legacyAppendOp(nil, o); !bytes.Equal(got, want) {
		t.Fatalf("epoch-zero frame differs from legacy frame:\n got %x\nwant %x", got, want)
	}

	// A legacy frame decodes with Epoch zero — including mid-batch, where
	// the decoder cannot rely on "remaining bytes" heuristics.
	stamped := &Op{TC: 4, Epoch: 9, LSN: 78, Kind: OpInsert, Table: "t", Key: "k2"}
	buf := legacyAppendOp(nil, o)
	buf = AppendOp(buf, stamped)
	buf = legacyAppendOp(buf, o)
	first, rest, err := DecodeOp(buf)
	if err != nil || first.Epoch != 0 {
		t.Fatalf("legacy decode: %v epoch=%d", err, first.Epoch)
	}
	second, rest, err := DecodeOp(rest)
	if err != nil || second.Epoch != 9 {
		t.Fatalf("stamped decode: %v epoch=%d", err, second.Epoch)
	}
	third, rest, err := DecodeOp(rest)
	if err != nil || third.Epoch != 0 || len(rest) != 0 {
		t.Fatalf("trailing legacy decode: %v epoch=%d rest=%d", err, third.Epoch, len(rest))
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("legacy frames decoded differently: %#v vs %#v", first, third)
	}
}

// TestOnlyAResendIsStamped: an operation without a DC-incarnation stamp, and
// a result other than CodeStaleDC, encode to the bytes they had before the
// stamp existed; the stamp decodes mid-batch.
func TestOnlyAResendIsStamped(t *testing.T) {
	o := &Op{TC: 4, Epoch: 2, LSN: 77, Kind: OpUpdate, Table: "t", Key: "k", Value: []byte("v"), TS: 9}
	stamped := *o
	stamped.DCInc = 300
	plain, withInc := AppendOp(nil, o), AppendOp(nil, &stamped)
	const at = 7 // TC, LSN, kind, flavor, versioned, epoch, TS: one byte each here
	want := append(append(append([]byte{}, plain[:at]...), binary.AppendUvarint(nil, 300)...), plain[at:]...)
	want[2] |= opDCIncFlag
	if !bytes.Equal(withInc, want) {
		t.Fatalf("stamp encoding:\nplain   %x\nstamped %x\nwant    %x", plain, withInc, want)
	}
	got, rest, err := DecodeOpBatch(AppendOpBatch(nil, []*Op{o, &stamped, o}))
	if err != nil || len(rest) != 0 || got[0].DCInc != 0 || got[1].DCInc != 300 || !reflect.DeepEqual(got[0], got[2]) {
		t.Fatalf("batch decode: %v, %d left, %+v", err, len(rest), got)
	}
	r := &Result{LSN: 3, Code: CodeNotFound, DCInc: 300} // not encoded: only CodeStaleDC carries it
	if dec, _, err := DecodeResult(AppendResult(nil, r)); err != nil || dec.DCInc != 0 {
		t.Fatalf("DCInc leaked onto a %v result: %+v, %v", r.Code, dec, err)
	}
}

func TestOpBatchRoundTripMixedEpochs(t *testing.T) {
	ops := []*Op{
		{TC: 1, Epoch: 2, LSN: 10, Kind: OpInsert, Table: "t", Key: "a", Value: []byte("1")},
		{TC: 1, LSN: 11, Kind: OpDelete, Table: "t", Key: "b"},
		{TC: 1, Epoch: 3, LSN: 12, Kind: OpUpsert, Table: "t", Key: "c", Value: []byte("3")},
	}
	buf := AppendOpBatch(nil, ops)
	got, rest, err := DecodeOpBatch(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("batch decode: %v rest=%d", err, len(rest))
	}
	if !reflect.DeepEqual(ops, got) {
		t.Fatalf("batch mismatch:\n in=%#v\nout=%#v", ops, got)
	}
}

func TestStaleEpochError(t *testing.T) {
	if CodeStaleEpoch.String() != "stale-epoch" {
		t.Fatalf("code name = %q", CodeStaleEpoch.String())
	}
	err := CodeStaleEpoch.Err()
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatal("the direct error is not ErrStaleEpoch")
	}
	if !errors.Is(fmt.Errorf("dc x: fenced: %w", ErrStaleEpoch), ErrStaleEpoch) {
		t.Fatal("a wrapped ErrStaleEpoch is not ErrStaleEpoch")
	}
	if errors.Is(CodeUnavailable.Err(), ErrStaleEpoch) || errors.Is(err, CodeNotFound.Err()) {
		t.Fatal("stale-epoch error conflated with other codes")
	}
}

func TestResultRoundTrip(t *testing.T) {
	rs := []*Result{
		{LSN: 1, Code: CodeOK, Found: true, Value: []byte("x")},
		{LSN: 2, Code: CodeNotFound},
		{LSN: 3, Code: CodeOK, Applied: true},
		{LSN: 4, Code: CodeOK, Keys: []string{"a", "b"}, Values: [][]byte{[]byte("1"), nil}},
		{LSN: 5, Code: CodeDuplicate, Keys: []string{}, Values: [][]byte{}},
		{LSN: 6, Code: CodeStaleDC, DCInc: 1},
		{Code: CodeStaleDC, DCInc: 1 << 40},
	}
	for _, r := range rs {
		buf := AppendResult(nil, r)
		got, rest, err := DecodeResult(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", r, err)
		}
		if len(rest) != 0 {
			t.Fatalf("left %d bytes", len(rest))
		}
		// normalize empty slices produced by decode
		if len(r.Keys) == 0 {
			r.Keys = nil
		}
		if len(r.Values) == 0 {
			r.Values = nil
		}
		if len(got.Keys) == 0 {
			got.Keys = nil
		}
		if len(got.Values) == 0 {
			got.Values = nil
		}
		if !reflect.DeepEqual(r, got) {
			t.Fatalf("roundtrip mismatch:\n in=%#v\nout=%#v", r, got)
		}
	}
}

func TestOpRoundTripQuick(t *testing.T) {
	f := func(tc uint16, epoch, lsn uint64, kind uint8, table, key, end string, val []byte, limit int32, versioned bool) bool {
		o := &Op{
			TC: TCID(tc), Epoch: Epoch(epoch), LSN: LSN(lsn), Kind: OpKind(kind % 10), Table: table,
			Key: key, EndKey: end, Value: val, Limit: limit, Versioned: versioned,
		}
		if len(o.Value) == 0 {
			o.Value = nil
		}
		buf := AppendOp(nil, o)
		got, rest, err := DecodeOp(buf)
		if o.Kind >= opRetired {
			return err != nil
		}
		if err != nil || len(rest) != 0 {
			return false
		}
		return reflect.DeepEqual(o, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	o := &Op{TC: 1, LSN: 99, Kind: OpInsert, Table: "t", Key: "kkkk", Value: bytes.Repeat([]byte("v"), 40)}
	buf := AppendOp(nil, o)
	for i := 0; i < len(buf); i++ {
		if _, _, err := DecodeOp(buf[:i]); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
	r := &Result{LSN: 8, Keys: []string{"a"}, Values: [][]byte{[]byte("zz")}}
	rb := AppendResult(nil, r)
	for i := 0; i < len(rb); i++ {
		if _, _, err := DecodeResult(rb[:i]); err == nil {
			t.Fatalf("result truncation at %d not detected", i)
		}
	}
}

func TestConflictsWith(t *testing.T) {
	w := func(k string) *Op { return &Op{Kind: OpUpdate, Table: "t", Key: k} }
	r := func(k string) *Op { return &Op{Kind: OpRead, Table: "t", Key: k} }
	rng := func(lo, hi string) *Op { return &Op{Kind: OpRangeRead, Table: "t", Key: lo, EndKey: hi} }

	cases := []struct {
		a, b *Op
		want bool
	}{
		{w("k"), w("k"), true},
		{w("k"), w("j"), false},
		{r("k"), r("k"), false},
		{w("k"), r("k"), true},
		{w("k"), r("j"), false},
		{w("k"), rng("a", "z"), true},
		{w("k"), rng("l", "z"), false},
		{rng("a", "m"), rng("l", "z"), false}, // both reads
		{w("k"), &Op{Kind: OpRead, Table: "t", Key: "k", Flavor: ReadCommitted}, false},
		{w("k"), &Op{Kind: OpRead, Table: "t", Key: "k", Flavor: ReadDirty}, false},
		{w("k"), &Op{Kind: OpUpdate, Table: "other", Key: "k"}, false},
		{&Op{Kind: OpScanProbe, Table: "t", Key: "a", EndKey: ""}, w("z"), true}, // open-ended probe
	}
	for i, c := range cases {
		if got := c.a.ConflictsWith(c.b); got != c.want {
			t.Errorf("case %d: conflict(%v,%v)=%v want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.ConflictsWith(c.a); got != c.want {
			t.Errorf("case %d (sym): conflict=%v want %v", i, got, c.want)
		}
	}
}

func BenchmarkOpEncode(b *testing.B) {
	o := &Op{TC: 1, LSN: 12345, Kind: OpUpdate, Table: "reviews", Key: "m000123/u000456", Value: bytes.Repeat([]byte("x"), 100)}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendOp(buf[:0], o)
	}
}

func BenchmarkOpDecode(b *testing.B) {
	o := &Op{TC: 1, LSN: 12345, Kind: OpUpdate, Table: "reviews", Key: "m000123/u000456", Value: bytes.Repeat([]byte("x"), 100)}
	buf := AppendOp(nil, o)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeOp(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFootprintOverlapRandomized(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	keys := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 2000; i++ {
		k1 := keys[rnd.Intn(len(keys))]
		k2 := keys[rnd.Intn(len(keys))]
		a := &Op{Kind: OpUpdate, Table: "t", Key: k1}
		lo := keys[rnd.Intn(len(keys))]
		hi := keys[rnd.Intn(len(keys))]
		if hi < lo {
			lo, hi = hi, lo
		}
		b := &Op{Kind: OpRangeRead, Table: "t", Key: lo, EndKey: hi}
		want := lo <= k1 && k1 < hi
		if got := a.ConflictsWith(b); got != want {
			t.Fatalf("point %q vs range [%q,%q): got %v want %v", k1, lo, hi, got, want)
		}
		_ = k2
	}
}

// TestDecodeAliasesItsBytes: a decoded operation's Value, and a decoded
// result's Value and Values, are the bytes they were decoded from, their
// capacities clipped; strings are copies that outlive the bytes.
func TestDecodeAliasesItsBytes(t *testing.T) {
	buf := AppendOp(nil, &Op{TC: 1, LSN: 2, Kind: OpUpsert, Table: "tbl", Key: "key", EndKey: "end", Value: []byte("value")})
	o, _, err := DecodeOp(buf)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := DecodeResult(AppendResult(nil, &Result{Value: []byte("v"), Keys: []string{"a", "b"}, Values: [][]byte{[]byte("x")}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{o.Value, r.Value, r.Values[0]} {
		if cap(b) != len(b) {
			t.Fatalf("decoded %q has capacity %d past its length", b, cap(b))
		}
	}
	copy(buf, bytes.Repeat([]byte{'#'}, len(buf)))
	if string(o.Value) != "#####" {
		t.Fatalf("Value %q does not alias the encoding", o.Value)
	}
	if o.Table != "tbl" || o.Key != "key" || o.EndKey != "end" || r.Keys[0] != "a" || r.Keys[1] != "b" {
		t.Fatalf("strings changed with the encoding: %v, %q", o, r.Keys)
	}
}

// TestCodecAllocs: encoding an operation or a batch grows the buffer once,
// to the encoding's exact length, and OpSlab.Decode allocates one string per
// request once its slab has grown: nothing per field or per operation.
func TestCodecAllocs(t *testing.T) {
	ops := []*Op{
		{TC: 1, Epoch: 1 << 20, LSN: 300, Kind: OpUpsert, Table: "t", Key: "k1", Value: []byte("v"), TS: 1 << 40, Limit: -70},
		{TC: 1, LSN: 301, Kind: OpRangeRead, Table: "t", Key: "a", EndKey: "z", Limit: 64, DCInc: 9},
		{Kind: OpRead, Table: "t", Key: "k2"},
	}
	for _, o := range ops {
		if n, want := len(AppendOp(nil, o)), opLen(o); n != want {
			t.Fatalf("%v encodes to %d bytes, opLen says %d", o, n, want)
		}
	}
	body := AppendOpBatch(nil, ops)
	if got := testing.AllocsPerRun(100, func() { AppendOpBatch(nil, ops) }); got != 1 {
		t.Fatalf("AppendOpBatch(nil) = %.1f allocs, want 1", got)
	}
	var slab OpSlab
	if got := testing.AllocsPerRun(100, func() {
		if _, err := slab.Decode(body); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Fatalf("OpSlab.Decode = %.1f allocs, want 1", got)
	}
	got, err := slab.Decode(body)
	if err != nil || !reflect.DeepEqual(got, ops) {
		t.Fatalf("slab decode = %v, %v; want %v", got, err, ops)
	}
}
