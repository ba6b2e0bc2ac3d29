package base

import (
	"bytes"
	"reflect"
	"testing"
)

// The batch codecs are what a DC's connection reader and a TC's waiting call
// hand bytes from the network to. Both targets pin the same property: any
// input either fails to decode, or decodes to a batch whose encoding decodes
// to itself (compared as bytes, which is blind to nil-versus-empty slices).
// The decoders the wire runs, OpSlab.Decode and DecodeResultsInto, must take
// exactly the inputs that decode with nothing left over, and decode them
// alike, DecodeResultsInto over whatever its results held before;
// OpSlab.Decode runs through one slab for every input, as a DC connection's
// reader does. Run with go test -fuzz=FuzzDecodeOpBatch ./internal/base; the
// seed corpus doubles as a regression suite on every ordinary test run.

// DecodeOpBatch is FuzzDecodeOpBatch's oracle for OpSlab.Decode: it parses a
// batch previously produced by AppendOpBatch and returns the remaining bytes.
// The operations alias buf as OpSlab.Decode's do.
func DecodeOpBatch(buf []byte) ([]*Op, []byte, error) {
	var s OpSlab
	ops, n, err := s.decode(buf)
	if err != nil {
		return nil, nil, err
	}
	return ops, buf[n:], nil
}

// DecodeResultBatch is FuzzDecodeResultBatch's oracle for DecodeResultsInto:
// it parses a batch reply previously produced by AppendResultBatch and
// returns the remaining bytes. The results are made by NewResults and alias
// buf, like DecodeResult's.
func DecodeResultBatch(buf []byte) ([]*Result, []byte, error) {
	r := reader{buf: buf}
	rs := NewResults(r.count())
	if r.results(rs); r.err != nil {
		return nil, nil, r.err
	}
	return rs, buf[r.off:], nil
}

func FuzzDecodeOpBatch(f *testing.F) {
	f.Add(AppendOpBatch(nil, []*Op{
		{TC: 1, Epoch: 2, LSN: 10, Kind: OpInsert, Table: "t", Key: "a", Value: []byte("1")},
		{TC: 1, LSN: 11, Kind: OpDelete, Table: "t", Key: "b"},
		{TC: 1, Epoch: 3, LSN: 12, Kind: OpUpsert, Table: "t", Key: "c", Versioned: true, TS: 1 << 50},
		{TC: 2, Epoch: 1, LSN: 13, Kind: OpRangeRead, Table: "t", Key: "a", EndKey: "z", Limit: 32, Flavor: ReadDirty},
		{TC: 2, Epoch: 1, LSN: 14, Kind: OpUpsert, Table: "t", Key: "b", Value: []byte("2"), DCInc: 300},
	}))
	f.Add(AppendOpBatch(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a count no buffer can back
	f.Add(AppendOpBatch(nil, []*Op{{TC: 1, LSN: 15, Kind: opRetired, Table: "t", Key: "c", TS: 9}}))
	f.Add(append(AppendOpBatch(nil, []*Op{{TC: 1, LSN: 16, Kind: OpUpsert, Table: "t", Key: "d", Value: []byte("4")}}), 0))
	f.Add(AppendOpBatch(nil, []*Op{{TC: 1, LSN: 17, Kind: opRetired + 1, Table: "t", Key: "e", Versioned: true}})) // abort-versions
	var slab OpSlab
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, rest, err := DecodeOpBatch(data)
		inPlace, serr := slab.Decode(data)
		if whole := err == nil && len(rest) == 0; whole != (serr == nil) {
			t.Fatalf("OpSlab.Decode err %v, but DecodeOpBatch err %v with %d bytes left", serr, err, len(rest))
		}
		if err != nil {
			return
		}
		if serr == nil && len(ops) > 0 && !reflect.DeepEqual(ops, inPlace) {
			t.Fatalf("the slab decoded otherwise:\n%v\n%v", inPlace, ops)
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		for _, o := range ops {
			if o.Kind >= opRetired {
				t.Fatalf("decoded the retired kind %d: %v", o.Kind, o)
			}
		}
		enc := AppendOpBatch(nil, ops)
		again, rest2, err := DecodeOpBatch(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode of a re-encoded batch: %v, %d bytes left (ops %v)", err, len(rest2), ops)
		}
		if enc2 := AppendOpBatch(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable round trip:\n%x\n%x", enc, enc2)
		}
	})
}

func FuzzDecodeResultBatch(f *testing.F) {
	f.Add(AppendResultBatch(nil, []*Result{
		{LSN: 1, Code: CodeOK, Found: true, Value: []byte("x")},
		{LSN: 2, Code: CodeNotFound},
		{LSN: 3, Code: CodeOK, Applied: true},
		{LSN: 4, Code: CodeOK, Keys: []string{"a", "b"}, Values: [][]byte{[]byte("1"), nil}},
		{LSN: 5, Code: CodeStaleEpoch},
		{LSN: 6, Code: CodeStaleDC, DCInc: 300},
	}))
	f.Add(AppendResultBatch(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(append(AppendResultBatch(nil, []*Result{{LSN: 7, Code: CodeOK, Keys: []string{"k"}}}), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, rest, err := DecodeResultBatch(data)
		if err != nil {
			return
		}
		// Into results a previous answer filled, as a resent call's are.
		into := NewResults(len(rs))
		for _, r := range into {
			*r = Result{Code: CodeStaleDC, DCInc: 9, Value: []byte("old"), Keys: []string{"old"}}
		}
		if ierr := DecodeResultsInto(data, into); (ierr == nil) != (len(rest) == 0) {
			t.Fatalf("DecodeResultsInto err %v with %d bytes left", ierr, len(rest))
		} else if ierr == nil && len(rs) > 0 && !reflect.DeepEqual(rs, into) {
			t.Fatalf("DecodeResultsInto decoded otherwise:\n%v\n%v", into, rs)
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
		}
		enc := AppendResultBatch(nil, rs)
		again, rest2, err := DecodeResultBatch(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode of a re-encoded batch: %v, %d bytes left", err, len(rest2))
		}
		if enc2 := AppendResultBatch(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("unstable round trip:\n%x\n%x", enc, enc2)
		}
	})
}
