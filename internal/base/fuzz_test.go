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
	d := NewDecoder(buf)
	rs := NewResults(d.Count())
	if d.results(rs); d.err != nil {
		return nil, nil, d.err
	}
	return rs, d.Rest(), nil
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
	f.Add([]byte{1, 1, 0xac, 0x82, 0x00, byte(OpUpsert), 0, 0, 1, 't', 1, 'k', 0, 1, 'v', 0})                      // LSN 300 in three bytes, not two
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

// TestDecodeOpBatchIsStrict: a batch decodes only from the bytes
// AppendOpBatch writes. A non-minimal varint anywhere — a count, an id, a
// field's length, the zig-zag limit — is refused, and so is a field or a
// count past the end; a reply's results are read alike.
func TestDecodeOpBatchIsStrict(t *testing.T) {
	part := map[string][]byte{
		"count": {1}, "tc": {1}, "lsn": {0xac, 0x02}, "group": {byte(OpUpsert), 0, 0},
		"table": {1, 't'}, "key": {1, 'k'}, "end": {0}, "value": {1, 'v'}, "limit": {0},
	}
	batch := func(name string, b []byte) []byte {
		var out []byte
		for _, p := range []string{"count", "tc", "lsn", "group", "table", "key", "end", "value", "limit"} {
			if p == name {
				out = append(out, b...)
			} else {
				out = append(out, part[p]...)
			}
		}
		return out
	}
	var slab OpSlab
	if ops, err := slab.Decode(batch("", nil)); err != nil || ops[0].LSN != 300 || string(ops[0].Value) != "v" {
		t.Fatalf("the well-formed batch: %v, %v", ops, err)
	}
	for name, body := range map[string][]byte{
		"count non-minimal":        batch("count", []byte{0x81, 0x00}),
		"tc non-minimal":           batch("tc", []byte{0x81, 0x00}),
		"lsn non-minimal":          batch("lsn", []byte{0xac, 0x82, 0x00}),
		"table length non-minimal": batch("table", []byte{0x81, 0x00, 't'}),
		"limit non-minimal":        batch("limit", []byte{0x80, 0x00}),
		"value past the end":       batch("value", []byte{3, 'v'}),
		"count past the end":       batch("count", []byte{2}),
	} {
		if ops, err := slab.Decode(body); err == nil {
			t.Errorf("%s: %x decoded to %v", name, body, ops)
		}
	}
	reply := AppendResultBatch(nil, []*Result{{LSN: 300, Code: CodeOK, Keys: []string{"k"}}})
	if err := DecodeResultsInto(reply, NewResults(1)); err != nil {
		t.Fatalf("the well-formed reply: %v", err)
	}
	for name, body := range map[string][]byte{
		"result lsn non-minimal":    append([]byte{1, 0xac, 0x82, 0x00}, reply[3:]...),
		"key length non-minimal":    append(reply[:len(reply)-3:len(reply)-3], 0x81, 0x00, 'k', 0),
		"key past the end":          append(reply[:len(reply)-3:len(reply)-3], 5, 'k', 0),
		"values count non-minimal":  append(reply[:len(reply)-1:len(reply)-1], 0x80, 0x00),
		"values count past the end": append(reply[:len(reply)-1:len(reply)-1], 1),
	} {
		if err := DecodeResultsInto(body, NewResults(1)); err == nil {
			t.Errorf("%s: %x decoded", name, body)
		}
	}
}
