package base

import (
	"bytes"
	"testing"
)

// The batch codecs are what a DC's connection reader and a TC's reply pump
// hand bytes from the network to. Both targets pin the same property: any
// input either fails to decode, or decodes to a batch whose encoding decodes
// to itself (compared as bytes, which is blind to nil-versus-empty slices).
// Run with go test -fuzz=FuzzDecodeOpBatch ./internal/base; the seed corpus
// doubles as a regression suite on every ordinary test run.

func FuzzDecodeOpBatch(f *testing.F) {
	f.Add(AppendOpBatch(nil, []*Op{
		{TC: 1, Epoch: 2, LSN: 10, Kind: OpInsert, Table: "t", Key: "a", Value: []byte("1")},
		{TC: 1, LSN: 11, Kind: OpDelete, Table: "t", Key: "b"},
		{TC: 1, Epoch: 3, LSN: 12, Kind: OpCommitVersions, Table: "t", Key: "c", TS: 1 << 50},
		{TC: 2, Epoch: 1, LSN: 13, Kind: OpRangeRead, Table: "t", Key: "a", EndKey: "z", Limit: 32, Flavor: ReadDirty},
	}))
	f.Add(AppendOpBatch(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // a count no buffer can back
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, rest, err := DecodeOpBatch(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest grew: %d > %d", len(rest), len(data))
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
	}))
	f.Add(AppendResultBatch(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, rest, err := DecodeResultBatch(data)
		if err != nil {
			return
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
