package tc

import (
	"bytes"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// FuzzDecodePayloads feeds every TC-log payload decoder the same bytes. None
// may panic, and what one accepts is exactly one payload: it re-encodes to
// the bytes it was decoded from. The seeds are the encoders' own output —
// an op payload of every kind and flag, with keys and values of several
// lengths, a versioned one with no timestamp of its own, lengths either side
// of a length prefix's second byte — and every strict prefix of it (a torn
// payload).
func FuzzDecodePayloads(f *testing.F) {
	type reencoder func([]byte) ([]byte, bool)
	type seed struct {
		payload  []byte
		reencode reencoder
	}
	var seeds []seed
	for _, kind := range []base.OpKind{base.OpInsert, base.OpUpdate, base.OpDelete, base.OpUpsert} {
		for _, versioned := range []bool{false, true} {
			for _, kv := range [][2]string{{"k", ""}, {"k", "new"}, {"c0/k0000001", "a value of forty bytes, give or take one"}} {
				op := &base.Op{TC: 1, Kind: kind, Table: "t", Key: kv[0], Value: []byte(kv[1]), Versioned: versioned}
				seeds = append(seeds, seed{base.AppendOpPayload(nil, op), reencodeOp})
			}
		}
	}
	seeds = append(seeds,
		seed{base.AppendOpPayload(nil, &base.Op{Kind: base.OpUpsert, Table: "kv", Key: "c0/k0000001", Value: make([]byte, 200)}), reencodeOp},
		seed{base.AppendOpPayload(nil, &base.Op{Kind: base.OpUpsert, Table: "kv", Key: "c0/k0000001", Value: make([]byte, 64), Versioned: true}), reencodeOp},
		// 127 fits a one-byte length prefix, 128 needs two, 300 two with a
		// high byte past one.
		seed{base.AppendOpPayload(nil, &base.Op{Kind: base.OpUpsert, Table: "kv", Key: strings.Repeat("k", 128), Value: make([]byte, 128)}), reencodeOp},
		seed{base.AppendOpPayload(nil, &base.Op{Kind: base.OpInsert, Table: "kv", Key: strings.Repeat("k", 127), Value: make([]byte, 300), Versioned: true}), reencodeOp},
		seed{appendCommit(nil, 909), reencodeCommit},
		seed{appendCommit(nil, 1<<50), reencodeCommit},
		seed{appendCommit(nil, 0), reencodeCommit}, // an unversioned commit
		seed{encodeCheckpoint(12345, 7), reencodeCheckpoint},
		seed{encodeEpoch(42), reencodeEpoch},
	)
	for _, seed := range seeds {
		if enc, ok := seed.reencode(seed.payload); !ok || !bytes.Equal(enc, seed.payload) {
			f.Fatalf("an encoder's output re-encodes differently (decoded: %v):\n%x\n%x", ok, seed.payload, enc)
		}
		for n := 0; n <= len(seed.payload); n++ {
			f.Add(seed.payload[:n])
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // a count no buffer can back
	f.Add([]byte{byte(base.OpDelete), 1, 't', 0x81, 0x00})                    // a non-minimal length
	f.Add([]byte{byte(base.OpDelete) | 1<<6, 1, 't', 1, 'k'})                 // a head bit no encoder sets
	f.Add([]byte{byte(base.OpDelete) | 1<<4 | 1<<5, 1, 't', 1, 'k', 9})       // a timestamp behind the earlier format's flag, beside the Versioned bit
	f.Add([]byte{byte(base.OpDelete), 1, 't', 1, 'k', 0})                     // a byte past the end
	all := map[string]reencoder{
		"op": reencodeOp, "commit": reencodeCommit, "checkpoint": reencodeCheckpoint, "epoch": reencodeEpoch,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, reencode := range all {
			if enc, ok := reencode(data); ok && !bytes.Equal(enc, data) {
				t.Fatalf("%s: decoded %x, re-encoded %x", name, data, enc)
			}
		}
	})
}

func reencodeOp(data []byte) ([]byte, bool) {
	op, err := base.DecodeOpPayload(data)
	if err != nil {
		return nil, false
	}
	return base.AppendOpPayload(nil, op), true
}

func reencodeCommit(data []byte) ([]byte, bool) {
	ts, err := decodeCommit(data)
	if err != nil {
		return nil, false
	}
	return appendCommit(nil, ts), true
}

func reencodeCheckpoint(data []byte) ([]byte, bool) {
	rssp, epoch, err := decodeCheckpoint(data)
	if err != nil {
		return nil, false
	}
	return encodeCheckpoint(rssp, epoch), true
}

func reencodeEpoch(data []byte) ([]byte, bool) {
	epoch, err := decodeEpoch(data)
	if err != nil {
		return nil, false
	}
	return encodeEpoch(epoch), true
}
