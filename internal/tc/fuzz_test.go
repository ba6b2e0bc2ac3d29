package tc

import (
	"bytes"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// FuzzDecodePayloads feeds every TC-log payload decoder the same bytes. None
// may panic, and what one accepts must survive its encoder: the re-encoding
// decodes again and re-encodes to itself. The seeds are the encoders' own
// output, which must re-encode to exactly the seed, and every strict prefix
// of it (a torn payload).
func FuzzDecodePayloads(f *testing.F) {
	type reencoder func([]byte) ([]byte, bool)
	for _, seed := range []struct {
		payload  []byte
		reencode reencoder
	}{
		{appendOpPayload(nil, &base.Op{TC: 1, Kind: base.OpUpdate, Table: "t", Key: "k", Value: []byte("new")}, []byte("old"), true), reencodeOp},
		{appendOpPayload(nil, &base.Op{TC: 2, Kind: base.OpUpsert, Table: "t", Key: "k", Value: []byte("v"), Versioned: true}, nil, false), reencodeOp},
		{appendOpPayload(nil, &base.Op{TC: 1, Kind: base.OpCommitVersions, Table: "t", Key: "k", TS: 1 << 50}, nil, false), reencodeOp},
		{appendCommit(nil, []tableKey{{"a", "k1"}, {"b", "k2"}}, 909), reencodeCommit},
		{appendCommit(nil, []tableKey{{"a", "k1"}}, 0), reencodeCommit}, // the pre-timestamp form
		{appendCommit(nil, nil, 0), reencodeCommit},
		{encodeCheckpoint(12345, 7), reencodeCheckpoint},
		{encodeEpoch(42), reencodeEpoch},
	} {
		if enc, ok := seed.reencode(seed.payload); !ok || !bytes.Equal(enc, seed.payload) {
			f.Fatalf("an encoder's output re-encodes differently (decoded: %v):\n%x\n%x", ok, seed.payload, enc)
		}
		for n := 0; n <= len(seed.payload); n++ {
			f.Add(seed.payload[:n])
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // a count no buffer can back
	all := map[string]reencoder{
		"op": reencodeOp, "commit": reencodeCommit, "checkpoint": reencodeCheckpoint, "epoch": reencodeEpoch,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for name, reencode := range all {
			enc, ok := reencode(data)
			if !ok {
				continue
			}
			enc2, ok := reencode(enc)
			if !ok {
				t.Fatalf("%s: re-encoding of an accepted payload does not decode:\n%x\n%x", name, data, enc)
			}
			if !bytes.Equal(enc, enc2) {
				t.Fatalf("%s: unstable round trip:\n%x\n%x", name, enc, enc2)
			}
		}
	})
}

func reencodeOp(data []byte) ([]byte, bool) {
	op, prior, found, err := decodeOpPayload(data)
	if err != nil {
		return nil, false
	}
	return appendOpPayload(nil, op, prior, found), true
}

func reencodeCommit(data []byte) ([]byte, bool) {
	keys, ts, err := decodeCommit(data)
	if err != nil {
		return nil, false
	}
	return appendCommit(nil, keys, ts), true
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
