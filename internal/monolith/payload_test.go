package monolith

import (
	"bytes"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// TestDecodeOpPayloadIsStrict: an op payload decodes only from the bytes
// encodeOpPayload writes: a byte past the found flag, or a flag other than
// 0 or 1, is refused.
func TestDecodeOpPayloadIsStrict(t *testing.T) {
	op := &base.Op{Kind: base.OpUpsert, Table: "t", Key: "k", Value: []byte("v")}
	payload := encodeOpPayload(7, op, []byte("prior"), true)
	pid, got, prior, found, err := decodeOpPayload(payload)
	if err != nil || pid != 7 || got.Key != "k" || string(prior) != "prior" || !found {
		t.Fatalf("the payload decodes as page %d, %v, %q, %v (%v)", pid, got, prior, found, err)
	}
	if _, _, _, _, err := decodeOpPayload(append(bytes.Clone(payload), 0)); err == nil {
		t.Fatal("a payload with a byte past its found flag decoded")
	}
	flag := bytes.Clone(payload)
	flag[len(flag)-1] = 2
	if _, _, _, _, err := decodeOpPayload(flag); err == nil {
		t.Fatal("a payload whose found flag is 2 decoded")
	}
}

// FuzzDecodeOpPayload: any input either fails to decode, or decodes to a
// payload whose encoding decodes to itself (compared as bytes, which is
// blind to nil-versus-empty slices and to the LSN, which the encoding
// zeroes). It never panics.
func FuzzDecodeOpPayload(f *testing.F) {
	ops := []struct {
		op    base.Op
		prior string
		found bool
	}{
		{base.Op{Kind: base.OpUpsert, Table: "t", Key: "k", Value: []byte("v")}, "prior", true},
		{base.Op{Kind: base.OpDelete, Table: "t", Key: "gone"}, "", false},
		{base.Op{Kind: base.OpInsert, Table: "kv", Key: "k", Value: []byte("1"), Versioned: true, TS: 1 << 40}, "", true},
	}
	for _, c := range ops {
		payload := encodeOpPayload(3, &c.op, []byte(c.prior), c.found)
		f.Add(payload)
		f.Add(append(bytes.Clone(payload), 1)) // a byte past the flag
		flag := bytes.Clone(payload)
		flag[len(flag)-1] = 0xff
		f.Add(flag)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		pid, op, prior, found, err := decodeOpPayload(payload)
		if err != nil {
			return
		}
		enc := encodeOpPayload(pid, op, prior, found)
		pid2, op2, prior2, found2, err := decodeOpPayload(enc)
		if err != nil {
			t.Fatalf("the re-encoding of an accepted payload fails: %v", err)
		}
		if pid2 != pid || !bytes.Equal(prior2, prior) || found2 != found {
			t.Fatalf("page %d, prior %q, found %v re-decoded as %d, %q, %v", pid, prior, found, pid2, prior2, found2)
		}
		if again := encodeOpPayload(pid2, op2, prior2, found2); !bytes.Equal(again, enc) {
			t.Fatalf("unstable round trip:\n%x\n%x", enc, again)
		}
	})
}
