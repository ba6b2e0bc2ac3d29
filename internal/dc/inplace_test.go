package dc

import (
	"bytes"
	"context"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// TestDecodedOpsOutliveTheirBuffer: a DC's connection reader decodes every
// request in place into one buffer it reuses (base.OpSlab), so an
// operation's Value is the buffer's bytes until the next frame overwrites
// them. The DC must copy whatever it keeps. Every mutating kind runs from
// decoded operations — an insert of a new key and an upsert of an existing
// one, a versioned insert and upsert, a delete and a versioned delete — the
// versioned ones keeping their before versions. Then the buffer is
// overwritten: dirty reads of the heads and committed reads of the before
// versions must still see the original keys and values.
func TestDecodedOpsOutliveTheirBuffer(t *testing.T) {
	ctx := context.Background()
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	h.insert("k-upsert", "old")
	h.insert("k-del", "gone")
	h.insert("k-vups", "v0")
	h.insert("k-vdel", "kept")

	const ts = 10
	op := func(kind base.OpKind, key, val string, versioned bool) *base.Op {
		o := &base.Op{TC: 1, LSN: h.next, Kind: kind, Table: "t", Key: key, Versioned: versioned}
		if val != "" {
			o.Value = []byte(val)
		}
		if versioned {
			o.TS = ts
		}
		h.next++
		return o
	}
	ops := []*base.Op{
		op(base.OpInsert, "n-ins", "ins-val", false),
		op(base.OpUpsert, "k-upsert", "ups-val", false),
		op(base.OpInsert, "n-vins", "vins-val", true),
		op(base.OpUpsert, "k-vups", "vups-val", true),
		op(base.OpDelete, "k-del", "", false),
		op(base.OpDelete, "k-vdel", "", true),
	}
	buf := base.AppendOpBatch(nil, ops)
	var slab base.OpSlab
	decoded, err := slab.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range d.PerformBatch(ctx, decoded) {
		if r.Code != base.CodeOK {
			t.Fatalf("op %d (%v): %v", i, ops[i], r.Code)
		}
	}
	// The next frame on the connection lands where this one was.
	copy(buf, bytes.Repeat([]byte{0xa5}, len(buf)))
	if _, err := slab.Decode(base.AppendOpBatch(nil, []*base.Op{{Kind: base.OpRead, Table: "x", Key: "zz"}})); err != nil {
		t.Fatal(err)
	}

	read := func(key string, epoch base.Epoch) *base.Result {
		return d.Perform(ctx, &base.Op{TC: 1, Epoch: epoch, Kind: base.OpRead, Table: "t", Key: key, Flavor: base.ReadDirty})
	}
	expect := func(when string, epoch base.Epoch, want map[string]string) {
		t.Helper()
		for key, val := range want {
			r := read(key, epoch)
			if val == "" {
				if r.Found {
					t.Fatalf("%s: %q reads %q, want absent", when, key, r.Value)
				}
				continue
			}
			if !r.Found || string(r.Value) != val {
				t.Fatalf("%s: %q reads %q (found %v), want %q", when, key, r.Value, r.Found, val)
			}
		}
	}
	expect("after the overwrite", 0, map[string]string{
		"n-ins": "ins-val", "k-upsert": "ups-val", "n-vins": "vins-val", "k-vups": "vups-val",
		"k-del": "", "k-vdel": "",
	})

	// The versioned writes' commit timestamp is above TC 1's safe timestamp,
	// so a committed read sees the before versions they kept.
	for key, want := range map[string]string{"n-vins": "", "k-vups": "v0", "k-vdel": "kept"} {
		r := d.Perform(ctx, &base.Op{TC: 2, Kind: base.OpRead, Table: "t", Key: key, Flavor: base.ReadCommitted})
		if r.Found != (want != "") || string(r.Value) != want {
			t.Fatalf("committed read of %q: %q (found %v), want %q", key, r.Value, r.Found, want)
		}
	}
}
