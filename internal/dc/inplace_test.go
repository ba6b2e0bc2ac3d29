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
// one, a versioned insert and upsert, a delete, and an OpAbortVersions — all
// of them unforced, so each leaves an undo entry, the insert one of an
// absent prior. Then the buffer is overwritten: reads, the leaf's undo tail
// and a BeginRestart rollback must still see the original keys and values.
func TestDecodedOpsOutliveTheirBuffer(t *testing.T) {
	ctx := context.Background()
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	h.insert("k-upsert", "old")
	h.insert("k-del", "gone")
	h.insert("k-vups", "v0")
	h.insert("k-abort", "kept")
	h.ack() // the pre-state is forced: the rollback must stop at it
	stable := h.next - 1

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
		op(base.OpUpsert, "k-abort", "aborted", true),
		op(base.OpAbortVersions, "k-abort", "", false),
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
		"k-del": "", "k-abort": "kept",
	})

	// Every batch operation left an entry: its key, and the prior it undoes to.
	priors := map[string]string{}
	absent := map[string]bool{}
	for _, key := range []string{"n-ins", "k-upsert", "n-vins", "k-vups", "k-del", "k-abort"} {
		for _, u := range leafOf(t, d, key).Undo {
			if u.TC != 1 || u.LSN <= stable {
				continue
			}
			absent[u.Prior.Key] = u.Absent
			if !u.Absent {
				v, _ := u.Prior.ReadVersion(base.ReadDirty, 0)
				priors[u.Prior.Key] = string(v)
			}
		}
	}
	for key, want := range map[string]string{"k-upsert": "old", "k-vups": "v0", "k-del": "gone"} {
		if priors[key] != want {
			t.Fatalf("undo entry of %q holds %q, want %q (entries %v)", key, priors[key], want, priors)
		}
	}
	for _, key := range []string{"n-ins", "n-vins"} {
		if a, ok := absent[key]; !ok || !a {
			t.Fatalf("no absent-prior undo entry for %q (entries %v, absent %v)", key, priors, absent)
		}
	}

	// The TC fails with the batch unforced: the DC rolls it back.
	if err := d.BeginRestart(ctx, 1, 2, stable); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRestart(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	expect("after the rollback", 2, map[string]string{
		"n-ins": "", "k-upsert": "old", "n-vins": "", "k-vups": "v0", "k-del": "gone", "k-abort": "kept",
	})
}
