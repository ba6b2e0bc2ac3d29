package page

import (
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

func undoLSNs(p *Page) []base.LSN {
	var out []base.LSN
	for _, u := range p.Undo {
		out = append(out, u.LSN)
	}
	return out
}

// TestUndoTailFollowsItsKeys: a split hands every undo entry to the half its
// key went to, and a consolidation hands both tails to the merged page, each
// in the order it had. The tail is no part of the page's image or size.
func TestUndoTailFollowsItsKeys(t *testing.T) {
	p := leafWith("a", "b", "c", "d", "e", "f")
	for i, k := range []string{"f", "a", "d", "c", "e"} {
		p.Undo = append(p.Undo, Undo{TC: base.TCID(1 + i%2), LSN: base.LSN(i + 1), Prior: Record{Key: k}})
	}
	plain := p.Clone()
	if !plain.Equal(p) || plain.Size() != p.Size() {
		t.Fatal("the undo tail shows in the page's image or size")
	}
	splitKey, right := splitAs(t, p, 2)
	if splitKey != "d" {
		t.Fatalf("splitKey = %q", splitKey)
	}
	if l, r := fmt.Sprint(undoLSNs(p)), fmt.Sprint(undoLSNs(right)); l != "[2 4]" || r != "[1 3 5]" {
		t.Fatalf("split handed the entries out as left %s, right %s; want [2 4] (a, c) and [1 3 5] (f, d, e)", l, r)
	}
	m := p.Merged(right)
	if got := fmt.Sprint(undoLSNs(m)); got != "[2 4 1 3 5]" {
		t.Fatalf("merged tail = %s", got)
	}
	if len(p.Undo) != 2 || len(right.Undo) != 3 {
		t.Fatal("Merged changed an input's tail")
	}
	p.SetContents(m)
	if got := fmt.Sprint(undoLSNs(p)); got != "[2 4 1 3 5]" {
		t.Fatalf("tail after SetContents = %s", got)
	}
}

// TestRollBackUndoesNewestFirst: one TC's operations above its stable LSN are
// undone newest first — a removed record comes back, an inserted one goes
// (after its own later update is undone), an updated one gets its oldest lost
// value back, a versioned write loses its in-flight version — while its
// stable operation and another TC's unstable one stay, with their entries.
func TestRollBackUndoesNewestFirst(t *testing.T) {
	p := NewLeaf(1)
	p.Put(Record{Key: "del", Owner: 1, Value: []byte("d0")})
	p.Put(Record{Key: "stable-del", Owner: 1, Value: []byte("s0")})
	p.Put(Record{Key: "tc2", Owner: 2, Value: []byte("t0")})
	p.Put(Record{Key: "upd", Owner: 1, Value: []byte("u0")})
	p.Put(Record{Key: "ver", Owner: 1, Value: []byte("v0"), TS: 5})
	p.Ab.Ensure(1).Add(3)
	p.Ab.Ensure(2).Add(4)
	want := p.Clone()
	apply := func(tc base.TCID, lsn base.LSN, key string, fn func()) {
		u := Undo{TC: tc, LSN: lsn}
		if r := p.Get(key); r != nil {
			u.Prior = *r
		} else {
			u.Absent, u.Prior.Key = true, key
		}
		fn()
		p.Undo = append(p.Undo, u)
		p.Ab.Ensure(tc).Add(lsn)
	}
	apply(1, 10, "stable-del", func() { p.Remove("stable-del") })
	apply(1, 11, "del", func() { p.Remove("del") })
	apply(1, 12, "ins", func() { p.Put(Record{Key: "ins", Owner: 1, Value: []byte("i1")}) })
	apply(1, 13, "upd", func() { p.Get("upd").Value = []byte("u1") })
	apply(2, 14, "tc2", func() { p.Get("tc2").Value = []byte("t1") })
	apply(1, 15, "upd", func() { p.Get("upd").Value = []byte("u2") })
	apply(1, 16, "ver", func() {
		r := p.Get("ver")
		r.Before, r.BeforeTS, r.Flags = r.Value, r.TS, r.Flags|FlagHasBefore
		r.Value, r.TS = []byte("v1"), 0
	})
	apply(1, 17, "ins", func() { p.Get("ins").Value = []byte("i2") })

	if n := p.RollBack(1, 10); n != 6 {
		t.Fatalf("RollBack undid %d operations, want 6 (LSNs 11-13 and 15-17)", n)
	}
	want.Remove("stable-del")
	want.Get("tc2").Value = []byte("t1")
	want.Ab.Ensure(1).Add(10)
	want.Ab.Ensure(2).Add(14)
	if !p.Equal(want) {
		t.Fatalf("after RollBack: %v %v, want %v %v", keysOf(p), p.Ab.Get(1), keysOf(want), want.Ab.Get(1))
	}
	if got := fmt.Sprint(undoLSNs(p)); got != "[10 14]" {
		t.Fatalf("tail after RollBack = %s, want the stable entry and TC 2's", got)
	}
	if p.Ab.MaxApplied(1) != 10 || p.Ab.Contains(1, 11) || !p.Ab.Contains(1, 10) || !p.Ab.Contains(2, 14) {
		t.Fatalf("claims after RollBack: tc1 %v, tc2 %v", p.Ab.Get(1), p.Ab.Get(2))
	}
}

// TestForcedRollsBackACopy: with every entry of the tail forced, Forced is
// the page itself; otherwise it is a copy without each TC's operations above
// its end of stable log, and the page keeps them, tail and claims included.
func TestForcedRollsBackACopy(t *testing.T) {
	p := leafWith("a", "b")
	p.Undo = []Undo{{TC: 1, LSN: 4, Prior: *p.Get("a")}, {TC: 2, LSN: 7, Absent: true, Prior: Record{Key: "c"}}}
	p.Get("a").Value = []byte("a4")
	p.Put(Record{Key: "c", Owner: 2, Value: []byte("c7")})
	p.Ab.Ensure(1).Add(4)
	p.Ab.Ensure(2).Add(7)
	live := p.Clone()
	eosl := map[base.TCID]base.LSN{1: 4, 2: 7}
	if f := p.Forced(func(tc base.TCID) base.LSN { return eosl[tc] }); f != p {
		t.Fatal("a page whose tail is forced was copied")
	}
	eosl[1], eosl[2] = 3, 6
	f := p.Forced(func(tc base.TCID) base.LSN { return eosl[tc] })
	if !p.Equal(live) || len(p.Undo) != 2 {
		t.Fatal("Forced changed the page")
	}
	if got := fmt.Sprint(keysOf(f)); got != "[a b]" || string(f.Get("a").Value) != "va" || len(f.Undo) != 0 {
		t.Fatalf("forced copy: %s, a=%q, %d entries; want a and b as they were and no tail", got, f.Get("a").Value, len(f.Undo))
	}
	if f.Ab.Contains(1, 4) || f.Ab.Contains(2, 7) || f.ID != p.ID {
		t.Fatalf("forced copy of page %d claims tc1 %v, tc2 %v", f.ID, f.Ab.Get(1), f.Ab.Get(2))
	}
}

// TestUndoPriorKeepsItsHist: the tail keeps a Record by value, so the prior
// and the live record share the history's backing array. A versioned write
// over a committed head appends the head's before version to the live
// record's history, into that array; the prior's history must read the same
// after, and rolling back to it must restore the record exactly.
func TestUndoPriorKeepsItsHist(t *testing.T) {
	hist := make([]Version, 1, 4)
	hist[0] = Version{TS: 10, Val: []byte("v0")}
	p := NewLeaf(1)
	p.Put(Record{Key: "k", Owner: 1, Value: []byte("v2"), TS: 25, Before: []byte("v1"), BeforeTS: 20,
		Flags: FlagHasBefore, Hist: hist})
	want := p.Clone()
	p.Undo = append(p.Undo, Undo{TC: 1, LSN: 5, Prior: *p.Get("k")})
	live := p.Get("k")
	live.Stage(30, 0)
	if len(live.Hist) != 2 || &live.Hist[0] != &p.Undo[0].Prior.Hist[0] {
		t.Fatal("the write did not append into the shared array: the test shows nothing")
	}
	if h := p.Undo[0].Prior.Hist; len(h) != 1 || h[0].TS != 10 || string(h[0].Val) != "v0" {
		t.Fatalf("the prior's history changed under the write: %+v", h)
	}
	p.RollBack(1, 0)
	if !p.Equal(want) {
		t.Fatalf("rolled back to %+v", *p.Get("k"))
	}
	if v, ok := p.Get("k").VersionAt(15); !ok || string(v) != "v0" {
		t.Fatalf("snapshot at 15 reads %q %v after the rollback", v, ok)
	}
}
