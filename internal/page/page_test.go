package page

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/cidr09/unbundled/internal/base"
)

func leafWith(keys ...string) *Page {
	p := NewLeaf(1)
	for _, k := range keys {
		p.Put(Record{Key: k, Owner: 1, Value: []byte("v" + k)})
	}
	return p
}

func TestPutGetRemoveSorted(t *testing.T) {
	p := NewLeaf(1)
	for _, k := range []string{"m", "a", "z", "c"} {
		p.Put(Record{Key: k, Value: []byte(k)})
	}
	if !sort.SliceIsSorted(p.Recs, func(i, j int) bool { return p.Recs[i].Key < p.Recs[j].Key }) {
		t.Fatalf("records unsorted: %v", keysOf(p))
	}
	if r := p.Get("c"); r == nil || string(r.Value) != "c" {
		t.Fatalf("Get(c) = %+v", r)
	}
	if p.Get("q") != nil {
		t.Fatal("phantom record")
	}
	p.Put(Record{Key: "c", Value: []byte("c2")}) // replace
	if got := len(p.Recs); got != 4 {
		t.Fatalf("replace grew page: %d", got)
	}
	if string(p.Get("c").Value) != "c2" {
		t.Fatal("replace did not take")
	}
	if !p.Remove("a") || p.Remove("a") {
		t.Fatal("remove semantics wrong")
	}
	if len(p.Recs) != 3 {
		t.Fatalf("len = %d", len(p.Recs))
	}
}

func TestAscend(t *testing.T) {
	p := leafWith("a", "b", "c", "d", "e")
	var got []string
	p.Ascend("b", "e", func(r *Record) bool { got = append(got, r.Key); return true })
	want := []string{"b", "c", "d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("ascend = %v want %v", got, want)
	}
	got = nil
	p.Ascend("c", "", func(r *Record) bool { got = append(got, r.Key); return true })
	if fmt.Sprint(got) != fmt.Sprint([]string{"c", "d", "e"}) {
		t.Fatalf("open ascend = %v", got)
	}
	// early stop
	got = nil
	stopped := p.Ascend("a", "", func(r *Record) bool { got = append(got, r.Key); return len(got) < 2 })
	if !stopped || len(got) != 2 {
		t.Fatalf("stop: %v %v", stopped, got)
	}
}

func TestVersionLifecycle(t *testing.T) {
	// Versioned update: before retained, committed read sees before until
	// the owner's safe timestamp passes the head's, plain/dirty sees latest.
	r := Record{Key: "k", Owner: 1, Value: []byte("old"), TS: 5}
	r.Stage(10, 0)
	r.Value = []byte("new")

	if v, ok := r.ReadVersion(base.ReadCommitted, 9); !ok || string(v) != "old" {
		t.Fatalf("committed read = %q %v", v, ok)
	}
	if v, ok := r.ReadVersion(base.ReadDirty, 0); !ok || string(v) != "new" {
		t.Fatalf("dirty read = %q %v", v, ok)
	}
	if v, _ := r.ReadVersion(base.ReadCommitted, 10); string(v) != "new" {
		t.Fatalf("after commit committed read = %q", v)
	}
	// The next versioned write, at horizon 10: the committed head becomes
	// the before version, and "old", which no snapshot at or above 10 reads,
	// is dropped.
	r.Stage(20, 10)
	r.Value = []byte("newer")
	if len(r.Hist) != 1 || r.Hist[0].TS != 10 || string(r.Hist[0].Val) != "new" {
		t.Fatalf("history after the next write: %+v", r.Hist)
	}
	if v, _ := r.ReadVersion(base.ReadCommitted, 19); string(v) != "new" {
		t.Fatalf("committed read under the next write = %q", v)
	}
}

func TestVersionedInsertAndDelete(t *testing.T) {
	// Versioned insert: null before version, then the intended insert,
	// stamped with its commit timestamp.
	ins := Record{Key: "k", Owner: 2, Value: []byte("v"), TS: 7, Flags: FlagHasBefore, Hist: []Version{{Del: true}}}
	if _, ok := ins.ReadVersion(base.ReadCommitted, 6); ok {
		t.Fatal("committed read must not see uncommitted insert")
	}
	if v, ok := ins.ReadVersion(base.ReadDirty, 0); !ok || string(v) != "v" {
		t.Fatalf("dirty read = %q %v", v, ok)
	}
	if v, ok := ins.ReadVersion(base.ReadCommitted, 7); !ok || string(v) != "v" {
		t.Fatalf("after commit = %q %v", v, ok)
	}
	if _, ok := ins.VersionAt(6); ok {
		t.Fatal("a snapshot below the insert must not see it")
	}
	ins.Stage(9, 0) // the next write: the null version goes
	if len(ins.Hist) != 1 || ins.Hist[0].TS != 7 || string(ins.Hist[0].Val) != "v" {
		t.Fatalf("history after the next write: %+v", ins.Hist)
	}

	// Versioned delete: tombstone latest, before retained.
	del := Record{Key: "d", Owner: 2, Value: nil, TS: 9, Hist: []Version{{Val: []byte("was")}},
		Flags: FlagHasBefore | FlagTombstone}
	if v, ok := del.ReadVersion(base.ReadCommitted, 8); !ok || string(v) != "was" {
		t.Fatalf("committed read of tombstoned = %q %v", v, ok)
	}
	if _, ok := del.ReadVersion(base.ReadPlain, 0); ok {
		t.Fatal("plain read must see the tombstone")
	}
	if _, ok := del.VersionAt(9); ok {
		t.Fatal("a snapshot at the delete must not see the key")
	}
	if v, ok := del.VersionAt(8); !ok || string(v) != "was" {
		t.Fatalf("a snapshot below the delete = %q %v", v, ok)
	}
}

// TestStagePrunes: a versioned write over a committed head prunes the history
// under the horizon and appends the head to it as the before version; a
// pending head keeps its before version whatever the horizon, and a
// committed head at the horizon sheds its history.
func TestStagePrunes(t *testing.T) {
	// v1 committed at 10 over v0 at 5, its before version, over v- at 2.
	stamped := func() Record {
		return Record{Key: "k", Owner: 1, Value: []byte("v1"), TS: 10,
			Flags: FlagHasBefore, Hist: []Version{{TS: 2, Val: []byte("v-")}, {TS: 5, Val: []byte("v0")}}}
	}
	for _, c := range []struct {
		name string
		run  func(r *Record)
		// what the record holds after: its before version, the timestamps
		// of the history below it, and what a snapshot at 6 and at 12 reads
		before       string
		hist         string
		at6, at12    string
		keepsBefore  bool
		committedTS  base.TS
		committedVal string
	}{
		{name: "pending head above the horizon keeps its before version",
			run: func(r *Record) { r.TS = 20; r.Stage(20, 15) }, keepsBefore: true,
			before: "v0", hist: "[2]", at6: "v0", at12: "v0", committedTS: 20, committedVal: "v1"},
		{name: "pending head keeps its before version under the next write of its transaction",
			run: func(r *Record) { r.TS = 20; r.Stage(20, 15); r.Value = []byte("v2") }, keepsBefore: true,
			before: "v0", hist: "[2]", at6: "v0", at12: "v0", committedTS: 20, committedVal: "v2"},
		{name: "committed head at the horizon drops the history",
			run: func(r *Record) { r.shed(10) }, hist: "[]", at6: "", at12: "v1", committedTS: 10, committedVal: "v1"},
		{name: "write over a committed head at the horizon drops the history",
			run: func(r *Record) { r.Stage(20, 10); r.Value = []byte("v2") }, keepsBefore: true,
			before: "v1", hist: "[]", at6: "", at12: "v1", committedTS: 20, committedVal: "v2"},
		{name: "write over a committed head above the horizon keeps what the horizon reads",
			run: func(r *Record) { r.Stage(20, 7); r.Value = []byte("v2") }, keepsBefore: true,
			before: "v1", hist: "[5]", at6: "v0", at12: "v1", committedTS: 20, committedVal: "v2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := stamped()
			c.run(&r)
			older, before := r.Hist, ""
			if r.HasBefore() {
				older, before = older[:len(older)-1], string(older[len(older)-1].Val)
			}
			var hist []base.TS
			for _, v := range older {
				hist = append(hist, v.TS)
			}
			if r.HasBefore() != c.keepsBefore || before != c.before || fmt.Sprint(hist) != c.hist {
				t.Fatalf("before %v %q, history %v; want %v %q, %s", r.HasBefore(), before, hist, c.keepsBefore, c.before, c.hist)
			}
			for at, want := range map[base.TS]string{6: c.at6, 12: c.at12} {
				if v, _ := r.VersionAt(at); string(v) != want {
					t.Fatalf("snapshot at %d reads %q, want %q", at, v, want)
				}
			}
			if v, _ := r.ReadVersion(base.ReadCommitted, c.committedTS); r.TS != c.committedTS || string(v) != c.committedVal {
				t.Fatalf("head %q at %d; want %q at %d", v, r.TS, c.committedVal, c.committedTS)
			}
		})
	}
}

// splitAs divides p the way a split system transaction does: the upper half
// is built (and travels in the log as its encoding, which must say the same),
// the lower half is what the key cut leaves.
func splitAs(t *testing.T, p *Page, rightID base.PageID) (splitKey string, right *Page) {
	t.Helper()
	splitKey, right = p.UpperHalf(rightID)
	if logged, err := Decode(right.Encode()); err != nil || !logged.Equal(right) {
		t.Fatalf("upper half does not survive its encoding: %v", err)
	}
	p.CutAt(splitKey, rightID)
	return splitKey, right
}

func TestSplitLeaf(t *testing.T) {
	p := leafWith("a", "b", "c", "d", "e", "f")
	p.Next = 99
	p.Ab.Ensure(1).Add(7)
	stale := p.Clone()
	stale.Remove("e")
	stale.Put(Record{Key: "cc"})
	splitKey, right := splitAs(t, p, 2)
	if splitKey != "d" {
		t.Fatalf("splitKey = %q", splitKey)
	}
	if fmt.Sprint(keysOf(p)) != fmt.Sprint([]string{"a", "b", "c"}) {
		t.Fatalf("left = %v", keysOf(p))
	}
	if fmt.Sprint(keysOf(right)) != fmt.Sprint([]string{"d", "e", "f"}) {
		t.Fatalf("right = %v", keysOf(right))
	}
	if p.Next != 2 || right.Next != 99 || right.ID != 2 || !right.Leaf {
		t.Fatalf("sibling chain: %d %d (right is %d)", p.Next, right.Next, right.ID)
	}
	// Right inherits the abstract LSN claims (§5.2.2).
	if !right.Ab.Contains(1, 7) {
		t.Fatal("right page lost abLSN claims")
	}
	// Left mutations must not alias right.
	p.Put(Record{Key: "aa", Value: []byte("x")})
	if right.Recs[0].Key != "d" {
		t.Fatal("aliasing between split halves")
	}
	// Redo cuts whatever version the store held, by key: four records stay
	// of a version that had one more below the split key and one fewer above.
	stale.CutAt(splitKey, 2)
	if fmt.Sprint(keysOf(stale)) != fmt.Sprint([]string{"a", "b", "c", "cc"}) || stale.Next != 2 {
		t.Fatalf("stale left = %v -> %d", keysOf(stale), stale.Next)
	}
}

func TestSplitBranch(t *testing.T) {
	p := NewBranch(1, []string{"b", "d", "f", "h"}, []base.PageID{10, 20, 30, 40, 50})
	push, right := splitAs(t, p, 2)
	if push != "f" {
		t.Fatalf("push = %q", push)
	}
	if fmt.Sprint(p.Keys) != fmt.Sprint([]string{"b", "d"}) ||
		fmt.Sprint(p.Children) != fmt.Sprint([]base.PageID{10, 20, 30}) {
		t.Fatalf("left: %v %v", p.Keys, p.Children)
	}
	if fmt.Sprint(right.Keys) != fmt.Sprint([]string{"h"}) ||
		fmt.Sprint(right.Children) != fmt.Sprint([]base.PageID{40, 50}) {
		t.Fatalf("right: %v %v", right.Keys, right.Children)
	}
	// Routing stays correct: keys < push go left, >= push go right.
	if p.ChildFor("e") != 30 || right.ChildFor("g") != 40 || right.ChildFor("z") != 50 {
		t.Fatal("routing after split broken")
	}
}

func TestMergedLeafImage(t *testing.T) {
	l := leafWith("a", "b")
	r := leafWith("c", "d")
	r.ID = 2
	r.Next = 42
	l.Next = 2
	l.DLSN = 3
	l.Ab.Ensure(1).Add(3)
	r.Ab.Ensure(1).Add(9)
	r.Ab.Ensure(2).Add(5)
	before := l.Clone()
	img, err := Decode(l.Merged(r).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !l.Equal(before) {
		t.Fatal("Merged changed its receiver")
	}
	// The image takes the left page's place where it sits.
	l.SetContents(img)
	if l.ID != 1 || l.DLSN != 3 {
		t.Fatalf("SetContents changed the page's identity: id %d dLSN %d", l.ID, l.DLSN)
	}
	if fmt.Sprint(keysOf(l)) != fmt.Sprint([]string{"a", "b", "c", "d"}) {
		t.Fatalf("merged = %v", keysOf(l))
	}
	if l.Next != 42 {
		t.Fatalf("next = %d", l.Next)
	}
	if !l.Ab.Contains(1, 3) || !l.Ab.Contains(1, 9) || !l.Ab.Contains(2, 5) {
		t.Fatal("merged abLSN lost claims")
	}
}

func TestBranchSepOps(t *testing.T) {
	p := NewBranch(1, []string{"m"}, []base.PageID{10, 20})
	p.InsertSep(0, "g", 15) // splits child 10 at "g" -> new child 15
	if fmt.Sprint(p.Keys) != fmt.Sprint([]string{"g", "m"}) ||
		fmt.Sprint(p.Children) != fmt.Sprint([]base.PageID{10, 15, 20}) {
		t.Fatalf("after insert: %v %v", p.Keys, p.Children)
	}
	if p.ChildFor("a") != 10 || p.ChildFor("h") != 15 || p.ChildFor("x") != 20 {
		t.Fatal("routing broken")
	}
	if p.ChildIndex(15) != 1 || p.ChildIndex(99) != -1 {
		t.Fatal("ChildIndex broken")
	}
	p.RemoveSep(0) // consolidates child 15 into 10
	if fmt.Sprint(p.Keys) != fmt.Sprint([]string{"m"}) ||
		fmt.Sprint(p.Children) != fmt.Sprint([]base.PageID{10, 20}) {
		t.Fatalf("after remove: %v %v", p.Keys, p.Children)
	}
}

func TestEncodeDecodeRoundTripLeaf(t *testing.T) {
	p := NewLeaf(7)
	p.DLSN = 12
	p.Next = 8
	p.Ab.Ensure(1).Add(100)
	p.Ab.Ensure(3).Add(5)
	p.Put(Record{Key: "a", Owner: 1, Value: []byte("va")})
	p.Put(Record{Key: "b", Owner: 3, Flags: FlagHasBefore, Value: []byte("new"), Hist: []Version{{Val: []byte("old")}}})
	p.Put(Record{Key: "c", Owner: 1, Flags: FlagHasBefore, Value: []byte("ins"), Hist: []Version{{Del: true}}})

	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(got) {
		t.Fatalf("roundtrip mismatch:\n in=%+v\nout=%+v", p, got)
	}
	if got.DLSN != 12 || got.Next != 8 || !got.Ab.Contains(1, 100) || !got.Ab.Contains(3, 5) {
		t.Fatal("header fields lost")
	}
	if r := got.Get("b"); r == nil || !r.HasBefore() || string(r.Hist[0].Val) != "old" {
		t.Fatalf("version fields lost: %+v", r)
	}
}

func TestEncodeDecodeRoundTripBranch(t *testing.T) {
	p := NewBranch(9, []string{"g", "m"}, []base.PageID{1, 2, 3})
	p.DLSN = 4
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(got) || got.Leaf {
		t.Fatalf("branch roundtrip mismatch")
	}
	if got.ChildFor("h") != 2 {
		t.Fatal("routing lost")
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := leafWith("a", "b", "c")
	p.Ab.Ensure(1).Add(5)
	buf := p.Encode()
	for i := 0; i < len(buf); i++ {
		if _, err := Decode(buf[:i]); err == nil {
			t.Fatalf("truncation at %d undetected", i)
		}
	}
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rnd := rand.New(rand.NewSource(seed))
		p := NewLeaf(base.PageID(rnd.Uint32() | 1))
		p.DLSN = base.DLSN(rnd.Uint64() >> 16)
		used := map[string]bool{}
		for i := 0; i < int(n%24); i++ {
			k := fmt.Sprintf("k%03d", rnd.Intn(200))
			if used[k] {
				continue
			}
			used[k] = true
			rec := Record{Key: k, Owner: base.TCID(rnd.Intn(4)), Flags: uint8(rnd.Intn(4))}
			if rnd.Intn(4) > 0 {
				rec.Value = []byte(fmt.Sprintf("v%d", rnd.Intn(1000)))
			}
			if rec.Flags&FlagHasBefore != 0 {
				rec.Hist = []Version{{Del: true}} // the null version
				if rnd.Intn(2) == 0 {
					rec.Hist[0] = Version{TS: base.TS(rnd.Intn(3)), Val: []byte("b")}
				}
			}
			p.Put(rec)
			p.Ab.Ensure(rec.Owner).Add(base.LSN(i + 1))
		}
		got, err := Decode(p.Encode())
		return err == nil && p.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneDeep(t *testing.T) {
	p := leafWith("a")
	edit(p, "a", func(r *Record) { r.Hist, r.Flags = []Version{{Val: []byte("b")}}, FlagHasBefore })
	p.Ab.Ensure(1).Add(4)
	c := p.Clone()
	c.Recs[0].Value[0] = 'Z'
	c.Ab.Ensure(1).Add(9)
	c.Recs[0].Hist[0].Val[0] = 'X'
	if string(p.Recs[0].Value) != "va" || string(p.Recs[0].Hist[0].Val) != "b" || p.Ab.Contains(1, 9) {
		t.Fatal("clone aliases original")
	}
}

func TestSizeGrowsWithPayload(t *testing.T) {
	p := NewLeaf(1)
	s0 := p.Size()
	p.Put(Record{Key: "k", Value: bytes.Repeat([]byte("x"), 100)})
	if p.Size() <= s0+100 {
		t.Fatalf("size did not grow: %d -> %d", s0, p.Size())
	}
	// Size should approximate encoded length (within fixed overhead).
	enc := len(p.Encode())
	if p.Size() < enc/2 || p.Size() > enc*2+64 {
		t.Fatalf("size estimate %d far from encoded %d", p.Size(), enc)
	}
}

// walkedSize is Size as it was computed before the page kept a count: every
// record, version and separator walked. The abstract-LSN table does not
// count.
func walkedSize(p *Page) int { return 32 + p.walkBody() }

// TestSizeFollowsTheWalk drives every mutator of a page in seeded random
// sequences — Put, Remove, versioned writes through Replace (Stage),
// RollBack of a TC's tail, Forced, a split (UpperHalf,
// CutAt) undone by a consolidation (Merged, SetContents), Clone, a decode
// into a page that held another (leaf or branch), and a branch's InsertSep,
// RemoveSep and split — with the abstract LSNs growing, advancing and
// forgetting beside them, and after each step Size must be the walk.
func TestSizeFollowsTheWalk(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		p := NewLeaf(1)
		recycled := NewBranch(3, []string{"q"}, []base.PageID{4, 5})
		branch := NewBranch(2, []string{"m"}, []base.PageID{10, 20})
		var lsn base.LSN
		ts := base.TS(10)
		step, what := 0, ""
		check := func(q *Page) {
			t.Helper()
			if got, want := q.Size(), walkedSize(q); got != want {
				t.Fatalf("seed %d step %d (%s): Size %d, the walk %d", seed, step, what, got, want)
			}
		}
		for ; step < 600; step++ {
			key := fmt.Sprintf("k%02d", rnd.Intn(40))
			tc := base.TCID(1 + rnd.Intn(2))
			val := bytes.Repeat([]byte{byte('a' + step%26)}, rnd.Intn(20))
			lsn++
			ts++
			u := Undo{TC: tc, LSN: lsn}
			if r := p.Get(key); r != nil {
				u.Prior = *r
			} else {
				u.Absent, u.Prior.Key = true, key
			}
			wrote := true
			switch rnd.Intn(13) {
			case 0, 1:
				what = "Put"
				p.Put(Record{Key: key, Owner: tc, Value: val})
			case 2:
				what = "Remove"
				p.Remove(key)
			case 3, 4, 5:
				what = "versioned write"
				if r := p.Get(key); r != nil {
					edit(p, key, func(r *Record) {
						r.Stage(ts, base.TS(rnd.Intn(int(ts))))
						r.Value, r.Owner = val, tc
						r.Flags &^= FlagTombstone
						if rnd.Intn(4) == 0 {
							r.Value, r.Flags = nil, r.Flags|FlagTombstone
						}
					})
				} else {
					p.Put(Record{Key: key, Owner: tc, Value: val, TS: ts, Flags: FlagHasBefore, Hist: []Version{{Del: true}}})
				}
			default:
				wrote = false
			}
			if wrote {
				p.Undo = append(p.Undo, u)
				p.Ab.Ensure(tc).Add(lsn)
				check(p)
				continue
			}
			switch rnd.Intn(8) {
			case 0:
				what = "RollBack"
				p.RollBack(tc, lsn-base.LSN(rnd.Intn(20)))
			case 1:
				what = "Forced"
				check(p.Forced(func(tc base.TCID) base.LSN { return lsn - base.LSN(rnd.Intn(20)) }))
			case 2:
				what = "UpperHalf, CutAt, Merged, SetContents"
				if len(p.Recs) < 2 {
					continue
				}
				splitKey, half := p.UpperHalf(9)
				check(half)
				p.CutAt(splitKey, 9)
				check(p)
				half.Ab.Ensure(tc).Add(lsn) // a write to the new page before they merge
				p.SetContents(p.Merged(half))
			case 3:
				what = "Clone"
				p = p.Clone()
			case 4:
				what = "DecodeInto"
				if err := DecodeInto(recycled, p.Encode()); err != nil {
					t.Fatal(err)
				}
				check(recycled)
				p, recycled = recycled, p // go on writing the decoded page
			case 5:
				what = "Advance, Forget, flush"
				if a := p.Ab.Get(tc); a != nil {
					a.Advance(lsn-base.LSN(rnd.Intn(30)), lsn)
				}
				if rnd.Intn(3) == 0 {
					p.Ab.Ensure(tc).Forget(lsn - base.LSN(rnd.Intn(30)))
				}
				p.Undo = nil
			case 6:
				what = "InsertSep, RemoveSep"
				if i := rnd.Intn(len(branch.Keys) + 1); rnd.Intn(3) > 0 || len(branch.Keys) < 2 {
					lo, hi := "", "~"
					if i > 0 {
						lo = branch.Keys[i-1]
					}
					if i < len(branch.Keys) {
						hi = branch.Keys[i]
					}
					if sep := lo + string(rune('a'+rnd.Intn(26))); sep > lo && sep < hi {
						branch.InsertSep(i, sep, base.PageID(100+step))
					}
				} else {
					branch.RemoveSep(rnd.Intn(len(branch.Keys)))
				}
				check(branch)
			case 7:
				what = "a branch's split and decode"
				if len(branch.Keys) < 2 {
					continue
				}
				splitKey, half := branch.UpperHalf(7)
				check(half)
				c := branch.Clone()
				c.CutAt(splitKey, 7)
				check(c)
				if err := DecodeInto(recycled, branch.Encode()); err != nil {
					t.Fatal(err)
				}
				check(recycled)
			}
			check(p)
		}
	}
}

func keysOf(p *Page) []string {
	out := make([]string, len(p.Recs))
	for i := range p.Recs {
		out[i] = p.Recs[i].Key
	}
	return out
}

func BenchmarkEncodeLeaf(b *testing.B) {
	p := benchLeaf(50, false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Encode()
	}
}

func BenchmarkDecodeLeaf(b *testing.B) {
	p := NewLeaf(1)
	for i := 0; i < 50; i++ {
		p.Put(Record{Key: fmt.Sprintf("key%04d", i), Owner: 1, Value: bytes.Repeat([]byte("v"), 64)})
	}
	buf := p.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
