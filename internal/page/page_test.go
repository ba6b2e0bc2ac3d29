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
	// Versioned update: before retained, committed read sees before,
	// plain/dirty sees latest; commit discards before; abort restores it.
	r := Record{Key: "k", Owner: 1, Value: []byte("old")}
	r.Before = r.Value
	r.Value = []byte("new")
	r.Flags |= FlagHasBefore

	if v, ok := r.ReadVersion(base.ReadCommitted); !ok || string(v) != "old" {
		t.Fatalf("committed read = %q %v", v, ok)
	}
	if v, ok := r.ReadVersion(base.ReadDirty); !ok || string(v) != "new" {
		t.Fatalf("dirty read = %q %v", v, ok)
	}
	abort := r // copy
	if remove := abort.AbortVersion(); remove {
		t.Fatal("abort of update must keep the record")
	}
	if v, _ := abort.ReadVersion(base.ReadPlain); string(v) != "old" {
		t.Fatalf("after abort value = %q", v)
	}
	if remove := r.CommitVersion(); remove {
		t.Fatal("commit of update must keep the record")
	}
	if v, _ := r.ReadVersion(base.ReadCommitted); string(v) != "new" {
		t.Fatalf("after commit committed read = %q", v)
	}
}

func TestVersionedInsertAndDelete(t *testing.T) {
	// Versioned insert: null before version, then the intended insert.
	ins := Record{Key: "k", Owner: 2, Value: []byte("v"), Flags: FlagHasBefore | FlagBeforeNull}
	if _, ok := ins.ReadVersion(base.ReadCommitted); ok {
		t.Fatal("committed read must not see uncommitted insert")
	}
	if v, ok := ins.ReadVersion(base.ReadDirty); !ok || string(v) != "v" {
		t.Fatalf("dirty read = %q %v", v, ok)
	}
	abortIns := ins
	if !abortIns.AbortVersion() {
		t.Fatal("aborted insert must remove the record")
	}
	if ins.CommitVersion() {
		t.Fatal("committed insert must keep the record")
	}
	if v, ok := ins.ReadVersion(base.ReadCommitted); !ok || string(v) != "v" {
		t.Fatalf("after commit = %q %v", v, ok)
	}

	// Versioned delete: tombstone latest, before retained.
	del := Record{Key: "d", Owner: 2, Value: nil, Before: []byte("was"),
		Flags: FlagHasBefore | FlagTombstone}
	if v, ok := del.ReadVersion(base.ReadCommitted); !ok || string(v) != "was" {
		t.Fatalf("committed read of tombstoned = %q %v", v, ok)
	}
	if _, ok := del.ReadVersion(base.ReadPlain); ok {
		t.Fatal("plain read must see the tombstone")
	}
	commitDel := del
	if !commitDel.CommitVersion() {
		t.Fatal("committed delete must remove the record")
	}
	abortDel := del
	if abortDel.AbortVersion() {
		t.Fatal("aborted delete must keep the record")
	}
	if v, _ := abortDel.ReadVersion(base.ReadPlain); string(v) != "was" {
		t.Fatalf("after aborted delete = %q", v)
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
	p.Put(Record{Key: "b", Owner: 3, Flags: FlagHasBefore, Value: []byte("new"), Before: []byte("old")})
	p.Put(Record{Key: "c", Owner: 1, Flags: FlagHasBefore | FlagBeforeNull, Value: []byte("ins")})

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
	if r := got.Get("b"); r == nil || !r.HasBefore() || string(r.Before) != "old" {
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
			rec := Record{Key: k, Owner: base.TCID(rnd.Intn(4)), Flags: uint8(rnd.Intn(8))}
			if rnd.Intn(4) > 0 {
				rec.Value = []byte(fmt.Sprintf("v%d", rnd.Intn(1000)))
			}
			if rec.Flags&FlagHasBefore != 0 && rec.Flags&FlagBeforeNull == 0 {
				rec.Before = []byte("b")
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
	p.Recs[0].Before = []byte("b")
	p.Recs[0].Flags = FlagHasBefore
	p.Ab.Ensure(1).Add(4)
	c := p.Clone()
	c.Recs[0].Value[0] = 'Z'
	c.Ab.Ensure(1).Add(9)
	c.Recs[0].Before[0] = 'X'
	if string(p.Recs[0].Value) != "va" || string(p.Recs[0].Before) != "b" || p.Ab.Contains(1, 9) {
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
