package ablsn

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/cidr09/unbundled/internal/base"
)

func TestContainsBasic(t *testing.T) {
	var a A
	if a.Contains(1) {
		t.Fatal("empty abLSN must contain nothing > 0")
	}
	if !a.Contains(0) {
		t.Fatal("LSN 0 is vacuously contained (<= Low=0)")
	}
	a.Add(5)
	a.Add(3)
	a.Add(9)
	for _, l := range []base.LSN{3, 5, 9} {
		if !a.Contains(l) {
			t.Fatalf("missing %d", l)
		}
	}
	for _, l := range []base.LSN{1, 2, 4, 6, 7, 8, 10} {
		if a.Contains(l) {
			t.Fatalf("wrongly contains %d", l)
		}
	}
	if a.MaxApplied() != 9 {
		t.Fatalf("max = %d want 9", a.MaxApplied())
	}
}

func TestOutOfOrderScenario(t *testing.T) {
	// The §5.1.1 failure case: Oj (LSN 7) executes before Oi (LSN 3).
	// With a plain page LSN the page would claim to contain Oi; the
	// abstract LSN must not.
	var a A
	a.Add(7)
	if a.Contains(3) {
		t.Fatal("traditional-test bug reproduced: abLSN must not claim LSN 3")
	}
	a.Add(3)
	if !a.Contains(3) || !a.Contains(7) {
		t.Fatal("both operations must now be contained")
	}
}

func TestAdvancePrunes(t *testing.T) {
	var a A
	for _, l := range []base.LSN{2, 4, 6, 8, 10} {
		a.Add(l)
	}
	a.Advance(6, 9) // Low goes to the lower of LWM and EOSL
	if a.Low != 6 {
		t.Fatalf("Low = %d want 6", a.Low)
	}
	if got := len(a.in); got != 2 {
		t.Fatalf("|{LSNin}| = %d want 2 (8,10)", got)
	}
	for l := base.LSN(1); l <= 6; l++ {
		if !a.Contains(l) {
			t.Fatalf("after advance, %d must be contained", l)
		}
	}
	if !a.Contains(8) || !a.Contains(10) || a.Contains(9) {
		t.Fatal("In-set membership wrong after advance")
	}
	// Advance must be monotone: a lower lwm is ignored.
	a.Advance(3, 100)
	if a.Low != 6 {
		t.Fatal("Advance went backwards")
	}
	// Nor may Low pass the TC's stable log, whatever its LWM says.
	a.Advance(100, 7)
	if a.Low != 7 || len(a.in) != 2 {
		t.Fatalf("after Advance(100, 7): %v", a)
	}
	// Max survives pruning and is not dragged up by Advance: it reflects
	// only operations actually applied to this page.
	a.Advance(100, 100)
	if len(a.in) != 0 || a.MaxApplied() != 10 {
		t.Fatalf("after full prune: in=%d max=%d", len(a.in), a.MaxApplied())
	}
	// The emptied set keeps its array: a write prunes and then adds, and the
	// add after a full prune takes no allocation.
	next := base.LSN(100)
	if got := testing.AllocsPerRun(100, func() {
		next++
		a.Advance(next-1, next-1)
		a.Add(next)
	}); got != 0 {
		t.Fatalf("prune then Add allocates %.0f times", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	var a A
	a.Add(5)
	a.Add(5)
	a.Add(5)
	if len(a.in) != 1 {
		t.Fatalf("duplicate Add grew the set: %d", len(a.in))
	}
}

func TestCloneIndependence(t *testing.T) {
	var a A
	a.Add(3)
	c := a.Clone()
	c.Add(4)
	if a.Contains(4) {
		t.Fatal("clone aliases original")
	}
}

// mk returns the abstract LSN <low, in> with the given Max.
func mk(low, max base.LSN, in ...base.LSN) *A {
	return &A{Low: low, Max: max, in: in}
}

// TestMergeMaxPrunesUnderTheMergedLow: when the other page's Low is the
// larger, this page's {LSNin} entries at or below it go, as an Advance to it
// would drop them; a consolidated page kept them.
func TestMergeMaxPrunesUnderTheMergedLow(t *testing.T) {
	l := mk(2, 3, 3)
	l.MergeMax(mk(4, 4))
	if l.Low != 4 || len(l.in) != 0 || l.Max != 4 || !l.Contains(3) {
		t.Fatalf("<2,{3}> merged with <4,{}>: %v, |{LSNin}| %d", l, len(l.in))
	}
}

func TestMergeMax(t *testing.T) {
	// Consolidation: left has <4,{6}>, right has <2,{3,9}>.
	l := mk(4, 6, 6)
	r := mk(2, 9, 3, 9)
	l.MergeMax(r)
	if l.Low != 4 {
		t.Fatalf("Low = %d want 4", l.Low)
	}
	// 3 <= merged Low so it is pruned but still contained; 6 and 9 in set.
	for _, want := range []base.LSN{1, 2, 3, 4, 6, 9} {
		if !l.Contains(want) {
			t.Fatalf("merged must contain %d: %v", want, l)
		}
	}
	if l.Contains(5) || l.Contains(7) {
		t.Fatalf("merged contains phantom: %v", l)
	}
	if l.MaxApplied() != 9 {
		t.Fatalf("max = %d want 9", l.MaxApplied())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []*A{
		{},
		{Low: 7, Max: 7},
		mk(3, 100, 5, 6, 100),
		mk(1<<50, 1<<50+3, 1<<50+3),
	}
	for _, a := range cases {
		buf := a.Append(nil)
		got, rest, err := Decode(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode(%v): %v rest=%d", a, err, len(rest))
		}
		if got.Low != a.Low || got.Max != a.Max || !reflect.DeepEqual(normIn(got.in), normIn(a.in)) {
			t.Fatalf("roundtrip: in=%v out=%v", a, got)
		}
	}
}

func normIn(in []base.LSN) []base.LSN {
	if len(in) == 0 {
		return nil
	}
	return in
}

func TestDecodeCorrupt(t *testing.T) {
	a := mk(3, 9, 5, 9)
	buf := a.Append(nil)
	for i := 0; i < len(buf); i++ {
		if _, _, err := Decode(buf[:i]); err == nil {
			t.Fatalf("truncation at %d undetected", i)
		}
	}
}

// Property: Contains is exactly membership of applied LSNs, under any
// interleaving of Add and Advance with monotone low-water marks that only
// cover fully-applied prefixes (the TC guarantee).
func TestQuickContainsMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rnd := rand.New(rand.NewSource(seed))
		var a A
		applied := map[base.LSN]bool{}
		nextLSN := base.LSN(1)
		issued := []base.LSN{}
		lwm := base.LSN(0)
		for step := 0; step < 200; step++ {
			switch rnd.Intn(3) {
			case 0: // issue + apply an op (possibly out of order application)
				issued = append(issued, nextLSN)
				nextLSN++
				// apply a random issued-but-unapplied op
				perm := rnd.Perm(len(issued))
				for _, i := range perm {
					if !applied[issued[i]] {
						applied[issued[i]] = true
						a.Add(issued[i])
						break
					}
				}
			case 1: // advance LWM to the longest applied prefix
				for applied[lwm+1] {
					lwm++
				}
				a.Advance(lwm, lwm)
			case 2: // check a random LSN
				l := base.LSN(rnd.Intn(int(nextLSN) + 2))
				if l == 0 {
					continue
				}
				if a.Contains(l) != applied[l] {
					return false
				}
			}
		}
		// final full check
		for l := base.LSN(1); l < nextLSN; l++ {
			if a.Contains(l) != applied[l] {
				return false
			}
		}
		// In must stay sorted and above Low
		if !sort.SliceIsSorted(a.in, func(i, j int) bool { return a.in[i] < a.in[j] }) {
			return false
		}
		for _, l := range a.in {
			if l <= a.Low {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(low uint32, raw []uint16) bool {
		a := &A{Low: base.LSN(low)}
		for _, r := range raw {
			l := base.LSN(low) + base.LSN(r) + 1
			a.Add(l)
		}
		buf := a.Append(nil)
		got, rest, err := Decode(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.Low != a.Low || got.Max != a.Max || len(got.in) != len(a.in) {
			return false
		}
		for i := range a.in {
			if a.in[i] != got.in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// tcsOf lists the table's TCs in At order.
func tcsOf(t *Table) []base.TCID {
	var out []base.TCID
	for i := 0; i < t.Len(); i++ {
		tc, _ := t.At(i)
		out = append(out, tc)
	}
	return out
}

func TestTableBasics(t *testing.T) {
	var tab Table
	if tab.Get(1) != nil || tab.Len() != 0 {
		t.Fatal("zero table must be empty")
	}
	tab.Ensure(1).Add(5)
	tab.Ensure(2).Add(8)
	if !tab.Contains(1, 5) || tab.Contains(1, 8) || !tab.Contains(2, 8) {
		t.Fatal("per-TC isolation broken")
	}
	if got := tcsOf(&tab); !reflect.DeepEqual(got, []base.TCID{1, 2}) {
		t.Fatalf("TCs = %v", got)
	}
	tab.Get(1).Advance(5, 5)
	if len(tab.Get(1).in) != 0 {
		t.Fatal("advance did not prune")
	}
	if tab.MaxApplied(1) != 5 || tab.MaxApplied(3) != 0 {
		t.Fatal("MaxApplied wrong")
	}
	tab.Get(2).Forget(0)
	if tab.Contains(2, 8) || tab.MaxApplied(2) != 0 || !tab.Contains(1, 5) {
		t.Fatal("forget failed, or reached another TC")
	}
}

// TestForget: a TC that lost its log beyond L reuses the LSNs above L, so
// every claim above L goes — in the In set, under Low, and in Max — and every
// claim at or below it stays.
func TestForget(t *testing.T) {
	a := mk(4, 12, 6, 9, 12)
	a.Forget(9)
	if !a.Contains(4) || !a.Contains(6) || !a.Contains(9) || a.Contains(12) || a.Max != 9 {
		t.Fatalf("after Forget(9): %v", a)
	}
	a.Forget(2)
	if !a.Contains(2) || a.Contains(3) || a.Contains(6) || len(a.in) != 0 || a.Max != 2 {
		t.Fatalf("after Forget(2): %v", a)
	}
}

func TestTableEncodeRoundTrip(t *testing.T) {
	var tab Table
	tab.Ensure(3).Add(7)
	tab.Ensure(1).Add(2)
	tab.Ensure(1).Advance(2, 2)
	buf := tab.Append(nil)
	got, rest, err := DecodeTable(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v", err)
	}
	if got.Len() != 2 || !got.Contains(3, 7) || !got.Contains(1, 2) || got.Contains(1, 3) {
		t.Fatalf("roundtrip table wrong: %v", tcsOf(got))
	}
	// empty table
	var empty Table
	got2, _, err := DecodeTable(empty.Append(nil))
	if err != nil || got2.Len() != 0 {
		t.Fatal("empty table roundtrip failed")
	}
}

func TestTableClone(t *testing.T) {
	var tab Table
	tab.Ensure(1).Add(4)
	c := tab.Clone()
	c.Ensure(1).Add(9)
	if tab.Contains(1, 9) {
		t.Fatal("clone aliases original")
	}
}

func TestTableMergeMax(t *testing.T) {
	var a, b Table
	a.Ensure(1).Add(4)
	b.Ensure(1).Add(6)
	b.Ensure(2).Add(3)
	a.MergeMax(&b)
	if !a.Contains(1, 4) || !a.Contains(1, 6) || !a.Contains(2, 3) {
		t.Fatal("merge lost entries")
	}
}

func BenchmarkContains(b *testing.B) {
	var a A
	for i := 0; i < 64; i++ {
		a.Add(base.LSN(i*3 + 1))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Contains(base.LSN(i % 200))
	}
}

func BenchmarkAddAdvance(b *testing.B) {
	var a A
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Add(base.LSN(i + 1))
		if i%32 == 31 {
			a.Advance(base.LSN(i-16), base.LSN(i-16))
		}
	}
}

// TestTableWalkRoundTrips: after any sequence of the methods that change a
// table — Add (at the tail, in the middle and ahead of the first LSN),
// Advance, Forget, MergeMax, Clone, and a decode into a table that held
// another — the entries stay in TCID order, every {LSNin} stays sorted and
// above its Low, and the table decodes from its encoding into a used table as
// the same table, and EncodedLen is its encoding's length.
func TestTableWalkRoundTrips(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	lsn := func() base.LSN { return base.LSN(rnd.Int63n(1 << uint(rnd.Intn(40)))) }
	var tab, other Table
	for step := 0; step < 5000; step++ {
		tc := base.TCID(rnd.Intn(5))
		switch rnd.Intn(12) {
		case 0:
			if a := tab.Get(tc); a != nil {
				a.Forget(lsn())
			}
		case 1:
			if a := tab.Get(tc); a != nil {
				a.Advance(lsn(), lsn())
			}
		case 2:
			other.Ensure(tc).Add(lsn())
			tab.MergeMax(other.Clone())
		case 3:
			enc := tab.Append(nil)
			if _, err := DecodeTableInto(&other, enc); err != nil {
				t.Fatal(err)
			}
			if again := other.Append(nil); !bytes.Equal(again, enc) {
				t.Fatalf("step %d: decoded into a used table, it encodes as %x, was %x", step, again, enc)
			}
		case 4:
			tab = *tab.Clone()
		default:
			tab.Ensure(tc).Add(lsn())
		}
		if !slices.IsSorted(tcsOf(&tab)) {
			t.Fatalf("step %d: entries out of TCID order: %v", step, tcsOf(&tab))
		}
		if n, enc := tab.EncodedLen(), tab.Append(nil); n != len(enc) {
			t.Fatalf("step %d: EncodedLen %d, encoding %d bytes", step, n, len(enc))
		}
		for i := 0; i < tab.Len(); i++ {
			_, a := tab.At(i)
			if !slices.IsSorted(a.in) || len(a.in) > 0 && a.in[0] <= a.Low {
				t.Fatalf("step %d: {LSNin} unsorted or at or below Low: %v", step, a)
			}
		}
	}
}
