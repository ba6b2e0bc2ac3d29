// Package ablsn implements abstract page LSNs (§5.1.2 of the paper).
//
// Because the TC assigns an operation's LSN before the order in which
// operations reach a page is determined, a later operation with a higher
// LSN can reach a page before an earlier one with a lower LSN. The
// conventional test "operation LSN <= page LSN" then wrongly classifies the
// earlier operation as applied. The abstract LSN
//
//	abLSN = <LSNlw, {LSNin}>
//
// captures exactly which operations' results are included in a page's
// state: every operation with LSN <= LSNlw, plus the explicitly listed set
// {LSNin} of higher LSNs. The generalized test becomes
//
//	LSN <= abLSN  iff  LSN <= LSNlw  or  LSN in {LSNin}
//
// LSNlw may only be advanced to a low-water mark supplied by the TC (the
// TC has received replies for all operations up to the mark, so there are
// no gaps among the lower LSNs reflected in the page). The DC advances it,
// and so prunes {LSNin}, where the set grows and where it is made stable:
// on every write, before the write's LSN joins the set, and at every flush.
// So {LSNin} holds the operations still in flight, not every operation
// since the page was last flushed.
package ablsn

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"github.com/cidr09/unbundled/internal/base"
)

// A is one abstract LSN, tracking the operations of a single TC whose
// effects are included in a page. The zero value is empty (nothing
// applied). A is not safe for concurrent use; pages guard it with latches.
type A struct {
	// Low is LSNlw: every operation with LSN <= Low is included.
	Low base.LSN
	// in is {LSNin}: the sorted set of LSNs > Low also included.
	in []base.LSN
	// Max is the highest LSN ever actually applied to the page through this
	// abstract LSN. Unlike Low it is never advanced by low-water marks, so
	// it stays exact. Nothing decides on it: it is kept because the page
	// image encodes it.
	Max base.LSN
}

// Contains reports whether the operation with the given LSN has its results
// captured in the page state: the generalized <= test of §5.1.2.
func (a *A) Contains(lsn base.LSN) bool {
	if lsn <= a.Low {
		return true
	}
	i := sort.Search(len(a.in), func(i int) bool { return a.in[i] >= lsn })
	return i < len(a.in) && a.in[i] == lsn
}

// Add records that the operation with the given LSN has been applied to the
// page. Adding an LSN already contained is a no-op (idempotent replays are
// filtered by Contains before application, but Add tolerates it).
func (a *A) Add(lsn base.LSN) {
	if lsn > a.Max {
		a.Max = lsn
	}
	if lsn <= a.Low {
		return
	}
	i := sort.Search(len(a.in), func(i int) bool { return a.in[i] >= lsn })
	if i < len(a.in) && a.in[i] == lsn {
		return
	}
	a.in = append(a.in, 0)
	copy(a.in[i+1:], a.in[i:])
	a.in[i] = lsn
}

// Advance raises Low to lwm, the owning TC's low-water mark, if that is
// higher, and discards every element of {LSNin} at or below the new Low
// (§5.1.2 "Establishing LSNlw"). The DC cannot determine by itself which
// lower-LSN operations are still unapplied, so only the TC's mark may raise
// Low. The TC never sends a mark above its stable log, so a page never claims
// an LSN a restarted TC hands out again. The set keeps its array, so the Add
// that follows a prune does not allocate.
func (a *A) Advance(low base.LSN) {
	if low <= a.Low {
		return
	}
	a.Low = low
	i := sort.Search(len(a.in), func(i int) bool { return a.in[i] > low })
	a.in = append(a.in[:0], a.in[i:]...)
}

// Clone returns a deep copy.
func (a *A) Clone() *A {
	c := &A{Low: a.Low, Max: a.Max}
	if len(a.in) > 0 {
		c.in = append([]base.LSN(nil), a.in...)
	}
	return c
}

// MergeMax folds b into a taking, per §5.2.2 page consolidation, the
// maximum: the resulting abstract LSN must claim an operation applied iff
// it was applied to either input page. Low becomes min of the Lows would be
// wrong (operations above the smaller Low but below the larger are only
// known applied on one side); instead the union keeps the larger Low only
// if every LSN it swallows is legitimate. Consolidation in the paper uses
// "an abLSN for the consolidated page that is the maximum of abLSNs of the
// two pages"; with a shared per-TC low-water mark both Lows came from the
// same monotone LWM stream, so max(Low) is safe, and the In sets union less
// what the merged Low swallows.
func (a *A) MergeMax(b *A) {
	if b == nil {
		return
	}
	a.Advance(b.Low)
	for _, l := range b.in {
		a.Add(l)
	}
	a.Max = max(a.Max, b.Max)
}

func (a *A) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<%d,{", a.Low)
	for i, l := range a.in {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", l)
	}
	fmt.Fprintf(&sb, "},max=%d>", a.Max)
	return sb.String()
}

// Append serializes a in a compact varint format.
func (a *A) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(a.Low))
	buf = binary.AppendUvarint(buf, uint64(a.Max))
	buf = binary.AppendUvarint(buf, uint64(len(a.in)))
	prev := base.LSN(0)
	for _, l := range a.in {
		buf = binary.AppendUvarint(buf, uint64(l-prev)) // delta-encode
		prev = l
	}
	return buf
}

// decode reads an abstract LSN (Append) into a, whatever a held; it reuses
// a.in's array when the set fits in it.
func (a *A) decode(d *base.Decoder) {
	a.Low, a.Max = base.LSN(d.Uvarint()), base.LSN(d.Uvarint())
	n := d.Count()
	if n <= cap(a.in) {
		a.in = a.in[:n]
	} else {
		a.in = make([]base.LSN, n)
	}
	prev := base.LSN(0)
	for i := range a.in {
		prev += base.LSN(d.Uvarint()) // delta-encoded
		a.in[i] = prev
	}
}

var errCorrupt = fmt.Errorf("ablsn: corrupt encoding")
