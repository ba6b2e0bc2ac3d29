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
// no gaps among the lower LSNs reflected in the page).
package ablsn

import (
	"encoding/binary"
	"fmt"
	"math/bits"
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
	// In is {LSNin}: the sorted set of LSNs > Low also included.
	In []base.LSN
	// Max is the highest LSN ever actually applied to the page through this
	// abstract LSN. Unlike Low it is never advanced by low-water marks, so
	// it stays exact. Two protocols need it: the causality flush gate (a
	// page may be made stable only when the TC log is stable through Max)
	// and the partial-failure reset test (a cached page must be reset iff
	// Max exceeds the failed TC's stable log, §5.3.2).
	//
	// Contract: callers must only Advance to min(LWM, EOSL) for the owning
	// TC. That keeps Low itself free of claims about operations that could
	// still be lost in a TC crash, so stable pages never assert
	// idempotence for LSNs beyond the TC's stable log — essential because
	// a restarted TC reuses the LSN space above its stable log end.
	Max base.LSN
}

// Contains reports whether the operation with the given LSN has its results
// captured in the page state: the generalized <= test of §5.1.2.
func (a *A) Contains(lsn base.LSN) bool {
	if lsn <= a.Low {
		return true
	}
	i := sort.Search(len(a.In), func(i int) bool { return a.In[i] >= lsn })
	return i < len(a.In) && a.In[i] == lsn
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
	i := sort.Search(len(a.In), func(i int) bool { return a.In[i] >= lsn })
	if i < len(a.In) && a.In[i] == lsn {
		return
	}
	a.In = append(a.In, 0)
	copy(a.In[i+1:], a.In[i:])
	a.In[i] = lsn
}

// Advance raises Low to lwm (if higher) and discards every element of
// {LSNin} that is <= the new Low (§5.1.2 "Establishing LSNlw"). Only a
// TC-supplied low-water mark may be used: the DC cannot determine by
// itself which lower-LSN operations are still unapplied.
func (a *A) Advance(lwm base.LSN) {
	if lwm <= a.Low {
		return
	}
	a.Low = lwm
	i := sort.Search(len(a.In), func(i int) bool { return a.In[i] > lwm })
	if i > 0 {
		a.In = append(a.In[:0], a.In[i:]...)
	}
	if len(a.In) == 0 {
		a.In = nil
	}
}

// MaxApplied returns the highest LSN actually applied to the page. It can
// be smaller than Low: a low-water mark covers operations applied anywhere,
// not necessarily on this page.
func (a *A) MaxApplied() base.LSN { return a.Max }

// InCount returns |{LSNin}|, the number of explicitly tracked LSNs.
func (a *A) InCount() int { return len(a.In) }

// Clone returns a deep copy.
func (a *A) Clone() *A {
	c := &A{Low: a.Low, Max: a.Max}
	if len(a.In) > 0 {
		c.In = append([]base.LSN(nil), a.In...)
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
// same monotone LWM stream, so max(Low) is safe, and the In sets union.
func (a *A) MergeMax(b *A) {
	if b == nil {
		return
	}
	if b.Low > a.Low {
		a.Low = b.Low
	}
	for _, l := range b.In {
		a.Add(l)
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	a.Advance(a.Low) // re-prune In against the merged Low
}

// Forget takes back every claim above lsn: a TC that lost its log tail
// beyond lsn reuses those LSNs for new operations (§5.3.2), so the page must
// not answer them as applied. Max drops to lsn at most, which keeps it an
// upper bound of what the page still holds.
func (a *A) Forget(lsn base.LSN) {
	a.Low, a.Max = min(a.Low, lsn), min(a.Max, lsn)
	a.In = a.In[:sort.Search(len(a.In), func(i int) bool { return a.In[i] > lsn })]
}

func (a *A) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<%d,{", a.Low)
	for i, l := range a.In {
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
	buf = binary.AppendUvarint(buf, uint64(len(a.In)))
	prev := base.LSN(0)
	for _, l := range a.In {
		buf = binary.AppendUvarint(buf, uint64(l-prev)) // delta-encode
		prev = l
	}
	return buf
}

// Decode parses an abstract LSN previously produced by Append and returns
// the remaining bytes.
func Decode(buf []byte) (*A, []byte, error) {
	var a A
	rest, err := a.decode(buf)
	if err != nil {
		return nil, nil, err
	}
	return &a, rest, nil
}

// decode is Decode into a, which must be empty.
func (a *A) decode(buf []byte) ([]byte, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, errCorrupt
	}
	a.Low, buf = base.LSN(u), buf[n:]
	u, n = binary.Uvarint(buf)
	if n <= 0 {
		return nil, errCorrupt
	}
	a.Max, buf = base.LSN(u), buf[n:]
	u, n = binary.Uvarint(buf)
	if n <= 0 {
		return nil, errCorrupt
	}
	buf = buf[n:]
	if u > uint64(len(buf)) {
		return nil, errCorrupt
	}
	if u > 0 {
		a.In = make([]base.LSN, u)
		prev := base.LSN(0)
		for i := range a.In {
			d, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, errCorrupt
			}
			prev += base.LSN(d)
			a.In[i], buf = prev, buf[n:]
		}
	}
	return buf, nil
}

var errCorrupt = fmt.Errorf("ablsn: corrupt encoding")

// EncodedSize returns len(a.Append(nil)), the serialized size in bytes,
// without encoding: what the abstract LSN costs a stable page (the buffer
// pool sums it into Stats.AbLSNBytes, which the benchmark reports as
// buffer.ablsn_bytes_frac).
func (a *A) EncodedSize() int {
	n := uvarintLen(uint64(a.Low)) + uvarintLen(uint64(a.Max)) + uvarintLen(uint64(len(a.In)))
	prev := base.LSN(0)
	for _, l := range a.In {
		n += uvarintLen(uint64(l - prev))
		prev = l
	}
	return n
}

// uvarintLen returns len(binary.AppendUvarint(nil, x)): seven bits a byte.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
