package ablsn

import (
	"encoding/binary"
	"slices"

	"github.com/cidr09/unbundled/internal/base"
)

// Table maps each TC that has data on a page to that TC's abstract LSN
// (§6.1.1 "Multiple Abstract LSNs"). Pages with data from only a single TC
// carry only one entry; extra entries appear only on genuinely shared
// pages. The zero value is an empty table.
//
// The entries are a slice kept sorted by TCID, not a map: a page has one or
// two, every cached page is asked for its size on each write and for its
// encoding on each flush, and both want the entries in TCID order without
// collecting and sorting keys. The *A that Get, Ensure and At return points
// into that slice, so it is good until the next Ensure on the table (callers
// hold the page latch and use it at once).
type Table struct {
	e []entry
}

type entry struct {
	tc base.TCID
	a  A
}

// find returns the slot of tc, or the slot it would be inserted at.
func (t *Table) find(tc base.TCID) (int, bool) {
	for i := range t.e {
		if t.e[i].tc >= tc {
			return i, t.e[i].tc == tc
		}
	}
	return len(t.e), false
}

// Get returns the abstract LSN for tc, or nil if the TC has no data here.
func (t *Table) Get(tc base.TCID) *A {
	if i, ok := t.find(tc); ok {
		return &t.e[i].a
	}
	return nil
}

// Ensure returns the abstract LSN for tc, creating an empty one if needed.
func (t *Table) Ensure(tc base.TCID) *A {
	i, ok := t.find(tc)
	if !ok {
		t.e = slices.Insert(t.e, i, entry{tc: tc})
	}
	return &t.e[i].a
}

// Contains applies the idempotence test for one TC's operation.
func (t *Table) Contains(tc base.TCID, lsn base.LSN) bool {
	a := t.Get(tc)
	return a != nil && a.Contains(lsn)
}

// Advance applies a TC-supplied low-water mark to that TC's entry.
func (t *Table) Advance(tc base.TCID, lwm base.LSN) {
	if a := t.Get(tc); a != nil {
		a.Advance(lwm)
	}
}

// Len returns the number of TCs with entries.
func (t *Table) Len() int { return len(t.e) }

// At returns the i-th entry in TCID order, 0 <= i < Len(): how a caller
// visits every TC of a page without allocating.
func (t *Table) At(i int) (base.TCID, *A) { return t.e[i].tc, &t.e[i].a }

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	c := &Table{e: slices.Clone(t.e)}
	for i := range c.e {
		c.e[i].a.In = slices.Clone(c.e[i].a.In)
	}
	return c
}

// MergeMax folds o into t per-TC (page consolidation, §5.2.2).
func (t *Table) MergeMax(o *Table) {
	if o == nil {
		return
	}
	for i := range o.e {
		t.Ensure(o.e[i].tc).MergeMax(&o.e[i].a)
	}
}

// MaxApplied returns the highest applied LSN for tc, or 0.
func (t *Table) MaxApplied(tc base.TCID) base.LSN {
	if a := t.Get(tc); a != nil {
		return a.MaxApplied()
	}
	return 0
}

// Append serializes the table deterministically (sorted by TCID).
func (t *Table) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.e)))
	for i := range t.e {
		buf = binary.AppendUvarint(buf, uint64(t.e[i].tc))
		buf = t.e[i].a.Append(buf)
	}
	return buf
}

// DecodeTable parses a table previously produced by Append and returns the
// remaining bytes. Append writes the TCs in strictly ascending order and
// four bytes or more per entry; anything else is corrupt.
func DecodeTable(buf []byte) (*Table, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, errCorrupt
	}
	buf = buf[w:]
	if n > uint64(len(buf))/4 {
		return nil, nil, errCorrupt
	}
	t := &Table{}
	if n > 0 {
		t.e = make([]entry, n)
	}
	for i := range t.e {
		u, w := binary.Uvarint(buf)
		if w <= 0 || u > uint64(^base.TCID(0)) {
			return nil, nil, errCorrupt
		}
		tc := base.TCID(u)
		if i > 0 && tc <= t.e[i-1].tc {
			return nil, nil, errCorrupt
		}
		t.e[i].tc = tc
		rest, err := t.e[i].a.decode(buf[w:])
		if err != nil {
			return nil, nil, err
		}
		buf = rest
	}
	return t, buf, nil
}

// EncodedSize returns len(t.Append(nil)) without encoding anything: every
// write asks it of its page (page.Size, the split test).
func (t *Table) EncodedSize() int {
	n := uvarintLen(uint64(len(t.e)))
	for i := range t.e {
		n += uvarintLen(uint64(t.e[i].tc)) + t.e[i].a.EncodedSize()
	}
	return n
}

// InCountTotal sums |{LSNin}| across TCs (page-sync strategy 3 uses this
// to decide when the set is "reduced to a manageable size", §5.1.2).
func (t *Table) InCountTotal() int {
	n := 0
	for i := range t.e {
		n += len(t.e[i].a.In)
	}
	return n
}
