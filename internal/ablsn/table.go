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
// two, and its encoding on each flush wants them in TCID order without
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

// Len returns the number of TCs with entries.
func (t *Table) Len() int { return len(t.e) }

// At returns the i-th entry in TCID order, 0 <= i < Len(): how a caller
// visits every TC of a page without allocating.
func (t *Table) At(i int) (base.TCID, *A) { return t.e[i].tc, &t.e[i].a }

// Clone returns a deep copy.
func (t *Table) Clone() *Table {
	c := &Table{e: slices.Clone(t.e)}
	for i := range c.e {
		c.e[i].a.in = slices.Clone(c.e[i].a.in)
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

// Append serializes the table deterministically (sorted by TCID).
func (t *Table) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.e)))
	for i := range t.e {
		buf = binary.AppendUvarint(buf, uint64(t.e[i].tc))
		buf = t.e[i].a.Append(buf)
	}
	return buf
}

// EncodedLen is the length of the table's encoding (Append), counted without
// encoding it.
func (t *Table) EncodedLen() int {
	n := base.UvarintLen(uint64(len(t.e)))
	for i := range t.e {
		a := &t.e[i].a
		n += base.UvarintLen(uint64(t.e[i].tc)) + base.UvarintLen(uint64(a.Low)) +
			base.UvarintLen(uint64(a.Max)) + base.UvarintLen(uint64(len(a.in)))
		prev := base.LSN(0)
		for _, l := range a.in {
			n += base.UvarintLen(uint64(l - prev))
			prev = l
		}
	}
	return n
}

// DecodeTableInto parses a table previously produced by Append into t,
// whatever t held, and returns the remaining bytes. Append writes the TCs in
// strictly ascending order, four bytes or more per entry and minimal varints;
// anything else is corrupt. It reuses t's entry array and each reused entry's
// {LSNin} array where they are large enough, so a table decoded into one that
// held as many entries and LSNs allocates nothing. On an error t holds a
// partial table.
func DecodeTableInto(t *Table, buf []byte) ([]byte, error) {
	d := base.NewDecoder(buf)
	n := d.Count()
	if d.Err() != nil || n > len(d.Rest())/4 {
		return nil, errCorrupt
	}
	if n <= cap(t.e) {
		t.e = t.e[:n]
	} else {
		t.e = make([]entry, n)
	}
	for i := range t.e {
		u := d.Uvarint()
		if u > uint64(^base.TCID(0)) || i > 0 && base.TCID(u) <= t.e[i-1].tc {
			return nil, errCorrupt
		}
		t.e[i].tc = base.TCID(u)
		if t.e[i].a.decode(&d); d.Err() != nil {
			return nil, errCorrupt
		}
	}
	return d.Rest(), nil
}

// InCountTotal sums |{LSNin}| across TCs (page-sync strategy 3 uses this
// to decide when the set is "reduced to a manageable size", §5.1.2).
func (t *Table) InCountTotal() int {
	n := 0
	for i := range t.e {
		n += len(t.e[i].a.in)
	}
	return n
}
