// Package page implements the DC's slotted pages. A page carries:
//
//   - per-TC abstract LSNs (ablsn.Table) recording which TC operations are
//     reflected in the page state (§5.1.2, §6.1.1);
//   - a dLSN recording which DC system transactions (structure
//     modifications) are reflected (§5.2.2) — the monolithic baseline
//     reuses this field as the classic page LSN;
//   - records tagged with their owning TC, optionally holding a before
//     version for read-committed sharing (§6.2.2);
//   - a volatile undo tail of the operations applied since the last flush
//     whose TCs had not forced them, from which a partial-failure reset
//     undoes a failed TC's lost operations without disturbing other TCs
//     (§5.3.2, §6.1.2).
//
// How records map to pages is known only to the DC and never revealed to
// the TC (§4.1.2).
//
// # A decoded page is its image
//
// Decode copies nothing: every key, value, before version and history value
// of the page it returns is a sub-slice of the image it was given, and so is
// every branch separator. Two rules follow, and the whole DC keeps them.
//
// The image is immutable. It is the stable page (storage.PageStore hands the
// cache the very bytes it holds) or a DC-log record, and nothing may write
// into a decoded field: not into Value, Before or a Version's Val byte by
// byte, and not by appending to them in place. A field changes by being
// replaced with a slice the writer owns, which is what every mutator here
// and dc.applyWrite do. The byte slices are cap-limited, so an append
// reallocates instead of running into the neighbouring field; a write
// through an index is not caught by anything and corrupts the stable page
// silently (package dc's TestDecodedPageNeverWritesItsImage watches for it).
// Keys are strings laid over the same bytes, see decoder.str.
//
// The image lives as long as anything decoded from it does. A cached page
// keeps its image reachable until its last aliasing field is replaced or the
// frame is evicted, also after a flush has put a newer image in the store:
// at most one such dead image per record source, which is the page itself
// plus, after a split or a consolidation, the sibling its records came from.
// What leaves the page for something that outlives it is copied: the DC
// copies the values and keys of a result, UpperHalf copies the split key
// that goes to the parent.
package page

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"github.com/cidr09/unbundled/internal/ablsn"
	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/latch"
)

// Record flags.
const (
	// FlagHasBefore marks an uncommitted later version with a retained
	// before version (§6.2.2).
	FlagHasBefore uint8 = 1 << iota
	// FlagBeforeNull marks the before version as "null" (versioned insert:
	// a before null version followed by the intended insert).
	FlagBeforeNull
	// FlagTombstone marks the latest version as a deletion.
	FlagTombstone
	// FlagHasTS is an encoding marker: the serialized record carries the
	// timestamp group (TS, BeforeTS, history). It is set at encode time
	// and stripped at decode time, never held in Record.Flags in memory,
	// so records without timestamps stay byte-identical to the
	// pre-snapshot format.
	FlagHasTS
)

// Version is one reclaimable committed version in a record's history: the
// value that was current from TS until the next version's commit
// timestamp. Del marks a committed tombstone (the key did not exist in
// that interval). Hist is ascending by TS; entries below the GC horizon
// are pruned (PruneVersions).
type Version struct {
	TS  base.TS
	Val []byte
	Del bool
}

// Record is one record slot. Value is the latest version; Before the
// retained committed version when FlagHasBefore is set. TS is the commit
// timestamp of Value (zero: unversioned/ancient, visible to every
// snapshot); BeforeTS the commit timestamp of Before while a versioned
// write is in flight; Hist holds older committed versions for snapshot
// reads.
type Record struct {
	Key      string
	Owner    base.TCID
	Flags    uint8
	Value    []byte
	Before   []byte
	TS       base.TS
	BeforeTS base.TS
	Hist     []Version
}

// HasBefore reports whether an uncommitted later version exists.
func (r *Record) HasBefore() bool { return r.Flags&FlagHasBefore != 0 }

// BeforeNull reports whether the before version is the null version.
func (r *Record) BeforeNull() bool { return r.Flags&FlagBeforeNull != 0 }

// Tombstone reports whether the latest version is a deletion marker.
func (r *Record) Tombstone() bool { return r.Flags&FlagTombstone != 0 }

// ReadVersion returns the value visible under flavor and whether a value
// is visible at all.
func (r *Record) ReadVersion(flavor base.ReadFlavor) (val []byte, visible bool) {
	switch flavor {
	case base.ReadCommitted:
		if r.HasBefore() {
			if r.BeforeNull() {
				return nil, false
			}
			return r.Before, true
		}
		if r.Tombstone() {
			return nil, false
		}
		return r.Value, true
	default: // plain and dirty both see the latest version
		if r.Tombstone() {
			return nil, false
		}
		return r.Value, true
	}
}

// VersionAt returns the value committed at snapshot timestamp t: the
// newest committed version with commit TS <= t. An in-flight versioned
// write is never visible (the retained before version and history carry
// the committed state); a tombstone or null version at t reads as "not
// found". TS zero versions (unversioned/ancient data) are visible to
// every snapshot.
func (r *Record) VersionAt(t base.TS) (val []byte, visible bool) {
	if r.HasBefore() {
		if r.BeforeTS <= t {
			if r.BeforeNull() {
				return nil, false
			}
			return r.Before, true
		}
	} else if r.TS <= t {
		if r.Tombstone() {
			return nil, false
		}
		return r.Value, true
	}
	for i := len(r.Hist) - 1; i >= 0; i-- {
		if r.Hist[i].TS <= t {
			if r.Hist[i].Del {
				return nil, false
			}
			return r.Hist[i].Val, true
		}
	}
	return nil, false
}

// CommitVersion finalizes the uncommitted version (§6.2.2) with no commit
// timestamp: the before version is eliminated, making the later version
// the committed one. It reports whether the record should be removed from
// the page (a committed tombstone). Timestamped commits use
// CommitVersionAt, which retains the before version for snapshots.
func (r *Record) CommitVersion() (remove bool) {
	if !r.HasBefore() {
		// Already finalized (idempotent replays are filtered by abstract
		// LSNs; this is for robustness).
		return r.Tombstone()
	}
	if r.Tombstone() {
		return true
	}
	r.Flags &^= FlagHasBefore | FlagBeforeNull
	r.Before = nil
	r.BeforeTS = 0
	return false
}

// CommitVersionAt finalizes the uncommitted version at commit timestamp c:
// the before version — committed until this instant — moves into the
// record's history so snapshots below c keep resolving, and the later
// version becomes the committed one stamped c. A committed tombstone is
// retained (not removed) until the GC horizon passes it, so snapshots
// below the deletion still see the prior value. It reports whether the
// record is immediately reclaimable. horizon prunes history in passing.
func (r *Record) CommitVersionAt(c, horizon base.TS) (remove bool) {
	if c == 0 {
		return r.CommitVersion()
	}
	if !r.HasBefore() {
		// Already finalized; reclaim a tombstone only once no snapshot can
		// see below it.
		return r.PruneVersions(horizon)
	}
	switch {
	case r.BeforeNull() && r.BeforeTS != 0:
		// The before version was a committed tombstone (insert after a
		// versioned delete): keep the deletion visible below c.
		r.Hist = append(r.Hist, Version{TS: r.BeforeTS, Del: true})
	case !r.BeforeNull():
		r.Hist = append(r.Hist, Version{TS: r.BeforeTS, Val: r.Before})
	}
	r.Flags &^= FlagHasBefore | FlagBeforeNull
	r.Before = nil
	r.BeforeTS = 0
	r.TS = c
	return r.PruneVersions(horizon)
}

// AbortVersion rolls back the uncommitted version: the latest version is
// removed and the before version (value or tombstone) restored with its
// commit timestamp. It reports whether the record should be removed (a
// versioned insert of a never-existing key rolled back).
func (r *Record) AbortVersion() (remove bool) {
	if !r.HasBefore() {
		return false
	}
	if r.BeforeNull() {
		if r.BeforeTS == 0 && len(r.Hist) == 0 {
			return true
		}
		// The before version was a committed tombstone: restore it.
		r.Value = nil
		r.Before = nil
		r.TS = r.BeforeTS
		r.BeforeTS = 0
		r.Flags = (r.Flags &^ (FlagHasBefore | FlagBeforeNull)) | FlagTombstone
		return false
	}
	r.Value = r.Before
	r.Before = nil
	r.TS = r.BeforeTS
	r.BeforeTS = 0
	r.Flags &^= FlagHasBefore | FlagBeforeNull | FlagTombstone
	return false
}

// PruneVersions discards history no snapshot can reach, given that no
// live or future snapshot reads below horizon: everything older than the
// newest committed version at or below horizon. It reports whether the
// whole record is reclaimable (a committed, timestamped tombstone at or
// below the horizon with no retained history).
func (r *Record) PruneVersions(horizon base.TS) (remove bool) {
	if horizon == 0 {
		return false
	}
	cur := r.TS
	if r.HasBefore() {
		cur = r.BeforeTS
	}
	if cur <= horizon {
		// The current committed version already covers every reachable
		// snapshot; the whole history is unreachable.
		r.Hist = nil
	} else if n := len(r.Hist); n > 0 {
		idx := -1
		for i := n - 1; i >= 0; i-- {
			if r.Hist[i].TS <= horizon {
				idx = i
				break
			}
		}
		if idx >= 0 && r.Hist[idx].Del {
			// A tombstone at the horizon boundary resolves identically to
			// "no version": drop it too.
			idx++
		}
		if idx > 0 {
			r.Hist = append(r.Hist[:0:0], r.Hist[idx:]...)
		}
	}
	return !r.HasBefore() && r.Tombstone() && r.TS != 0 && r.TS <= horizon && len(r.Hist) == 0
}

// size returns the serialized footprint of the record.
func (r *Record) size() int {
	n := 8 + len(r.Key) + len(r.Value) + len(r.Before)
	if r.TS != 0 || r.BeforeTS != 0 || len(r.Hist) > 0 {
		n += 20
		for i := range r.Hist {
			n += 12 + len(r.Hist[i].Val)
		}
	}
	return n
}

// Undo takes back one operation of the undo tail: Prior is the record the
// operation replaced, kept by value, or, when Absent, the key had no record
// and Prior holds only the Key. Record fields are replaced and never written
// into (package comment), so Prior stays what it was.
type Undo struct {
	TC     base.TCID
	LSN    base.LSN
	Absent bool
	Prior  Record
}

// Page is one DC page: either a leaf holding records or a branch holding
// separator keys and children. The latch makes individual logical
// operations atomic under DC multi-threading (§4.1.2(1)).
//
// Volatile bookkeeping fields (Undo, Dirty, FirstDirty, RecDLSN) are never
// serialized; the DC keeps Undo, the buffer pool the rest.
type Page struct {
	L latch.Latch

	ID   base.PageID
	Leaf bool
	// DLSN is the DC system-transaction stamp (§5.2.2); the monolith uses
	// it as the traditional page LSN.
	DLSN base.DLSN
	// Next links leaves left-to-right for range scans.
	Next base.PageID
	// Ab holds the per-TC abstract LSNs (§5.1.2, §6.1.1).
	Ab ablsn.Table

	// Leaf payload, sorted by Key.
	Recs []Record

	// Branch payload: Keys separate Children; len(Children) == len(Keys)+1.
	// Child i holds keys < Keys[i]; the last child holds the rest.
	Keys     []string
	Children []base.PageID

	// Undo is the leaf's undo tail, oldest first: an entry for every
	// operation applied since the last flush whose LSN its TC had not yet
	// forced. A flush empties it (the causality gate makes every operation
	// on a flushed page stable); splits and consolidations hand each entry to
	// the page its key goes to; RollBack consumes a failed TC's entries.
	Undo []Undo

	// Dirty is set while the cached page differs from its stable version.
	Dirty bool
	// FirstDirty records, per TC, the first operation LSN applied since
	// the page was last made stable; the checkpoint protocol flushes pages
	// whose FirstDirty lies below the proposed redo scan start point.
	FirstDirty map[base.TCID]base.LSN
	// RecDLSN is the earliest DC-log record that dirtied this page since
	// the last flush; the buffer pool forces the DC-log this far before
	// writing the page (write-ahead logging for system transactions).
	RecDLSN base.DLSN
}

// NewLeaf returns an empty leaf page.
func NewLeaf(id base.PageID) *Page { return &Page{ID: id, Leaf: true} }

// NewBranch returns a branch page over the given children.
func NewBranch(id base.PageID, keys []string, children []base.PageID) *Page {
	return &Page{ID: id, Keys: keys, Children: children}
}

// find returns the index of key and whether it is present.
func (p *Page) find(key string) (int, bool) {
	i := sort.Search(len(p.Recs), func(i int) bool { return p.Recs[i].Key >= key })
	return i, i < len(p.Recs) && p.Recs[i].Key == key
}

// Get returns the record for key, or nil.
func (p *Page) Get(key string) *Record {
	if i, ok := p.find(key); ok {
		return &p.Recs[i]
	}
	return nil
}

// Put inserts or replaces the record, keeping sort order.
func (p *Page) Put(rec Record) {
	i, ok := p.find(rec.Key)
	if ok {
		p.Recs[i] = rec
		return
	}
	p.Recs = append(p.Recs, Record{})
	copy(p.Recs[i+1:], p.Recs[i:])
	p.Recs[i] = rec
}

// Remove deletes the record for key; it reports whether it was present.
func (p *Page) Remove(key string) bool {
	i, ok := p.find(key)
	if !ok {
		return false
	}
	p.Recs = append(p.Recs[:i], p.Recs[i+1:]...)
	return true
}

// Ascend calls fn for records with from <= Key < to (to == "" means
// unbounded) in key order; fn returns false to stop. It reports whether
// iteration stopped before the end of the page — fn said so, or a record
// at or past to was met — so a caller walking the leaf chain knows the
// next leaf holds nothing in range.
func (p *Page) Ascend(from, to string, fn func(*Record) bool) bool {
	i := sort.Search(len(p.Recs), func(i int) bool { return p.Recs[i].Key >= from })
	for ; i < len(p.Recs); i++ {
		if (to != "" && p.Recs[i].Key >= to) || !fn(&p.Recs[i]) {
			return true
		}
	}
	return false
}

// ChildFor returns the child page that covers key (branch pages).
func (p *Page) ChildFor(key string) base.PageID {
	i := sort.Search(len(p.Keys), func(i int) bool { return key < p.Keys[i] })
	return p.Children[i]
}

// ChildIndex returns the slot of child id, or -1.
func (p *Page) ChildIndex(id base.PageID) int {
	for i, c := range p.Children {
		if c == id {
			return i
		}
	}
	return -1
}

// InsertSep inserts separator key with newChild to the right of child at
// index idx (branch pages; used by splits).
func (p *Page) InsertSep(idx int, key string, newChild base.PageID) {
	p.Keys = append(p.Keys, "")
	copy(p.Keys[idx+1:], p.Keys[idx:])
	p.Keys[idx] = key
	p.Children = append(p.Children, 0)
	copy(p.Children[idx+2:], p.Children[idx+1:])
	p.Children[idx+1] = newChild
}

// RemoveSep removes the separator at index i and the child to its right
// (used by consolidation).
func (p *Page) RemoveSep(i int) {
	p.Keys = append(p.Keys[:i], p.Keys[i+1:]...)
	p.Children = append(p.Children[:i+1], p.Children[i+2:]...)
}

// Size estimates the serialized size in bytes (split/consolidate
// decisions). It is computed from the fields on every call and allocates
// nothing. A running count is not kept: records are changed through the
// *Record that Get hands out (the version methods, dc.applyWrite), which
// does not know its page.
func (p *Page) Size() int {
	n := 32 + p.Ab.EncodedSize()
	if p.Leaf {
		for i := range p.Recs {
			n += p.Recs[i].size()
		}
		return n
	}
	for _, k := range p.Keys {
		n += len(k) + 6
	}
	n += 5 * len(p.Children)
	return n
}

// UpperHalf returns the page, numbered id, that a split of p creates, and the
// split key: the middle record's key with the records from it on, or the
// middle separator — which the split pushes up into the parent — with what
// lies above it. p is not changed: that is CutAt, by the key the split
// logged. A leaf half inherits p's sibling link and a copy of its whole
// abstract-LSN table: an abLSN claim is only ever tested for keys that route
// to the page, so over-claiming for keys that stayed left is harmless and
// preserves idempotence for the moved records (§5.2.2). It takes the undo
// entries of the keys it takes. The split key is a copy: it goes to the
// parent, and must not keep p's image alive from there.
func (p *Page) UpperHalf(id base.PageID) (splitKey string, half *Page) {
	if p.Leaf {
		mid := len(p.Recs) / 2
		splitKey = strings.Clone(p.Recs[mid].Key)
		half = &Page{ID: id, Leaf: true, Next: p.Next, Ab: *p.Ab.Clone(),
			Recs: append([]Record(nil), p.Recs[mid:]...)}
		// One allocation (none for no tail), whose spare room the half's next
		// entries fill.
		half.Undo = slices.DeleteFunc(slices.Clone(p.Undo), func(u Undo) bool { return u.Prior.Key < splitKey })
		return splitKey, half
	}
	mid := len(p.Keys) / 2
	return strings.Clone(p.Keys[mid]), NewBranch(id, append([]string(nil), p.Keys[mid+1:]...),
		append([]base.PageID(nil), p.Children[mid+1:]...))
}

// CutAt removes from p what a split at splitKey moved to page right, undo
// entries included; a leaf now links to it. The cut is by key, not by count:
// redo cuts whatever version of the page the store held. Clipped capacities
// release the dropped half.
func (p *Page) CutAt(splitKey string, right base.PageID) {
	if p.Leaf {
		i, _ := p.find(splitKey)
		p.Recs = p.Recs[:i:i]
		p.Undo = slices.DeleteFunc(p.Undo, func(u Undo) bool { return u.Prior.Key >= splitKey })
		p.Next = right
		return
	}
	i := sort.SearchStrings(p.Keys, splitKey)
	p.Keys = p.Keys[:i:i]
	p.Children = p.Children[: i+1 : i+1]
}

// Merged returns what consolidating leaf right into p leaves in p's place
// (§5.2.2): both pages' records and undo entries, right's sibling link and
// the per-TC maximum of the two abstract-LSN tables. Neither input is changed.
func (p *Page) Merged(right *Page) *Page {
	m := &Page{ID: p.ID, Leaf: true, Next: right.Next, Ab: *p.Ab.Clone()}
	m.Recs = append(p.Recs[:len(p.Recs):len(p.Recs)], right.Recs...)
	m.Undo = append(p.Undo[:len(p.Undo):len(p.Undo)], right.Undo...)
	m.Ab.MergeMax(&right.Ab)
	return m
}

// SetContents makes p hold what img, a logged physical image, holds, and
// img's undo tail. p keeps its ID, latch, dLSN (the caller's to stamp) and
// pool bookkeeping.
func (p *Page) SetContents(img *Page) {
	p.Leaf, p.Next, p.Ab = img.Leaf, img.Next, img.Ab
	p.Recs, p.Keys, p.Children, p.Undo = img.Recs, img.Keys, img.Children, img.Undo
}

// RollBack undoes, newest first, every operation of tc above stable that
// the undo tail holds — the prior record goes back, or the key goes when it
// had none — drops those entries, and takes back tc's abstract-LSN claims
// above stable: what a partial-failure reset does to one page (§5.3.2).
// Other TCs' records and entries are not touched. It returns how many
// operations it undid.
func (p *Page) RollBack(tc base.TCID, stable base.LSN) (undone int) {
	lost := func(u Undo) bool { return u.TC == tc && u.LSN > stable }
	for i := len(p.Undo) - 1; i >= 0; i-- {
		if u := &p.Undo[i]; lost(*u) {
			if u.Absent {
				p.Remove(u.Prior.Key)
			} else {
				p.Put(u.Prior)
			}
			undone++
		}
	}
	p.Undo = slices.DeleteFunc(p.Undo, lost)
	if a := p.Ab.Get(tc); a != nil {
		a.Forget(stable)
	}
	return undone
}

// Clone returns a deep copy of the page (no volatile bookkeeping, no latch
// state): every byte slice is the clone's own. Keys are strings and stay
// shared with p, and so with the image p was decoded from.
func (p *Page) Clone() *Page {
	c := &Page{ID: p.ID, Leaf: p.Leaf, DLSN: p.DLSN, Next: p.Next, Ab: *p.Ab.Clone()}
	if p.Leaf {
		c.Recs = make([]Record, len(p.Recs))
		copy(c.Recs, p.Recs)
		for i := range c.Recs {
			c.Recs[i].Value = append([]byte(nil), p.Recs[i].Value...)
			if p.Recs[i].Before != nil {
				c.Recs[i].Before = append([]byte(nil), p.Recs[i].Before...)
			} else {
				c.Recs[i].Before = nil
			}
			if len(c.Recs[i].Value) == 0 {
				c.Recs[i].Value = nil
			}
			if len(p.Recs[i].Hist) > 0 {
				h := make([]Version, len(p.Recs[i].Hist))
				copy(h, p.Recs[i].Hist)
				for j := range h {
					if h[j].Val != nil {
						h[j].Val = append([]byte(nil), h[j].Val...)
					}
				}
				c.Recs[i].Hist = h
			}
		}
		return c
	}
	c.Keys = append([]string(nil), p.Keys...)
	c.Children = append([]base.PageID(nil), p.Children...)
	return c
}

// Encode serializes the page (stable format: used both for disk writes and
// for physical DC-log images). The image is a fresh buffer that aliases
// nothing of p.
func (p *Page) Encode() []byte {
	image, _ := p.EncodeAb()
	return image
}

// EncodeAb is Encode that also says how many of the image's bytes are the
// abstract-LSN table: what page sync (§5.1.2, strategy 2) costs this write.
func (p *Page) EncodeAb() (image []byte, abBytes int) {
	buf := make([]byte, 0, p.Size())
	buf = binary.AppendUvarint(buf, uint64(p.ID))
	if p.Leaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(p.DLSN))
	buf = binary.AppendUvarint(buf, uint64(p.Next))
	header := len(buf)
	buf = p.Ab.Append(buf)
	abBytes = len(buf) - header
	if p.Leaf {
		buf = binary.AppendUvarint(buf, uint64(len(p.Recs)))
		for i := range p.Recs {
			r := &p.Recs[i]
			buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
			buf = append(buf, r.Key...)
			buf = binary.AppendUvarint(buf, uint64(r.Owner))
			hasTS := r.TS != 0 || r.BeforeTS != 0 || len(r.Hist) > 0
			flags := r.Flags
			if hasTS {
				flags |= FlagHasTS
			}
			buf = append(buf, flags)
			buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
			buf = append(buf, r.Value...)
			buf = binary.AppendUvarint(buf, uint64(len(r.Before)))
			buf = append(buf, r.Before...)
			if hasTS {
				buf = binary.AppendUvarint(buf, uint64(r.TS))
				buf = binary.AppendUvarint(buf, uint64(r.BeforeTS))
				buf = binary.AppendUvarint(buf, uint64(len(r.Hist)))
				for j := range r.Hist {
					v := &r.Hist[j]
					buf = binary.AppendUvarint(buf, uint64(v.TS))
					if v.Del {
						buf = append(buf, 1)
					} else {
						buf = append(buf, 0)
					}
					buf = binary.AppendUvarint(buf, uint64(len(v.Val)))
					buf = append(buf, v.Val...)
				}
			}
		}
		return buf, abBytes
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Keys)))
	for _, k := range p.Keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Children)))
	for _, c := range p.Children {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf, abBytes
}

// Decode builds the page an image produced by Encode holds, over the image:
// it copies no key or value (see the package comment for what that asks of
// every caller). The caller gives the image up: it must never be written
// again. The allocations are the page, its abstract-LSN table, the record or
// separator array and, if any record has history, one array of versions for
// the page, whatever the number of records.
func Decode(image []byte) (*Page, error) {
	d := decoder{buf: image}
	p := &Page{}
	p.ID = base.PageID(d.uvarint())
	p.Leaf = d.byte() != 0
	p.DLSN = base.DLSN(d.uvarint())
	p.Next = base.PageID(d.uvarint())
	if d.err == nil {
		tab, rest, err := ablsn.DecodeTable(d.buf)
		if err != nil {
			return nil, err
		}
		p.Ab = *tab
		d.buf = rest
	}
	if p.Leaf {
		// A record is five bytes or more and a history entry three, so the
		// bytes left bound what a corrupt count can make Decode allocate.
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.buf))/5 {
			return nil, errCorrupt
		}
		if d.err == nil && n > 0 {
			p.Recs = make([]Record, n)
			// hist collects every record's history; a record's Hist holds its
			// length until the array has stopped growing.
			var hist []Version
			for i := range p.Recs {
				r := &p.Recs[i]
				r.Key = d.str()
				r.Owner = base.TCID(d.uvarint())
				r.Flags = d.byte()
				r.Value = d.bytes()
				r.Before = d.bytes()
				if r.Flags&FlagHasTS != 0 {
					r.Flags &^= FlagHasTS
					r.TS = base.TS(d.uvarint())
					r.BeforeTS = base.TS(d.uvarint())
					hn := d.uvarint()
					if d.err == nil && hn > uint64(len(d.buf))/3 {
						return nil, errCorrupt
					}
					if d.err == nil && hn > 0 {
						if hist == nil {
							hist = make([]Version, 0, max(int(hn), len(p.Recs)-i))
						}
						first := len(hist)
						for ; hn > 0; hn-- {
							hist = append(hist, Version{TS: base.TS(d.uvarint()), Del: d.byte() != 0, Val: d.bytes()})
						}
						r.Hist = hist[first:]
					}
				}
			}
			for i, first := 0, 0; first < len(hist); i++ {
				if hn := len(p.Recs[i].Hist); hn > 0 {
					p.Recs[i].Hist = hist[first : first+hn : first+hn]
					first += hn
				}
			}
		}
	} else {
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.buf)) {
			return nil, errCorrupt
		}
		if d.err == nil && n > 0 {
			p.Keys = make([]string, n)
			for i := range p.Keys {
				p.Keys[i] = d.str()
			}
		}
		n = d.uvarint()
		if d.err == nil && n > uint64(len(d.buf))+1 {
			return nil, errCorrupt
		}
		if d.err == nil && n > 0 {
			p.Children = make([]base.PageID, n)
			for i := range p.Children {
				p.Children[i] = base.PageID(d.uvarint())
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

var errCorrupt = fmt.Errorf("page: corrupt encoding")

// decoder walks an image. What it returns aliases the image.
type decoder struct {
	buf []byte
	err error
}

// uvarint is inlined into Decode's loops; nearly every length, owner and
// count of a page is below 128 and so one byte. An error empties buf, which
// sends every later call down the slow path to find err set.
func (d *decoder) uvarint() uint64 {
	if len(d.buf) > 0 && d.buf[0] < 0x80 {
		u := uint64(d.buf[0])
		d.buf = d.buf[1:]
		return u
	}
	return d.uvarintSlow()
}

func (d *decoder) uvarintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return u
}

func (d *decoder) fail() { d.buf, d.err = nil, errCorrupt }

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fail()
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// bytes returns the next length-prefixed field as a slice of the image,
// clipped to its own length so that an append to it cannot reach the field
// behind it.
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := d.buf[:n:n]
	d.buf = d.buf[n:]
	return out
}

// str returns the next length-prefixed field as a string laid over the
// image's bytes by unsafe.String, which is sound exactly because an image is
// never written once Decode has it. The alternative that needs no unsafe, one
// string(image) conversion per page with the keys cut from it, was measured
// too: it copies the page once more (BenchmarkDecodeLeaf, 50 records: 3.9 us
// and 10.4 KB a page against 2.6 us and 6.3 KB) and keeps two copies of
// every cached page alive, one under the keys and one under the values.
func (d *decoder) str() string {
	b := d.bytes()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// Equal reports deep equality of page contents (test helper; ignores
// volatile bookkeeping).
func (p *Page) Equal(q *Page) bool {
	return bytes.Equal(p.Encode(), q.Encode())
}
