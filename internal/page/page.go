// Package page implements the DC's slotted pages. A page carries:
//
//   - per-TC abstract LSNs (ablsn.Table) recording which TC operations are
//     reflected in the page state (§5.1.2, §6.1.1);
//   - a dLSN recording which DC system transactions (structure
//     modifications) are reflected (§5.2.2) — the monolithic baseline
//     reuses this field as the classic page LSN;
//   - records tagged with their owning TC, each with one history of
//     committed versions whose newest entry, after a versioned write, is the
//     before version for read-committed sharing (§6.2.2);
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
// A leaf's stable image is a chain: a base image (Encode) and the delta
// frames (AppendDelta) written onto it since, each holding the records its
// write-back found changed, each after its slot, the keys it found removed
// and the whole abstract-LSN table. Decode applies the frames to the base in
// order, in the same pass and with the same record loop: a frame's record
// whose slot still holds its key is decoded straight over the record there,
// so a key a frame rewrites costs one record decode, as in the base. It
// copies nothing: every key, value and history value (the before version's
// among them) of the page it returns is a sub-slice of the image it was given
// — of the base, or of the frame that last wrote the record — and so is every
// branch separator. Two rules follow, and the whole DC keeps them.
//
// The image is immutable. It is the stable page (storage.PageStore hands the
// cache the very bytes it holds, and appends a frame only past their end) or
// a DC-log record, and nothing may write into a decoded field: not into Value
// or a Version's Val byte by byte, and not by appending to them in place. A
// field changes by being replaced with a slice the writer owns, which is what
// every mutator here and dc.applyWrite do. The byte slices are cap-limited, so
// an append reallocates instead of running into the neighbouring field; a
// write through an index is not caught by anything and corrupts the stable
// page silently (package dc's TestDecodedPageNeverWritesItsImage watches for
// it). Keys are strings laid over the same bytes, see str.
//
// The image lives as long as anything decoded from it does. A cached page
// keeps its image reachable until its last aliasing field is replaced, also
// after a write-back has put a newer image in the store: at most one such dead
// image per record source, which is the page itself plus, after a split or a
// consolidation, the sibling its records came from. A frame appended to the
// chain a page was decoded from is no newer image: the page's bytes stay where
// they are. Eviction is not the end of it: the buffer pool keeps the page its
// last eviction freed, and the next miss decodes another image into it
// (DecodeInto), which releases the old one. What leaves the page for something
// that outlives it is copied: the DC copies the values and keys of a result,
// UpperHalf copies the split key that goes to the parent.
//
// A page with a chain (Chain) keeps one record of what changed since it: a
// mark per slot, kept in step with the records, for each record Put or
// Replace wrote, and the keys Remove dropped. A delta frame holds those keys
// in ascending order, from one walk over the slots that merges in the removed
// keys the page does not hold again. So whatever else changes a leaf's records
// — CutAt, SetContents and a RollBack that undoes something — drops the
// chain, and a page made new (NewLeaf, UpperHalf, Merged, a logged image the
// buffer pool installs) has none: the next write-back of either is a full
// image.
//
// # A write-back sheds dead versions
//
// A record whose head is stamped at or below the DC's GC horizon is committed
// — the horizon trails every TC's safe timestamp — and every snapshot the DC
// still serves reads its head, so its history, the before version included,
// is dead. The DC keeps no second message to drop a before version at commit
// (§6.2.2); a write-back does it instead, in the cached page, as it encodes
// (AppendDelta, record by record, for the records a delta frame carries;
// CollectImage, before a full image, for all of them, which also removes
// committed tombstones), so the stable chain stays the cached page and Size
// shrinks with it.
//
// # A page keeps its own size
//
// Size decides every split, and every write asks it. It counts the records,
// or the separators and children, and not the abstract-LSN table: the DC
// prunes a TC's {LSNin} on every write and at every flush (package ablsn), so
// the table stays small, and a page that split on it would split on
// bookkeeping. A page keeps the size as a running count, so the records, the
// separators and the children change only through the page's methods: Put,
// Replace and Remove for a record, InsertSep and RemoveSep for a separator,
// and the whole-page ones (CutAt, SetContents, RollBack, DecodeInto). A
// record that Get returns is read, never written: a writer changes a copy
// (Stage works on one) and hands it to Replace, which is what
// dc.applyWrite does. A write through the pointer leaves the count behind;
// CheckSize, which btree.Tree.CheckInvariants runs on every page, finds it.
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
	// FlagHasBefore marks a head written by a versioned write, with the
	// committed version it replaced retained as the before version: the last
	// entry of Hist (§6.2.2). A write-back clears it, with the history, once
	// the head is committed below the GC horizon (Page.AppendDelta,
	// CollectImage).
	FlagHasBefore uint8 = 1 << iota
	// FlagTombstone marks the latest version as a deletion.
	FlagTombstone
	// FlagHasTS is an encoding marker: the serialized record carries the
	// timestamp group (TS, history). It is set at encode time and stripped
	// at decode time, never held in Record.Flags in memory, so a record
	// without timestamps pays nothing for it.
	FlagHasTS
	// flagGone is an encoding marker of delta frames only: the record is a
	// key a Remove dropped, and holds nothing else.
	flagGone
)

// Version is one committed version in a record's history: the value that was
// current from TS until the next version's commit timestamp. Del marks a
// committed tombstone (the key did not exist in that interval); the null
// version, {TS: 0, Del: true}, is the before version of a versioned insert of
// a new key. Hist is ascending by TS; a versioned write drops the entries no
// snapshot at or above the GC horizon reads (Stage).
type Version struct {
	TS  base.TS
	Val []byte
	Del bool
}

// read returns the version's value and whether it is one.
func (v *Version) read() ([]byte, bool) {
	if v.Del {
		return nil, false
	}
	return v.Val, true
}

// Record is one record slot. Value is the head, the latest version, and TS
// its commit timestamp (zero: unversioned/ancient, visible to every
// snapshot). Hist holds the older committed versions for snapshot reads. A
// versioned write (FlagHasBefore) keeps the version it replaced as the last
// entry of Hist, the before version, and stamps the head with its
// transaction's commit timestamp, which it always carries (the DC refuses
// one without). Owner is the TC that wrote the head, whose safe timestamp
// decides when the head is committed (Pending).
type Record struct {
	Key   string
	Owner base.TCID
	Flags uint8
	Value []byte
	TS    base.TS
	Hist  []Version
}

// HasBefore reports whether the head was written by a versioned write that
// retains its before version.
func (r *Record) HasBefore() bool { return r.Flags&FlagHasBefore != 0 }

// Tombstone reports whether the latest version is a deletion marker.
func (r *Record) Tombstone() bool { return r.Flags&FlagTombstone != 0 }

// Pending reports whether the head is an uncommitted version, given safe,
// the owner TC's safe timestamp: a versioned write's head whose commit
// timestamp lies above safe. The owner holds its safe timestamp below a
// commit timestamp until the commit record is forced, and the writes of a
// commit that never forced are undone by the DC's reset at the TC's restart
// before the restarted TC promises anything, so a head at or below safe is
// committed.
func (r *Record) Pending(safe base.TS) bool {
	return r.HasBefore() && r.TS > safe
}

// OwnHead reports whether a versioned write stamped ts lands on its own
// transaction's pending head, one stamped ts: a transaction that writes a
// key twice ships both writes. Any other head under a versioned write is
// committed, since the writer holds the key's X lock.
func (r *Record) OwnHead(ts base.TS) bool {
	return r.HasBefore() && r.TS == ts
}

// ReadVersion returns the value visible under flavor and whether a value
// is visible at all. Plain and dirty reads see the head; a committed read
// sees the before version while the head is Pending(safe), safe being the
// owner TC's safe timestamp.
func (r *Record) ReadVersion(flavor base.ReadFlavor, safe base.TS) (val []byte, visible bool) {
	if flavor == base.ReadCommitted && r.Pending(safe) {
		return r.Hist[len(r.Hist)-1].read()
	}
	if r.Tombstone() {
		return nil, false
	}
	return r.Value, true
}

// VersionAt returns the value committed at snapshot timestamp t: the
// newest committed version with commit TS <= t; a tombstone or null version
// at t reads as "not found". A DC serves a snapshot at t only once every
// TC's safe timestamp covers t, so t stands in for the owner's: a head
// stamped at most t is not Pending(t), and is visible. TS zero versions
// (unversioned/ancient data) are visible to every snapshot.
func (r *Record) VersionAt(t base.TS) (val []byte, visible bool) {
	if r.TS <= t {
		return r.ReadVersion(base.ReadPlain, 0)
	}
	for i := len(r.Hist) - 1; i >= 0; i-- {
		if r.Hist[i].TS <= t {
			return r.Hist[i].read()
		}
	}
	return nil, false
}

// Stage readies r for a versioned write stamped ts, which then replaces the
// head's value: afterwards the head is pending, stamped ts, and the last entry
// of Hist is the newest committed version. The writer's own pending head
// (OwnHead) is overwritten in place. Any other head is committed: Stage first
// drops the history no snapshot at or above horizon reads, then appends the
// head as the before version.
//
// The history is cut by reslicing and never written in place: a record copied
// out (an undo tail's Prior, a split half) shares its array, and the append
// writes only past every such copy's end (a dropped null version goes with
// its capacity).
// A write stamped at or below the horizon, whose head reads as committed at
// once, keeps its before version all the same. It cannot happen: a commit
// timestamp is drawn above every safe timestamp promised, and the horizon is
// at or below every safe timestamp. A head a write-back collected
// (AppendDelta, CollectImage) has no before version left: it is committed,
// and Stage keeps it as the before version like any other.
func (r *Record) Stage(ts, horizon base.TS) {
	if r.OwnHead(ts) {
		return
	}
	h := r.Hist
	if n := len(h); r.HasBefore() && h[n-1].TS == 0 && h[n-1].Del {
		// The null version of an insert reads as no version at all.
		h = h[: n-1 : n-1]
	}
	if horizon != 0 {
		// Everything older than the newest version at or below the horizon
		// is unreachable, and so is that version when it is a deletion.
		i := len(h)
		if r.TS > horizon {
			for i > 0 && h[i-1].TS > horizon {
				i--
			}
			if i > 0 && !h[i-1].Del {
				i--
			}
		}
		h = h[i:]
	}
	before := Version{TS: r.TS, Val: r.Value}
	if r.Tombstone() {
		before = Version{TS: r.TS, Del: true}
	}
	r.Hist = append(h, before)
	r.Flags |= FlagHasBefore
	r.TS = ts
}

// shed is the collection rule: it drops what no snapshot at or above horizon
// reads of r, and returns how much that shrank r's share of Page.Size: its
// whole history and the before version, once the head is stamped at or below
// the horizon. Such a head is committed — the horizon trails every TC's safe
// timestamp, and a TC promises a safe timestamp only once the commits at or
// below it are forced — and every read the DC still serves sees it. A
// pending head, stamped above the horizon, is never collected, nor is a
// TC-crash loser's, whose timestamp no horizon passes before the DC's reset
// at the TC's restart has undone it (dc.SafeTS drops the TC's broadcasts
// meanwhile). A record of a page's is collected through the page
// (AppendDelta, CollectImage), which takes what shed returns off its size.
func (r *Record) shed(horizon base.TS) (shrunk int) {
	if r.TS == 0 || r.TS > horizon || len(r.Hist) == 0 {
		return 0
	}
	before := r.size()
	r.Hist = nil
	r.Flags &^= FlagHasBefore
	return before - r.size()
}

// size returns the record's share of Page.Size, which decides every split.
// The before version counts as its value alone, and the 20-byte timestamp
// group once the head, the before version or an older version carries a
// timestamp; each older version adds 12 bytes and its value. Counted as a
// history entry, the before version would split leaves earlier than it
// always has. A record without versions, nearly every one a decode meets,
// is counted inline: size is inlined, and versionedSize counts the rest.
func (r *Record) size() int {
	if r.TS == 0 && r.Hist == nil {
		return 8 + len(r.Key) + len(r.Value)
	}
	return r.versionedSize()
}

func (r *Record) versionedSize() int {
	n := 8 + len(r.Key) + len(r.Value)
	hist, beforeTS := r.Hist, base.TS(0)
	if r.HasBefore() {
		before := &hist[len(hist)-1]
		n += len(before.Val)
		hist, beforeTS = hist[:len(hist)-1], before.TS
	}
	if r.TS != 0 || beforeTS != 0 || len(hist) > 0 {
		n += 20
		for i := range hist {
			n += 12 + len(hist[i].Val)
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

	// body is Size() less the header: the records' sizes summed, or the
	// separators' and children's. Every mutator below keeps it, which is why
	// Recs, Keys and Children change only through them.
	body int

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

	// stable is the leaf's stable chain (package comment) as the store holds
	// it, when the page is that chain changed only in the records the next
	// delta frame holds, and base is how many of its bytes are the base image.
	// stable is nil on a branch, on a new page and after a whole-page
	// operation: then the next write-back is a full image.
	stable []byte
	base   int
	// What changed since the chain, while there is one: changed marks, slot
	// for slot with Recs from the first change on (marks), the records Put
	// and Replace wrote, and gone holds, ascending, the keys Remove dropped.
	changed []bool
	gone    []string
}

// NewLeaf returns an empty leaf page.
func NewLeaf(id base.PageID) *Page { return &Page{ID: id, Leaf: true} }

// NewBranch returns a branch page over the given children.
func NewBranch(id base.PageID, keys []string, children []base.PageID) *Page {
	p := &Page{ID: id, Keys: keys, Children: children}
	p.body = p.walkBody()
	return p
}

// find returns the index of key and whether it is present.
func (p *Page) find(key string) (int, bool) {
	i := sort.Search(len(p.Recs), func(i int) bool { return p.Recs[i].Key >= key })
	return i, i < len(p.Recs) && p.Recs[i].Key == key
}

// Get returns the record for key, or nil. It is for reading: a caller that
// changes the record changes a copy and hands it back (Replace).
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
		p.Replace(&p.Recs[i], rec)
		return
	}
	if p.stable != nil {
		p.changed = slices.Insert(p.marks(), i, true)
	}
	p.body += rec.size()
	p.Recs = slices.Insert(p.Recs, i, rec)
}

// Replace makes rec, a record of the same key, the record old points to:
// Put without the search, for a caller that holds p's record of the key
// (Get).
func (p *Page) Replace(old *Record, rec Record) {
	if p.stable != nil {
		// old is an element of Recs: its slot is its offset.
		p.marks()[(uintptr(unsafe.Pointer(old))-uintptr(unsafe.Pointer(unsafe.SliceData(p.Recs))))/unsafe.Sizeof(*old)] = true
	}
	p.body += rec.size() - old.size()
	*old = rec
}

// Remove deletes the record for key; it reports whether it was present.
func (p *Page) Remove(key string) bool {
	i, ok := p.find(key)
	if !ok {
		return false
	}
	if p.stable != nil {
		p.changed = slices.Delete(p.marks(), i, i+1)
		if g, ok := slices.BinarySearch(p.gone, key); !ok {
			p.gone = slices.Insert(p.gone, g, p.Recs[i].Key)
		}
	}
	p.body -= p.Recs[i].size()
	p.Recs = slices.Delete(p.Recs, i, i+1)
	return true
}

// marks returns the change marks, slot for slot with Recs: on the first change
// since the chain, sized to Recs over the array they had, unmarked. Until then
// they are empty, and a page no write changes costs no marks.
func (p *Page) marks() []bool {
	if len(p.changed) != len(p.Recs) {
		p.changed = resize(p.changed, uint64(len(p.Recs)))
		clear(p.changed)
	}
	return p.changed
}

// Chain returns the stable chain p was built from and how many of its bytes
// are the base image, when p differs from it in the records the next delta
// frame holds alone; nil otherwise. The buffer pool writes a delta frame
// (AppendDelta) onto it only if the store still holds it.
func (p *Page) Chain() (chain []byte, base int) { return p.stable, p.base }

// SetChain records that chain, whose first base bytes are its base image, is
// now p's stable version: what the buffer pool calls after a write-back, and
// DecodeInto. A branch keeps none; it is written whole every time.
func (p *Page) SetChain(chain []byte, base int) {
	p.DropChain()
	if p.Leaf {
		p.stable, p.base = chain, base
	}
}

// DropChain makes p's next write-back a full image: what every whole-page
// operation does, since a delta frame carries only the changed records.
func (p *Page) DropChain() {
	p.stable, p.base, p.changed = nil, 0, p.changed[:0]
	clear(p.gone)
	p.gone = p.gone[:0]
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
	p.body += sepSize(key) + childSize
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
	p.body -= sepSize(p.Keys[i]) + childSize
	p.Keys = append(p.Keys[:i], p.Keys[i+1:]...)
	p.Children = append(p.Children[:i+1], p.Children[i+2:]...)
}

// Size estimates the serialized size in bytes, which decides every split
// and consolidation: a 32-byte header and the body, the abstract-LSN table
// left out (package comment). It walks nothing: the body is a running count
// every mutator keeps, so a write's split test costs the same on a leaf of
// three records as on one of three hundred with deep histories. CheckSize
// compares it with the walk.
func (p *Page) Size() int { return 32 + p.body }

// sepSize and childSize are a separator's and a child's shares of a branch's
// Size.
func sepSize(key string) int { return len(key) + 6 }

const childSize = 5

// walkBody sums the body from the fields: what body must equal.
func (p *Page) walkBody() int {
	n := 0
	if p.Leaf {
		for i := range p.Recs {
			n += p.Recs[i].size()
		}
		return n
	}
	for _, k := range p.Keys {
		n += sepSize(k)
	}
	return n + childSize*len(p.Children)
}

// CheckSize reports an error when Size differs from the size summed over the
// page's fields: a mutator that lost track of the count (invariant checks and
// tests).
func (p *Page) CheckSize() error {
	if walked := p.walkBody(); p.body != walked {
		return fmt.Errorf("page %d: running size %d, walked %d", p.ID, p.Size(), 32+walked)
	}
	return nil
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
		half.body = half.walkBody()
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
	p.DropChain()
	if p.Leaf {
		i, _ := p.find(splitKey)
		for j := i; j < len(p.Recs); j++ {
			p.body -= p.Recs[j].size()
		}
		p.Recs = p.Recs[:i:i]
		p.Undo = slices.DeleteFunc(p.Undo, func(u Undo) bool { return u.Prior.Key >= splitKey })
		p.Next = right
		return
	}
	i := sort.SearchStrings(p.Keys, splitKey)
	p.Keys = p.Keys[:i:i]
	p.Children = p.Children[: i+1 : i+1]
	p.body = p.walkBody()
}

// Merged returns what consolidating leaf right into p leaves in p's place
// (§5.2.2): both pages' records and undo entries, right's sibling link and
// the per-TC maximum of the two abstract-LSN tables. Neither input is changed.
func (p *Page) Merged(right *Page) *Page {
	m := &Page{ID: p.ID, Leaf: true, Next: right.Next, Ab: *p.Ab.Clone()}
	m.Recs = append(p.Recs[:len(p.Recs):len(p.Recs)], right.Recs...)
	m.Undo = append(p.Undo[:len(p.Undo):len(p.Undo)], right.Undo...)
	m.body = p.body + right.body
	m.Ab.MergeMax(&right.Ab)
	return m
}

// SetContents makes p hold what img, a logged physical image, holds, and
// img's undo tail. p keeps its ID, latch, dLSN (the caller's to stamp) and
// pool bookkeeping.
func (p *Page) SetContents(img *Page) {
	p.DropChain()
	p.Leaf, p.Next, p.Ab = img.Leaf, img.Next, img.Ab
	p.Recs, p.Keys, p.Children, p.Undo = img.Recs, img.Keys, img.Children, img.Undo
	p.body = img.body
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
	if undone > 0 {
		p.DropChain()
	}
	if a := p.Ab.Get(tc); a != nil {
		a.Forget(stable)
	}
	return undone
}

// Forced returns p as far as its TCs have forced it, eosl giving each TC's end
// of stable log: p itself when no entry of its undo tail is above it, else a
// copy, undo tail included, with every such operation rolled back (RollBack).
// p is not changed; the copy shares its records' bytes, which nothing writes
// into (package comment). A system transaction logs the image of this page,
// not of p: a logged image becomes stable with its record, and a page redo
// installs from it has no undo tail a reset could roll back (§4.2, §5.2.2).
func (p *Page) Forced(eosl func(base.TCID) base.LSN) *Page {
	var lost []base.TCID
	for i := range p.Undo {
		if u := &p.Undo[i]; u.LSN > eosl(u.TC) && !slices.Contains(lost, u.TC) {
			lost = append(lost, u.TC)
		}
	}
	if lost == nil {
		return p
	}
	c := &Page{ID: p.ID, Leaf: p.Leaf, DLSN: p.DLSN, Next: p.Next, Ab: *p.Ab.Clone(),
		Recs: slices.Clone(p.Recs), Undo: slices.Clone(p.Undo), body: p.body}
	for _, tc := range lost {
		c.RollBack(tc, eosl(tc))
	}
	return c
}

// Clone returns a deep copy of the page (no volatile bookkeeping, no latch
// state): every byte slice is the clone's own. Keys are strings and stay
// shared with p, and so with the image p was decoded from.
func (p *Page) Clone() *Page {
	c := &Page{ID: p.ID, Leaf: p.Leaf, DLSN: p.DLSN, Next: p.Next, Ab: *p.Ab.Clone(), body: p.body}
	if p.Leaf {
		c.Recs = slices.Clone(p.Recs)
		for i := range c.Recs {
			r := &c.Recs[i]
			r.Value = append([]byte(nil), r.Value...)
			r.Hist = slices.Clone(r.Hist)
			for j := range r.Hist {
				r.Hist[j].Val = append([]byte(nil), r.Hist[j].Val...)
			}
		}
		return c
	}
	c.Keys = append([]string(nil), p.Keys...)
	c.Children = append([]base.PageID(nil), p.Children...)
	return c
}

// Encode serializes the page as a base image, the stable format of a
// consolidating write-back and of a physical DC-log image. The image is a
// fresh buffer that aliases nothing of p.
func (p *Page) Encode() []byte {
	image, _ := p.EncodeAb(0)
	return image
}

// EncodeAb is Encode into a buffer with room for about spare more bytes past
// the image, as far as Size estimates the image, and also says how many of
// the image's bytes are the abstract-LSN table: what page sync (§5.1.2,
// strategy 2) costs this write.
func (p *Page) EncodeAb(spare int) (image []byte, abBytes int) {
	buf := p.appendHeader(make([]byte, 0, p.Size()+spare))
	table := len(buf)
	buf = p.Ab.Append(buf)
	abBytes = len(buf) - table
	if p.Leaf {
		buf = binary.AppendUvarint(buf, uint64(len(p.Recs)))
		for i := range p.Recs {
			buf = appendRecord(buf, &p.Recs[i], false)
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

// delta calls fn, in ascending key order, with each key the next delta frame
// holds, its slot in p and p's record of it, or nil for a key a Remove
// dropped that p does not hold again, whose slot is where it would go, until
// fn returns false. It is one walk over the marked slots, which ascend,
// merging in the removed keys, each at the slot a search finds. It allocates
// nothing: fn does not escape.
func (p *Page) delta(fn func(slot int, key string, r *Record) bool) {
	recs, changed, slot := p.Recs, p.changed, 0
	for _, key := range p.gone {
		at, held := p.find(key)
		for ; slot < at; slot++ {
			if changed[slot] && !fn(slot, recs[slot].Key, &recs[slot]) {
				return
			}
		}
		if !held && !fn(at, key, nil) { // a key put back is framed as its record
			return
		}
	}
	for ; slot < len(changed); slot++ {
		if changed[slot] && !fn(slot, recs[slot].Key, &recs[slot]) {
			return
		}
	}
}

// AppendDelta appends to dst the delta frame that takes p's stable chain
// (Chain) to p, if the frame takes room bytes or fewer, and says how many of
// its bytes are the abstract-LSN table. A frame is its length as a uvarint,
// then the header, the changed keys in ascending order (delta), each as its
// slot in p followed by its record — the record p holds of the key, or,
// flagged gone, the key alone — and last the whole abstract-LSN table: §5.1.2
// holds per chain, since the newest frame's table is the page's, and a decode
// reads no other frame's. The slot comes first so that a decode can write the
// record straight into it (applyFrame).
//
// It is one walk over what changed. Each record is collected (shed) down to
// horizon before it is encoded, in p too, so the chain the frame lands on
// stays p: Replace without the mark, which the records have had, so Size
// follows. A record no frame holds is left alone — collecting it would change
// p and not the chain. The records are encoded after a gap as wide as the
// length, header and key count can be, and one copy closes it once they are
// known. The walk's bound is the length of the frame so far, exactly — the
// records walked, the header, the key count, the table and the length itself
// — which only grows as records are added, so the walk stops as soon as the
// frame must outgrow room, and a frame that is encoded whole fits. When it
// stops, ok is false and dst comes back at its length, over the array the
// encoding grew it into, the bytes past it written over, and what was
// collected stays collected (a full image collects the rest). It allocates
// nothing but dst's growth.
func (p *Page) AppendDelta(dst []byte, horizon base.TS, room int) (frame []byte, abBytes int, ok bool) {
	start, head, ab := len(dst), p.headerLen(), p.Ab.EncodedLen()
	recs := start + head + 2*binary.MaxVarintLen64
	dst = slices.Grow(dst, recs-start)[:recs]
	// n is the frame's length after its length prefix, for the records in
	// dst[recs:].
	keys, n := 0, head+1+ab
	if ok = base.UvarintLen(uint64(n))+n <= room; ok {
		p.delta(func(slot int, key string, r *Record) bool {
			dst = binary.AppendUvarint(dst, uint64(slot))
			if r == nil {
				dst = appendRecord(dst, &Record{Key: key}, true)
			} else {
				p.body -= r.shed(horizon)
				dst = appendRecord(dst, r, false)
			}
			keys++
			n = head + base.UvarintLen(uint64(keys)) + len(dst) - recs + ab
			ok = base.UvarintLen(uint64(n))+n <= room
			return ok
		})
	}
	if !ok {
		return dst[:start], 0, false
	}
	pre := base.UvarintLen(uint64(n)) + head + base.UvarintLen(uint64(keys))
	dst = p.Ab.Append(dst)
	copy(dst[start+pre:], dst[recs:])
	binary.AppendUvarint(p.appendHeader(binary.AppendUvarint(dst[:start], uint64(n))), uint64(keys))
	return dst[:start+pre+len(dst)-recs], ab, true
}

// CollectImage collects every record of a leaf before a full image is
// encoded, and removes a committed tombstone, a deletion whose head is stamped
// at or below horizon: every read the DC still serves finds no key there
// already. It drops the chain, as every whole-page operation does: what
// follows it is a full image.
func (p *Page) CollectImage(horizon base.TS) {
	if horizon == 0 || !p.Leaf {
		return
	}
	p.DropChain()
	kept := 0
	for i := range p.Recs {
		r := &p.Recs[i]
		if r.Tombstone() && r.TS != 0 && r.TS <= horizon {
			p.body -= r.size()
			continue
		}
		p.body -= r.shed(horizon)
		if kept != i {
			p.Recs[kept] = *r
		}
		kept++
	}
	clear(p.Recs[kept:])
	p.Recs = p.Recs[:kept]
}

// headerLen is the length of p's header (appendHeader).
func (p *Page) headerLen() int {
	return base.UvarintLen(uint64(p.ID)) + 1 + base.UvarintLen(uint64(p.DLSN)) + base.UvarintLen(uint64(p.Next))
}

// appendHeader appends what a base image and a delta frame both begin with:
// the page ID, the leaf flag, the dLSN and the sibling link.
func (p *Page) appendHeader(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.ID))
	if p.Leaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(p.DLSN))
	return binary.AppendUvarint(buf, uint64(p.Next))
}

// appendRecord appends r in the stable format; gone, only its key, flagged so.
func appendRecord(buf []byte, r *Record, gone bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	if gone {
		return append(buf, 0, flagGone, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(r.Owner))
	hasTS := r.TS != 0 || len(r.Hist) > 0
	flags := r.Flags
	if hasTS {
		flags |= FlagHasTS
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
	buf = append(buf, r.Value...)
	if !hasTS {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(r.TS))
	buf = binary.AppendUvarint(buf, uint64(len(r.Hist)))
	for j := range r.Hist {
		// A version's length is 0 for a deletion, else its value's length
		// plus one.
		v := &r.Hist[j]
		buf = binary.AppendUvarint(buf, uint64(v.TS))
		if v.Del {
			buf = append(buf, 0)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(len(v.Val))+1)
		buf = append(buf, v.Val...)
	}
	return buf
}

// Decode builds the page an image holds, over the image: it copies no key or
// value (see the package comment for what that asks of every caller). The
// image is a base image (Encode) or, for a leaf, a stable chain: a base image
// and the delta frames (AppendDelta) written onto it since, which Decode
// applies in order. Bytes after a base that are not whole frames, frames
// after a branch, and a base or frame whose keys do not ascend are corrupt.
// The caller gives the image up: it must never be written again. The
// allocations are the page, its abstract-LSN entries and their {LSNin} sets,
// the record or separator array and, if any record has history, one array of
// versions for the base and one for each frame with such a record, whatever
// the number of records, and another, twice as large, whenever one fills.
func Decode(image []byte) (*Page, error) {
	p := &Page{}
	if err := DecodeInto(p, image); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto is Decode into p, a page nothing else refers to any more (the
// buffer pool's evicted frame): p becomes the page the image holds, clean and
// with an empty undo tail, and keeps only its latch and the arrays it can
// reuse — the record or separator and child arrays, the abstract-LSN entries
// and their {LSNin} sets, the FirstDirty map and the change marks and removed
// keys, emptied. So a page that held as many records and LSNs and no history
// allocates nothing. A history array is always new: records copied out of a
// page (Undo.Prior, a split's upper half) share it. The base's records are
// decoded into the record array in order, and a frame's each into the slot
// that still holds its key (applyFrame), so a record a frame overrides is
// never copied. A leaf's chain (Chain) is the image. On an error p holds a
// partial page.
func DecodeInto(p *Page, image []byte) error {
	prefetch(image)
	p.Undo, p.Dirty, p.RecDLSN, p.body = nil, false, 0, 0
	p.DropChain()
	clear(p.FirstDirty)
	leaf, pos := p.header(image)
	p.Leaf = leaf != 0
	if pos < 0 {
		return errCorrupt
	}
	rest, err := ablsn.DecodeTableInto(&p.Ab, image[pos:])
	if err != nil {
		return err
	}
	pos = len(image) - len(rest)
	if !p.Leaf {
		if p.decodeBranch(image, pos) != len(image) {
			return errCorrupt // a branch is written whole: nothing follows it
		}
		return nil
	}
	p.Keys, p.Children = nil, nil
	n, pos := count(image, pos)
	p.Recs = resize(p.Recs, uint64(n))
	if pos = p.records(image, pos, n, false); pos < 0 {
		return errCorrupt
	}
	baseLen := pos
	for pos < len(image) {
		n, start := uvarint(image, pos)
		if start < 0 || n > uint64(len(image)-start) {
			return errCorrupt
		}
		pos = start + int(n)
		if err := p.applyFrame(image[start:pos:pos], pos == len(image)); err != nil {
			return err
		}
	}
	p.SetChain(image, baseLen)
	return nil
}

// header decodes into p what a base image and a delta frame begin with
// (appendHeader), but for the leaf flag, which it returns with the position
// after the header.
func (p *Page) header(b []byte) (leaf byte, pos int) {
	u, pos := uvarint(b, 0)
	p.ID = base.PageID(u)
	if uint(pos) >= uint(len(b)) {
		return 0, -1
	}
	leaf = b[pos]
	u, pos = uvarint(b, pos+1)
	p.DLSN = base.DLSN(u)
	u, pos = uvarint(b, pos)
	p.Next = base.PageID(u)
	return leaf, pos
}

// decodeBranch decodes a branch's separators and children from b at pos and
// returns the position after them.
func (p *Page) decodeBranch(b []byte, pos int) int {
	p.Recs = nil
	n, pos := uvarint(b, pos)
	if pos < 0 || n > uint64(len(b)-pos) {
		return -1
	}
	p.Keys = resize(p.Keys, n)
	var k []byte
	for i := range p.Keys {
		n, pos = uvarint(b, pos)
		k, pos = take(b, pos, n)
		p.Keys[i] = str(k)
		p.body += sepSize(p.Keys[i])
	}
	n, pos = uvarint(b, pos)
	if pos < 0 || n > uint64(len(b)-pos)+1 {
		return -1
	}
	p.Children = resize(p.Children, n)
	for i := range p.Children {
		n, pos = uvarint(b, pos)
		p.Children[i] = base.PageID(n)
	}
	p.body += childSize * len(p.Children)
	return pos
}

// applyFrame applies f, a delta frame without its length (AppendDelta), to p,
// a leaf: the header's dLSN and sibling link, each record — decoded straight
// over p's record where its slot holds its key, else through Put, or, flagged
// gone, through Remove — and, if it is the chain's last frame, its
// abstract-LSN table. A frame must name p, hold its keys in ascending order
// without repeats and, if last, end where its table does.
func (p *Page) applyFrame(f []byte, last bool) error {
	id := p.ID
	leaf, pos := p.header(f)
	n, pos := count(f, pos)
	if leaf != 1 || p.ID != id || pos < 0 {
		return errCorrupt
	}
	if pos = p.records(f, pos, n, true); pos < 0 {
		return errCorrupt
	}
	if !last {
		return nil // a later frame's table replaces this one's
	}
	rest, err := ablsn.DecodeTableInto(&p.Ab, f[pos:])
	if err == nil && len(rest) > 0 {
		err = errCorrupt
	}
	return err
}

// resize returns s with length n, over s's array when n fits in it; the
// elements are the caller's to overwrite, and those past n are zeroed, so that
// a recycled array keeps no image of its last page alive.
func resize[T any](s []T, n uint64) []T {
	if n > uint64(cap(s)) {
		return make([]T, n)
	}
	clear(s[n:cap(s)])
	return s[:n]
}

var errCorrupt = fmt.Errorf("page: corrupt encoding")

// prefetch reads one byte of every 64-byte cache line of b. A miss decodes an
// image no CPU cache holds, and each record's position depends on the lengths
// before it, so the decode alone waits out one memory load after another;
// these loads depend on nothing, so the CPU overlaps them, and the decode then
// reads cached bytes. On the benchmark's direct_big workload (a 2-vCPU Xeon
// VM, two 10 s runs a side) it took read_p50_ms from 0.0128 ms to 0.0120 ms.
// It is not inlined, so that the compiler keeps the loads although nothing
// uses their sum.
//
//go:noinline
func prefetch(b []byte) (sum byte) {
	for i := 0; i < len(b); i += 64 {
		sum += b[i]
	}
	return sum
}

// The decoder reads an image through a cursor, a position in it held by the
// caller, which each function below takes and returns: -1, taken or
// returned, marks the image corrupt. What they return aliases the image.

// uvarint returns the uvarint at pos and the position after it. It is
// inlined, loop and all, so the one-byte case — nearly every length, owner,
// slot and count of a page — costs no call. A uvarint longer than ten bytes
// is corrupt.
func uvarint(b []byte, pos int) (u uint64, next int) {
	if uint(pos) < uint(len(b)) && b[pos] < 0x80 {
		return uint64(b[pos]), pos + 1
	}
	for shift := uint(0); uint(pos) < uint(len(b)) && shift < 64; shift += 7 {
		c := b[pos]
		pos++
		if u |= uint64(c&0x7f) << shift; c < 0x80 {
			return u, pos
		}
	}
	return 0, -1
}

// count returns the record count at pos and the position after it. A record
// is four bytes or more, so the bytes left bound what a corrupt count can
// make a decode allocate.
func count(b []byte, pos int) (int, int) {
	n, pos := uvarint(b, pos)
	if pos < 0 || n > uint64(len(b)-pos)/4 {
		return 0, -1
	}
	return int(n), pos
}

// take returns the n bytes at pos, nil for none, clipped to their own length
// so that an append to them cannot reach the field behind them, and the
// position after them.
func take(b []byte, pos int, n uint64) ([]byte, int) {
	if pos < 0 || n > uint64(len(b)-pos) {
		return nil, -1
	}
	if n == 0 {
		return nil, pos
	}
	end := pos + int(n)
	return b[pos:end:end], end
}

// str returns a field take returned as a string laid over the image's bytes
// by unsafe.String, which is sound exactly because an image is never written
// once Decode has it. The alternative that needs no unsafe, one string(image)
// conversion per page with the keys cut from it, copies the page once more
// and keeps two copies of every cached page alive, one under the keys and one
// under the values.
func str(field []byte) string { return unsafe.String(unsafe.SliceData(field), len(field)) }

// records decodes n records at pos, whose keys ascend without repeats, and
// returns the position after them: a base image's (frame false) into p.Recs,
// which has length n, in order, and a delta frame's each after its slot — over p's record where the slot holds
// the record's key, else through Put, or, flagged gone, Remove — keeping
// p.body. One loop serves both and every field, with the cursor in locals:
// it is most of what a cache miss costs. Histories share arrays made here,
// so never one a record copied out of a page holds; a full array stays with
// the records that hold it, and the next is twice as large.
func (p *Page) records(b []byte, pos, n int, frame bool) int {
	var (
		hist      []Version
		moved     Record
		key, prev string
		slot, u   uint64
		k         []byte
	)
	for i := range n {
		if slot = uint64(i); frame {
			slot, pos = uvarint(b, pos)
		}
		u, pos = uvarint(b, pos)
		k, pos = take(b, pos, u)
		key = str(k)
		r := &moved
		switch {
		case i > 0 && key <= prev:
			return -1 // keys ascend without repeats, a base's as a frame's
		case !frame:
			r = &p.Recs[i]
		case slot < uint64(len(p.Recs)) && p.Recs[slot].Key == key:
			r = &p.Recs[slot]
			p.body -= r.size()
		}
		prev, r.Key = key, key
		u, pos = uvarint(b, pos)
		r.Owner = base.TCID(u)
		if uint(pos) >= uint(len(b)) {
			return -1
		}
		r.Flags = b[pos]
		u, pos = uvarint(b, pos+1)
		r.Value, pos = take(b, pos, u)
		r.TS, r.Hist = 0, nil
		if r.Flags&flagGone != 0 && (!frame || r.Flags != flagGone || r.Owner != 0 || r.Value != nil) {
			return -1
		}
		if r.Flags&FlagHasTS != 0 {
			r.Flags &^= FlagHasTS
			u, pos = uvarint(b, pos)
			r.TS = base.TS(u)
			// A history entry is two bytes or more.
			if u, pos = uvarint(b, pos); pos < 0 || u > uint64(len(b)-pos)/2 {
				return -1
			}
			if hn := int(u); hn > 0 {
				if len(hist)+hn > cap(hist) {
					hist = make([]Version, 0, max(hn, n-i, 2*cap(hist)))
				}
				for range hn {
					u, pos = uvarint(b, pos)
					v := Version{TS: base.TS(u)}
					// A version's length is 0 for a deletion, else its
					// value's length plus one.
					if u, pos = uvarint(b, pos); u == 0 {
						v.Del = true
					} else {
						v.Val, pos = take(b, pos, u-1)
					}
					hist = append(hist, v)
				}
				r.Hist = hist[len(hist)-hn : len(hist) : len(hist)]
			}
		}
		if pos < 0 || r.HasBefore() && r.Hist == nil {
			return -1 // a before version is the last entry of Hist
		}
		switch {
		case r != &moved:
			p.body += r.size()
			if r.Flags&flagGone != 0 {
				p.Remove(key)
			}
		case r.Flags&flagGone != 0:
			p.Remove(key)
		default:
			p.Put(moved)
		}
	}
	return pos
}

// Equal reports deep equality of page contents (test helper; ignores
// volatile bookkeeping).
func (p *Page) Equal(q *Page) bool {
	return bytes.Equal(p.Encode(), q.Encode())
}
