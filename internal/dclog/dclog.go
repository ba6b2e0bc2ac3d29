// Package dclog defines the DC-log record vocabulary for system
// transactions (§5.2.2). System transactions here are single redo-only log
// records: a structure modification is logged atomically at completion and
// forced before any affected page can reach stable storage, so there are
// never incomplete system transactions to undo. Recovery replays them in
// dLSN order *before* any TC redo, restoring well-formed search structures
// (§4.2 "Recovery").
//
// Per the paper:
//   - a page split logs the new page's full contents including its
//     abstract LSN, but only the split key for the pre-split page (§5.2.2
//     "Page Splits");
//   - a page delete/consolidation logs the consolidated page physically,
//     with an abstract LSN that is the per-TC maximum of the two input
//     pages, forcing the delete to keep its position in the execution
//     order relative to TC operations (§5.2.2 "Page Deletes/Consolidates").
package dclog

import (
	"encoding/binary"
	"fmt"

	"github.com/cidr09/unbundled/internal/base"
)

// Record kinds.
const (
	// KindCreateTree creates a table's root leaf and catalog entry.
	KindCreateTree uint8 = iota + 1
	// KindSplit is a leaf or branch page split.
	KindSplit
	// KindConsolidate merges a right page into its left sibling and frees
	// the right page.
	KindConsolidate
	// KindRootCollapse replaces a single-child branch root by its child.
	KindRootCollapse
	// KindEpochs snapshots the DC's own incarnation number and the per-TC
	// incarnation-epoch table. A record is forced by every DC recovery
	// (which bumps the number) and whenever a TC's fence rises, and
	// re-appended ahead of any truncation that would discard the latest
	// snapshot, so a recovered DC always rebuilds the fences — a dead TC
	// incarnation's requests stay fenced across DC crashes, and every TC
	// they name owes this DC incarnation a resend — and never reuses a
	// number.
	KindEpochs
)

// TCEpoch is one entry of an epoch snapshot.
type TCEpoch struct {
	TC    base.TCID
	Epoch base.Epoch
}

// Epochs is the payload of KindEpochs: the DC incarnation that wrote it and
// the full per-TC epoch table at the time (full snapshots keep replay
// trivially idempotent — everything is applied with max semantics).
type Epochs struct {
	Inc    base.DCInc
	Epochs []TCEpoch
}

// CreateTree is the payload of KindCreateTree.
type CreateTree struct {
	Table     string
	RootID    base.PageID
	RootImage []byte
}

// Split is the payload of KindSplit. RightImage is the full encoding of
// the new page at split time (abstract LSNs included). For a root split,
// NewRootID is nonzero and a fresh branch page [SplitKey; Left,Right]
// becomes the root.
type Split struct {
	Table      string
	Leaf       bool
	LeftID     base.PageID
	RightID    base.PageID
	SplitKey   string
	RightImage []byte
	ParentID   base.PageID // 0 for a root split
	NewRootID  base.PageID // 0 unless root split
}

// Consolidate is the payload of KindConsolidate. LeftImage is the physical
// image of the consolidated page (key range and contents as immediately
// after the consolidation, abstract LSN = per-TC max of the two pages).
type Consolidate struct {
	Table     string
	LeftID    base.PageID
	RightID   base.PageID // freed
	ParentID  base.PageID
	LeftImage []byte
}

// RootCollapse is the payload of KindRootCollapse.
type RootCollapse struct {
	Table     string
	OldRootID base.PageID
	NewRootID base.PageID
}

// --- encoding ---------------------------------------------------------

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// Encode serializes the record payload.
func (r *CreateTree) Encode() []byte {
	buf := appendStr(nil, r.Table)
	buf = binary.AppendUvarint(buf, uint64(r.RootID))
	return appendBytes(buf, r.RootImage)
}

// Encode serializes the record payload.
func (r *Split) Encode() []byte {
	buf := appendStr(nil, r.Table)
	if r.Leaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(r.LeftID))
	buf = binary.AppendUvarint(buf, uint64(r.RightID))
	buf = appendStr(buf, r.SplitKey)
	buf = appendBytes(buf, r.RightImage)
	buf = binary.AppendUvarint(buf, uint64(r.ParentID))
	buf = binary.AppendUvarint(buf, uint64(r.NewRootID))
	return buf
}

// Encode serializes the record payload.
func (r *Consolidate) Encode() []byte {
	buf := appendStr(nil, r.Table)
	buf = binary.AppendUvarint(buf, uint64(r.LeftID))
	buf = binary.AppendUvarint(buf, uint64(r.RightID))
	buf = binary.AppendUvarint(buf, uint64(r.ParentID))
	return appendBytes(buf, r.LeftImage)
}

// Encode serializes the record payload.
func (r *RootCollapse) Encode() []byte {
	buf := appendStr(nil, r.Table)
	buf = binary.AppendUvarint(buf, uint64(r.OldRootID))
	buf = binary.AppendUvarint(buf, uint64(r.NewRootID))
	return buf
}

// Encode serializes the record payload.
func (r *Epochs) Encode() []byte {
	buf := binary.AppendUvarint(nil, uint64(r.Inc))
	buf = binary.AppendUvarint(buf, uint64(len(r.Epochs)))
	for _, e := range r.Epochs {
		buf = binary.AppendUvarint(buf, uint64(e.TC))
		buf = binary.AppendUvarint(buf, uint64(e.Epoch))
	}
	return buf
}

type reader struct {
	buf []byte
	err error
}

var errCorrupt = fmt.Errorf("dclog: corrupt record")

func (d *reader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	u, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = errCorrupt
		return 0
	}
	d.buf = d.buf[n:]
	return u
}

func (d *reader) str() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.err = errCorrupt
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

func (d *reader) bytes() []byte {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.err = errCorrupt
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out
}

func (d *reader) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.buf) == 0 {
		d.err = errCorrupt
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

// DecodeCreateTree parses a KindCreateTree payload.
func DecodeCreateTree(buf []byte) (*CreateTree, error) {
	d := reader{buf: buf}
	r := &CreateTree{Table: d.str()}
	r.RootID = base.PageID(d.uvarint())
	r.RootImage = d.bytes()
	return r, d.err
}

// DecodeSplit parses a KindSplit payload.
func DecodeSplit(buf []byte) (*Split, error) {
	d := reader{buf: buf}
	r := &Split{Table: d.str()}
	r.Leaf = d.byte() != 0
	r.LeftID = base.PageID(d.uvarint())
	r.RightID = base.PageID(d.uvarint())
	r.SplitKey = d.str()
	r.RightImage = d.bytes()
	r.ParentID = base.PageID(d.uvarint())
	r.NewRootID = base.PageID(d.uvarint())
	return r, d.err
}

// DecodeConsolidate parses a KindConsolidate payload.
func DecodeConsolidate(buf []byte) (*Consolidate, error) {
	d := reader{buf: buf}
	r := &Consolidate{Table: d.str()}
	r.LeftID = base.PageID(d.uvarint())
	r.RightID = base.PageID(d.uvarint())
	r.ParentID = base.PageID(d.uvarint())
	r.LeftImage = d.bytes()
	return r, d.err
}

// DecodeRootCollapse parses a KindRootCollapse payload.
func DecodeRootCollapse(buf []byte) (*RootCollapse, error) {
	d := reader{buf: buf}
	r := &RootCollapse{Table: d.str()}
	r.OldRootID = base.PageID(d.uvarint())
	r.NewRootID = base.PageID(d.uvarint())
	return r, d.err
}

// DecodeEpochs parses a KindEpochs payload.
func DecodeEpochs(buf []byte) (*Epochs, error) {
	d := reader{buf: buf}
	inc := base.DCInc(d.uvarint())
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) { // each entry is >= 2 bytes
		return nil, errCorrupt
	}
	r := &Epochs{Inc: inc, Epochs: make([]TCEpoch, 0, n)}
	for i := uint64(0); i < n; i++ {
		tc := base.TCID(d.uvarint())
		ep := base.Epoch(d.uvarint())
		if d.err != nil {
			return nil, d.err
		}
		r.Epochs = append(r.Epochs, TCEpoch{TC: tc, Epoch: ep})
	}
	return r, nil
}

// Logger is what the B-tree needs from the DC's log manager to make
// structure modifications recoverable.
type Logger interface {
	// AppendSMO appends a system-transaction record and returns its dLSN.
	AppendSMO(kind uint8, payload []byte) base.DLSN
	// ForceSMO makes the DC-log stable through dlsn. Consolidations force
	// before freeing the right page: a stable free without its log record
	// would lose data.
	ForceSMO(dlsn base.DLSN)
}
