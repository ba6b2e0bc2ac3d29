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
	"bytes"
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
	// KindConsolidate merges a right page into its left sibling and deletes
	// the right page (freed once the record is truncated).
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
	RightID   base.PageID // deleted
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

// Encode serializes the record payload.
func (r *CreateTree) Encode() []byte {
	buf := base.AppendField(nil, r.Table)
	buf = binary.AppendUvarint(buf, uint64(r.RootID))
	return base.AppendField(buf, r.RootImage)
}

// Encode serializes the record payload.
func (r *Split) Encode() []byte {
	buf := base.AppendField(nil, r.Table)
	if r.Leaf {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(r.LeftID))
	buf = binary.AppendUvarint(buf, uint64(r.RightID))
	buf = base.AppendField(buf, r.SplitKey)
	buf = base.AppendField(buf, r.RightImage)
	buf = binary.AppendUvarint(buf, uint64(r.ParentID))
	buf = binary.AppendUvarint(buf, uint64(r.NewRootID))
	return buf
}

// Encode serializes the record payload.
func (r *Consolidate) Encode() []byte {
	buf := base.AppendField(nil, r.Table)
	buf = binary.AppendUvarint(buf, uint64(r.LeftID))
	buf = binary.AppendUvarint(buf, uint64(r.RightID))
	buf = binary.AppendUvarint(buf, uint64(r.ParentID))
	return base.AppendField(buf, r.LeftImage)
}

// Encode serializes the record payload.
func (r *RootCollapse) Encode() []byte {
	buf := base.AppendField(nil, r.Table)
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

// The decoders parse exactly one payload of their kind: a short field, a
// non-minimal varint and a byte past the end are corruption. A decoded
// record's strings and images are copies, so that a page built from an
// image owns its bytes.

var errCorrupt = fmt.Errorf("dclog: corrupt record")

// decoded returns r once d has read the whole payload.
func decoded[T any](r *T, d *base.Decoder) (*T, error) {
	if !d.End() {
		return nil, errCorrupt
	}
	return r, nil
}

// DecodeCreateTree parses a KindCreateTree payload.
func DecodeCreateTree(buf []byte) (*CreateTree, error) {
	d := base.NewDecoder(buf)
	r := &CreateTree{Table: string(d.Field()), RootID: base.PageID(d.Uvarint()),
		RootImage: bytes.Clone(d.Field())}
	return decoded(r, &d)
}

// DecodeSplit parses a KindSplit payload.
func DecodeSplit(buf []byte) (*Split, error) {
	d := base.NewDecoder(buf)
	r := &Split{Table: string(d.Field()), Leaf: d.Byte() != 0, LeftID: base.PageID(d.Uvarint()),
		RightID: base.PageID(d.Uvarint()), SplitKey: string(d.Field()), RightImage: bytes.Clone(d.Field()),
		ParentID: base.PageID(d.Uvarint()), NewRootID: base.PageID(d.Uvarint())}
	return decoded(r, &d)
}

// DecodeConsolidate parses a KindConsolidate payload.
func DecodeConsolidate(buf []byte) (*Consolidate, error) {
	d := base.NewDecoder(buf)
	r := &Consolidate{Table: string(d.Field()), LeftID: base.PageID(d.Uvarint()),
		RightID: base.PageID(d.Uvarint()), ParentID: base.PageID(d.Uvarint()), LeftImage: bytes.Clone(d.Field())}
	return decoded(r, &d)
}

// DecodeRootCollapse parses a KindRootCollapse payload.
func DecodeRootCollapse(buf []byte) (*RootCollapse, error) {
	d := base.NewDecoder(buf)
	r := &RootCollapse{Table: string(d.Field()), OldRootID: base.PageID(d.Uvarint()),
		NewRootID: base.PageID(d.Uvarint())}
	return decoded(r, &d)
}

// DecodeEpochs parses a KindEpochs payload.
func DecodeEpochs(buf []byte) (*Epochs, error) {
	d := base.NewDecoder(buf)
	r := &Epochs{Inc: base.DCInc(d.Uvarint())}
	r.Epochs = make([]TCEpoch, d.Count())
	for i := range r.Epochs {
		r.Epochs[i] = TCEpoch{TC: base.TCID(d.Uvarint()), Epoch: base.Epoch(d.Uvarint())}
	}
	return decoded(r, &d)
}

// Logger is what the B-tree needs from the DC's log manager to make
// structure modifications recoverable.
type Logger interface {
	// AppendSMO appends a system-transaction record and returns its dLSN,
	// or zero if the log refuses it (the DC incarnation that decided the
	// modification has crashed), which refuses the modification.
	AppendSMO(kind uint8, payload []byte) base.DLSN
	// ForceSMO makes the DC-log stable through dlsn (a table creation is
	// durable when it returns).
	ForceSMO(dlsn base.DLSN)
}
