package base

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// Op is one logical, record-oriented operation sent from a TC to a DC
// (§4.2.1 perform_operation). It carries the operation name and arguments
// (table, key or key range) and, when the TC logged it, the unique request
// identifier LSN. Resends reuse the identifier so the DC can provide
// idempotence.
type Op struct {
	TC TCID
	// Epoch is the incarnation epoch of the sending TC. The DC rejects
	// operations stamped with an epoch older than the one installed by the
	// TC's last begin_restart (CodeStaleEpoch), fencing requests that were
	// still on the wire when that incarnation died. Zero means "unstamped"
	// (pre-epoch encodings); it is never fenced unless a restart has been
	// seen.
	Epoch Epoch
	// LSN is the request ID of a logged operation: its TC-log record's LSN.
	// Zero for reads, which need none — zero means "unlogged".
	LSN    LSN
	Kind   OpKind
	Table  string
	Key    string
	EndKey string // exclusive upper bound for OpRangeRead
	Value  []byte // payload for insert/update/upsert
	Limit  int32  // max results for probe/range reads
	Flavor ReadFlavor
	// Versioned selects versioned writes (§6.2.2): the DC keeps the before
	// version so other TCs can perform read-committed reads.
	Versioned bool
	// TS is the operation's timestamp: the snapshot timestamp of a
	// ReadSnapshot read (or range read), or the commit timestamp of a
	// versioned write, which leaves at its transaction's commit. Zero means
	// "no timestamp": a read that is not a snapshot's or an unversioned
	// write. A DC refuses a versioned write without one (CodeBadRequest).
	TS TS
	// DCInc is the DC incarnation a resend is bound to: the TC stamps the
	// operations of a resend with the number the DC's first CodeStaleDC
	// named, and the DC executes a stamped operation only in that
	// incarnation. Zero (every operation outside a resend) is admitted once
	// the TC's resend to the incarnation has ended.
	DCInc DCInc
}

func (o *Op) String() string {
	return fmt.Sprintf("op{tc=%d ep=%d dc=%d lsn=%d %s %s/%q}", o.TC, o.Epoch, o.DCInc, o.LSN, o.Kind, o.Table, o.Key)
}

// ConflictsWith reports whether two operations logically conflict: same
// table and overlapping footprint with at least one writer. The TC must
// never have two conflicting operations outstanding at a DC concurrently
// (§1.2); the DC asserts this in debug builds.
func (o *Op) ConflictsWith(p *Op) bool {
	if o.Table != p.Table {
		return false
	}
	if !o.Kind.IsWrite() && !p.Kind.IsWrite() {
		return false
	}
	// Versioned reads never conflict with writes (§6.2.2); dirty reads
	// never conflict by definition (§6.2.1).
	if isNonBlockingRead(o) || isNonBlockingRead(p) {
		return false
	}
	return footprintOverlap(o, p)
}

func isNonBlockingRead(o *Op) bool {
	if o.Kind.IsWrite() {
		return false
	}
	return o.Flavor == ReadDirty || o.Flavor == ReadCommitted || o.Flavor == ReadSnapshot
}

func footprintOverlap(o, p *Op) bool {
	lo1, hi1, pt1 := footprint(o)
	lo2, hi2, pt2 := footprint(p)
	if pt1 && pt2 {
		return lo1 == lo2
	}
	if pt1 {
		return lo2 <= lo1 && (hi2 == "" || lo1 < hi2)
	}
	if pt2 {
		return lo1 <= lo2 && (hi1 == "" || lo2 < hi1)
	}
	// range vs range
	if hi1 != "" && hi1 <= lo2 {
		return false
	}
	if hi2 != "" && hi2 <= lo1 {
		return false
	}
	return true
}

func footprint(o *Op) (lo, hi string, point bool) {
	switch o.Kind {
	case OpRangeRead, OpScanProbe:
		return o.Key, o.EndKey, false
	default:
		return o.Key, "", true
	}
}

// Result is the reply for one operation; LSN echoes the request identifier
// (zero for an unlogged operation) so the reply can be correlated to the
// request (§4.2.1).
type Result struct {
	LSN   LSN
	Code  Code
	Found bool
	Value []byte
	// Keys/Values carry probe and range-read results.
	Keys   []string
	Values [][]byte
	// Applied is true when the DC recognized the request as already
	// reflected in its state and skipped re-execution (idempotence, §4.2).
	Applied bool
	// DCInc is the answering DC's incarnation, on CodeStaleDC only.
	DCInc DCInc
}

// Err returns the failure of the result as an error, nil when CodeOK.
func (r *Result) Err() error { return r.Code.Err() }

// Service is the TC:DC interface of §4.2.1, expressed as methods invoked by
// the TC. Implementations: the DC itself (direct, in-process) and the wire
// client stub (asynchronous messages with resend).
//
// The contract is §4.2's, narrowed: a logged operation reaches a DC only once
// it is stable in its TC's log. The paper lets a TC send earlier, and makes
// the DC keep causality for it — write no page back before the TC's end of
// stable log covers it, and undo a failed TC's lost operations at its
// restart. Under the narrowed contract a TC crash takes back nothing a DC
// holds, so the DC keeps no undo information and gates no flush on a TC.
//
// Blocking calls take a context and honor its cancellation and deadline: an
// abandoned PerformBatch answers CodeCancelled, an abandoned control call an
// ErrCancelled-wrapped ctx error. Cancellation abandons only the *wait* —
// a request already on the wire may still execute at the DC, which is why
// the TC never cancels the delivery of logged (mutating) operations: their
// resend/redo contract must run to completion. Watermark broadcasts are
// fire-and-forget and take no context: EndOfStableLog and LowWaterMark are
// hints a transport may hold for its next frame toward that DC; SafeTS is
// sent when called and carries whatever is held. A caller whose next step
// depends on the marks being at the DC (a checkpoint) therefore calls all
// three, SafeTS last; one that only reports progress (a commit) calls the
// first two and lets them ride.
//
// Ownership. An Op passed to PerformBatch (or Perform) is the caller's, lent
// for the call: the caller may have drawn it from storage it reuses (a
// transaction keeps its operations in itself), so a Service must be done with
// the Op — encoded, executed, copied from — when the call returns, and may
// keep nothing that points into it or into its Value (the wire decodes a
// request in place, so a Value may be a connection's read buffer). A Result
// returned is the caller's from then on: a Service makes new results per call
// (NewResults builds them) and never touches them again.
type Service interface {
	// Perform is PerformBatch of op alone. No TC calls it: it stays while the
	// benchmark's tracing decorator forwards it.
	Perform(ctx context.Context, op *Op) *Result
	// PerformBatch executes a batch of logical operations in the given
	// order, returning one result per operation, positionally: a logged one
	// (LSN nonzero) exactly once (resend + idempotence), a read at least
	// once, which for a read is as good. It is the one execute call: a TC
	// sends what a commit has for one DC as one batch, and a lone read as a
	// batch of one. Each logged operation keeps its own LSN request ID, so
	// resending a whole batch stays idempotent per operation. It blocks until
	// all replies are available or ctx is done.
	PerformBatch(ctx context.Context, ops []*Op) []*Result
	// EndOfStableLog tells the DC that all operations with LSN <= eosl are
	// stable in the TC log and will not be lost in a TC crash. Under the
	// narrowed contract every operation a DC holds is, so no DC acts on it.
	EndOfStableLog(tc TCID, epoch Epoch, eosl LSN)
	// LowWaterMark tells the DC the TC has received replies for every
	// operation with LSN <= lwm, so there are no gaps below lwm among the
	// operations reflected in cached pages (§5.1.2). A TC sends no mark
	// above its end of stable log: a restarted TC hands out the LSNs above
	// it again. Marks stamped with a fenced epoch are ignored.
	LowWaterMark(tc TCID, epoch Epoch, lwm LSN)
	// Checkpoint asks the DC to make stable every page containing effects
	// of operations with LSN < newRSSP. When it returns nil, the contract
	// requiring the TC to be able to resend those operations is released
	// and the TC may advance its redo scan start point (§4.2.1). The TC
	// may propose any point at or below its low-water mark + 1 (tc's
	// proposes the one its previous checkpoint took), and the DC may make
	// more pages stable than asked (dc's does while its pool evicts). A
	// checkpoint from a fenced epoch fails with ErrStaleEpoch.
	Checkpoint(ctx context.Context, tc TCID, epoch Epoch, newRSSP LSN) error
	// BeginRestart opens the resend bracket of one TC incarnation at this
	// DC incarnation; the TC then resends its redo stream (stamped with the
	// DCInc the first CodeStaleDC names) and closes the bracket with
	// EndRestart. One bracket serves both failures of §5.3. After a TC
	// restart the epoch is new: the DC installs it as the TC's fence,
	// durably, and from this point every operation, watermark or control
	// call stamped with an older epoch is refused. Nothing is undone: the
	// TC lost nothing beyond stableLSN that a DC was sent. After a DC
	// restart the epoch is the fence the DC recovered. A BeginRestart whose
	// epoch is older than the fence fails with ErrStaleEpoch; one for the
	// installed epoch whose resend has already ended here fails with
	// ErrNothingOwed (a TC that only asks replays nothing); a duplicate
	// while the bracket is open is a no-op.
	BeginRestart(ctx context.Context, tc TCID, epoch Epoch, stableLSN LSN) error
	// EndRestart closes the bracket: the TC's resend to this DC incarnation
	// is complete, so the DC adopts its low-water marks and safe
	// timestamps, admits its checkpoints and unstamped operations again,
	// and discards whatever the prior TC incarnation still had queued
	// (fenced in-flight operations). Fails with ErrStaleEpoch when epoch is
	// older than the installed fence (a dead incarnation's late call), and
	// with ErrStaleDC when this DC incarnation did not see the bracket begin
	// (the DC restarted under the resend, which must start over).
	EndRestart(ctx context.Context, tc TCID, epoch Epoch) error
	// SafeTS broadcasts the TC's safe timestamp and version-GC horizon,
	// fire-and-forget like the watermarks. safe promises that every
	// versioned commit this TC assigned a timestamp <= safe has its
	// stamped writes at the DCs and its commit record forced, and that no
	// future commit of this TC will be assigned a timestamp <= safe: a
	// version the TC stamped at or below it is committed, which is how a
	// DC answers read-committed reads, and a snapshot read at T is served
	// once every registered TC's safe covers T. horizon promises no live (or
	// future) snapshot of this TC will read below it, releasing versions
	// and tombstones older than the horizon for garbage collection.
	// Epoch-fenced like EndOfStableLog.
	SafeTS(tc TCID, epoch Epoch, safe TS, horizon TS)
}

// op/result wire encodings -------------------------------------------------
//
// The decoders work in place: a decoded operation's Value, and a decoded
// result's Value and Values, alias the bytes they were decoded from (their
// capacities clipped, so an append cannot reach the bytes behind), while
// strings are copied, all of one operation's or one frame's in one
// allocation. So a decoded operation or result is valid for as long as its
// bytes are not written again: a caller that decodes from a buffer it reuses
// is done with every Value before it reuses the buffer, and everything else
// may keep what it decoded.

// opEpochFlag marks, on the kind byte, that an epoch varint follows the
// fixed three-byte group. OpKind values are tiny, so the high bit is free; an
// epoch-less (pre-epoch) frame never sets it, which keeps old encodings
// decodable and makes epoch-zero frames byte-identical to them.
const opEpochFlag = 0x80

// opTSFlag marks, on the kind byte, that a timestamp varint follows the
// epoch (when present). Like the epoch flag, a zero-TS operation never
// sets it, so pre-snapshot encodings stay byte-identical and decodable.
const opTSFlag = 0x40

// opDCIncFlag marks, on the kind byte, that a DC-incarnation varint follows
// the timestamp (when present). Only a resend is stamped, so every other
// frame stays byte-identical to its encoding before the stamp existed.
const opDCIncFlag = 0x20

// AppendOp serializes op to buf using a compact length-prefixed binary
// format (stdlib encoding/binary varints), growing buf at most once.
func AppendOp(buf []byte, o *Op) []byte {
	return appendOp(grow(buf, opLen(o)), o)
}

func appendOp(buf []byte, o *Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(o.TC))
	buf = binary.AppendUvarint(buf, uint64(o.LSN))
	kind := byte(o.Kind)
	if o.Epoch != 0 {
		kind |= opEpochFlag
	}
	if o.TS != 0 {
		kind |= opTSFlag
	}
	if o.DCInc != 0 {
		kind |= opDCIncFlag
	}
	buf = append(buf, kind, byte(o.Flavor), boolByte(o.Versioned))
	if o.Epoch != 0 {
		buf = binary.AppendUvarint(buf, uint64(o.Epoch))
	}
	if o.TS != 0 {
		buf = binary.AppendUvarint(buf, uint64(o.TS))
	}
	if o.DCInc != 0 {
		buf = binary.AppendUvarint(buf, uint64(o.DCInc))
	}
	buf = AppendField(buf, o.Table)
	buf = AppendField(buf, o.Key)
	buf = AppendField(buf, o.EndKey)
	buf = AppendField(buf, o.Value)
	buf = binary.AppendVarint(buf, int64(o.Limit))
	return buf
}

// opLen is the length of op's encoding.
func opLen(o *Op) int {
	n := UvarintLen(uint64(o.TC)) + UvarintLen(uint64(o.LSN)) + 3
	for _, u := range [...]uint64{uint64(o.Epoch), uint64(o.TS), uint64(o.DCInc)} {
		if u != 0 {
			n += UvarintLen(u)
		}
	}
	for _, f := range [...]int{len(o.Table), len(o.Key), len(o.EndKey), len(o.Value)} {
		n += UvarintLen(uint64(f)) + f
	}
	return n + varintLen(int64(o.Limit))
}

// DecodeOp parses an operation previously produced by AppendOp and returns
// the remaining bytes. Frames without the epoch flag (all pre-epoch
// encodings) decode with Epoch zero. The operation's Value aliases buf;
// Table, Key and EndKey are copied, in one allocation.
func DecodeOp(buf []byte) (*Op, []byte, error) {
	d := NewDecoder(buf)
	o := d.Op()
	if d.err != nil {
		return nil, nil, d.err
	}
	return o, d.Rest(), nil
}

// Op reads an operation (AppendOp), as DecodeOp does; nil once the decoding
// has failed.
func (d *Decoder) Op() *Op {
	o := new(Op)
	f := d.op(o)
	if d.err != nil {
		return nil
	}
	s := string(d.buf[f[0].lo:f[2].hi])
	o.Table, o.Key, o.EndKey = f[0].cut(s, f[0].lo), f[1].cut(s, f[0].lo), f[2].cut(s, f[0].lo)
	return o
}

// op decodes the operation at d's position into o, all but its string
// fields, and returns where Table, Key and EndKey lie in d.buf.
func (d *Decoder) op(o *Op) [3]span {
	o.TC = TCID(d.Uvarint())
	o.LSN = LSN(d.Uvarint())
	kind, flavor, versioned := d.group()
	o.Kind, o.Flavor, o.Versioned = OpKind(kind&^(opEpochFlag|opTSFlag|opDCIncFlag)), ReadFlavor(flavor), versioned != 0
	if o.Kind >= opRetired {
		d.Fail(fmt.Errorf("base: operation kind %d is retired or unknown", o.Kind))
	}
	if kind&opEpochFlag != 0 {
		o.Epoch = Epoch(d.Uvarint())
	}
	if kind&opTSFlag != 0 {
		o.TS = TS(d.Uvarint())
	}
	if kind&opDCIncFlag != 0 {
		o.DCInc = DCInc(d.Uvarint())
	}
	f := [3]span{d.span(), d.span(), d.span()}
	o.Value = d.Field()
	o.Limit = int32(d.varint())
	return f
}

// AppendResult serializes r to buf. DCInc is encoded on CodeStaleDC, the one
// result that carries it, so every other result's bytes are what they were
// before it existed.
func AppendResult(buf []byte, r *Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.LSN))
	buf = append(buf, byte(r.Code), boolByte(r.Found), boolByte(r.Applied))
	if r.Code == CodeStaleDC {
		buf = binary.AppendUvarint(buf, uint64(r.DCInc))
	}
	buf = AppendField(buf, r.Value)
	buf = binary.AppendUvarint(buf, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		buf = AppendField(buf, k)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Values)))
	for _, v := range r.Values {
		buf = AppendField(buf, v)
	}
	return buf
}

// DecodeResult parses a result previously produced by AppendResult and
// returns the remaining bytes. The result's Value and Values alias buf; its
// Keys are copied, in one allocation.
func DecodeResult(buf []byte) (*Result, []byte, error) {
	d := NewDecoder(buf)
	res := new(Result)
	d.result(res)
	if d.err != nil {
		return nil, nil, d.err
	}
	return res, d.Rest(), nil
}

// result decodes the result at d's position into res.
func (d *Decoder) result(res *Result) {
	res.LSN = LSN(d.Uvarint())
	code, found, applied := d.group()
	res.Code, res.Found, res.Applied = Code(code), found != 0, applied != 0
	if res.Code == CodeStaleDC {
		res.DCInc = DCInc(d.Uvarint())
	}
	res.Value = d.Field()
	if n := d.Count(); n > 0 {
		at := d.off
		for range n {
			d.span()
		}
		if d.err != nil {
			return
		}
		s := string(d.buf[at:d.off])
		keys := Decoder{buf: d.buf[:d.off], off: at}
		res.Keys = make([]string, n)
		for i := range res.Keys {
			res.Keys[i] = keys.span().cut(s, at)
		}
	}
	if n := d.Count(); n > 0 {
		res.Values = make([][]byte, n)
		for i := range res.Values {
			res.Values[i] = d.Field()
		}
	}
}

// batch framing -------------------------------------------------------------

// AppendOpBatch serializes a batch of operations: a count followed by the
// operations in shipping order. It grows buf at most once.
func AppendOpBatch(buf []byte, ops []*Op) []byte {
	n := UvarintLen(uint64(len(ops)))
	for _, o := range ops {
		n += opLen(o)
	}
	buf = binary.AppendUvarint(grow(buf, n), uint64(len(ops)))
	for _, o := range ops {
		buf = appendOp(buf, o)
	}
	return buf
}

// OpSlab is reusable storage for operations decoded in place: a reader that
// decodes one request at a time (a DC's connection reader) keeps one and
// decodes every request into it, so that decoding allocates nothing but the
// one string a request's string fields are cut from.
type OpSlab struct {
	ops  []Op
	ptrs []*Op
	strs []byte // the request's string fields, gathered for the one conversion
	ends []int  // where each Table, Key and EndKey ends in strs
}

// Decode decodes body, a batch (AppendOpBatch), into the slab, replacing
// what it decoded last; a body with bytes left over is refused. Each Value
// aliases body. The string fields of all the operations are copied into one
// string, so they may be kept; the operations themselves, and the slice of
// them, are the slab's and valid until its next Decode.
func (s *OpSlab) Decode(body []byte) ([]*Op, error) {
	ops, n, err := s.decode(body)
	if err == nil && n != len(body) {
		err = errTrailing
	}
	return ops, err
}

// decode is Decode that returns how many bytes it decoded instead of
// refusing the rest.
func (s *OpSlab) decode(buf []byte) ([]*Op, int, error) {
	d := NewDecoder(buf)
	n := d.Count()
	if d.err != nil {
		return nil, 0, d.err
	}
	s.ops, s.ptrs = slices.Grow(s.ops[:0], n)[:n], slices.Grow(s.ptrs[:0], n)[:n]
	s.strs, s.ends = s.strs[:0], s.ends[:0]
	for i := range s.ops {
		o := &s.ops[i]
		*o = Op{}
		for _, f := range d.op(o) {
			s.strs = append(s.strs, buf[f.lo:f.hi]...)
			s.ends = append(s.ends, len(s.strs))
		}
		if d.err != nil {
			return nil, 0, d.err
		}
		s.ptrs[i] = o
	}
	str, at := string(s.strs), 0
	for i, o := range s.ptrs {
		e := s.ends[3*i : 3*i+3]
		o.Table, o.Key, o.EndKey = str[at:e[0]], str[e[0]:e[1]], str[e[1]:e[2]]
		at = e[2]
	}
	return s.ptrs, d.off, nil
}

// AppendResultBatch serializes the per-operation results of a batch.
func AppendResultBatch(buf []byte, rs []*Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for _, r := range rs {
		buf = AppendResult(buf, r)
	}
	return buf
}

// DecodeResultsInto decodes a batch reply body (AppendResultBatch) into rs,
// whose length is the number of results the body must hold, overwriting
// each. The results alias body, like DecodeResult's. A body that holds
// another number of results, or bytes past them, is refused.
func DecodeResultsInto(body []byte, rs []*Result) error {
	d := NewDecoder(body)
	if d.Count() != len(rs) && d.err == nil {
		d.Fail(fmt.Errorf("base: batch reply holds another number of results than the %d asked", len(rs)))
	}
	if d.results(rs); d.err == nil && d.off != len(body) {
		d.Fail(errTrailing)
	}
	return d.err
}

// results decodes len(rs) results at d's position into rs.
func (d *Decoder) results(rs []*Result) {
	for _, res := range rs {
		if d.err != nil {
			return
		}
		*res = Result{}
		d.result(res)
	}
}

// NewResults returns n zero results for one call's answers, in one allocation
// for a batch of one, as a lone result would take, and in two, the results and
// the slice of them, for a longer batch.
func NewResults(n int) []*Result {
	if n == 1 {
		one := new(struct {
			res Result
			ptr [1]*Result
		})
		one.ptr[0] = &one.res
		return one.ptr[:]
	}
	slab := make([]Result, n)
	rs := make([]*Result, n)
	for i := range rs {
		rs[i] = &slab[i]
	}
	return rs
}

// small codec helpers -------------------------------------------------------

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// grow makes room for n more bytes in buf with at most one allocation of
// exactly the room needed (slices.Grow's make-and-append is two under -race).
func grow(buf []byte, n int) []byte {
	if cap(buf)-len(buf) < n {
		buf = append(make([]byte, 0, len(buf)+n), buf...)
	}
	return buf
}

// UvarintLen is the length binary.AppendUvarint gives u.
func UvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// varintLen is the length binary.AppendVarint gives v: zig-zag, then uvarint.
func varintLen(v int64) int { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }
