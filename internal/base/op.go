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
	// stable in the TC log and will not be lost in a TC crash; causality
	// then allows the DC to make such operations stable (write-ahead
	// logging across the kernel split). Watermarks stamped with a fenced
	// epoch are ignored: a dead incarnation's broadcasts still in flight
	// must not re-poison watermarks the restart reset re-based.
	EndOfStableLog(tc TCID, epoch Epoch, eosl LSN)
	// LowWaterMark tells the DC the TC has received replies for every
	// operation with LSN <= lwm, so there are no gaps below lwm among the
	// operations reflected in cached pages (§5.1.2). Epoch-fenced like
	// EndOfStableLog.
	LowWaterMark(tc TCID, epoch Epoch, lwm LSN)
	// Checkpoint asks the DC to make stable every page containing effects
	// of operations with LSN < newRSSP. When it returns nil, the contract
	// requiring the TC to be able to resend those operations is released
	// and the TC may advance its redo scan start point (§4.2.1). A
	// checkpoint from a fenced epoch fails with ErrStaleEpoch.
	Checkpoint(ctx context.Context, tc TCID, epoch Epoch, newRSSP LSN) error
	// BeginRestart opens the resend bracket of one TC incarnation at this
	// DC incarnation; the TC then resends its redo stream (stamped with the
	// DCInc the first CodeStaleDC names) and closes the bracket with
	// EndRestart. One bracket serves both failures of §5.3. After a TC
	// restart the epoch is new: the DC installs it as the TC's fence —
	// durably, and before any state is touched — then undoes in its cache
	// every operation of that TC with LSN beyond stableLSN (they are lost
	// forever; causality guarantees none are stable); other TCs' data is
	// untouched (§6.1.2), and from this point every operation, watermark or
	// control call stamped with an older epoch is refused. After a DC
	// restart the epoch is the fence the DC recovered, the cache lost
	// everything, and nothing is undone. A BeginRestart whose epoch is older
	// than the fence fails with ErrStaleEpoch; one for the installed epoch
	// whose resend has already ended here fails with ErrNothingOwed (a TC
	// that only asks replays nothing); a duplicate while the bracket is open
	// is a no-op.
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
	buf = appendString(buf, o.Table)
	buf = appendString(buf, o.Key)
	buf = appendString(buf, o.EndKey)
	buf = appendBytes(buf, o.Value)
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
	r := reader{buf: buf}
	o := new(Op)
	f := r.op(o)
	if r.err != nil {
		return nil, nil, r.err
	}
	s := string(buf[f[0].lo:f[2].hi])
	o.Table, o.Key, o.EndKey = f[0].cut(s, f[0].lo), f[1].cut(s, f[0].lo), f[2].cut(s, f[0].lo)
	return o, buf[r.off:], nil
}

// span is where a length-prefixed field's bytes lie in the encoding.
type span struct{ lo, hi int }

// cut returns the field from s, which holds the encoding's bytes from at on.
func (f span) cut(s string, at int) string { return s[f.lo-at : f.hi-at] }

// op decodes the operation at r's position into o, all but its string
// fields, and returns where Table, Key and EndKey lie in r.buf.
func (r *reader) op(o *Op) [3]span {
	o.TC = TCID(r.uvarint())
	o.LSN = LSN(r.uvarint())
	kind, flavor, versioned := r.group()
	o.Kind, o.Flavor, o.Versioned = OpKind(kind&^(opEpochFlag|opTSFlag|opDCIncFlag)), ReadFlavor(flavor), versioned != 0
	if o.Kind >= opRetired && r.err == nil {
		r.fail(fmt.Errorf("base: operation kind %d is retired or unknown", o.Kind))
	}
	if kind&opEpochFlag != 0 {
		o.Epoch = Epoch(r.uvarint())
	}
	if kind&opTSFlag != 0 {
		o.TS = TS(r.uvarint())
	}
	if kind&opDCIncFlag != 0 {
		o.DCInc = DCInc(r.uvarint())
	}
	f := [3]span{r.field(), r.field(), r.field()}
	o.Value = r.bytes()
	o.Limit = int32(r.varint())
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
	buf = appendBytes(buf, r.Value)
	buf = binary.AppendUvarint(buf, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		buf = appendString(buf, k)
	}
	buf = binary.AppendUvarint(buf, uint64(len(r.Values)))
	for _, v := range r.Values {
		buf = appendBytes(buf, v)
	}
	return buf
}

// DecodeResult parses a result previously produced by AppendResult and
// returns the remaining bytes. The result's Value and Values alias buf; its
// Keys are copied, in one allocation.
func DecodeResult(buf []byte) (*Result, []byte, error) {
	r := reader{buf: buf}
	res := new(Result)
	r.result(res)
	if r.err != nil {
		return nil, nil, r.err
	}
	return res, buf[r.off:], nil
}

// result decodes the result at r's position into res.
func (r *reader) result(res *Result) {
	res.LSN = LSN(r.uvarint())
	code, found, applied := r.group()
	res.Code, res.Found, res.Applied = Code(code), found != 0, applied != 0
	if res.Code == CodeStaleDC {
		res.DCInc = DCInc(r.uvarint())
	}
	res.Value = r.bytes()
	if n := r.count(); n > 0 {
		at := r.off
		for range n {
			r.field()
		}
		if r.err != nil {
			return
		}
		s := string(r.buf[at:r.off])
		keys := reader{buf: r.buf[:r.off], off: at}
		res.Keys = make([]string, n)
		for i := range res.Keys {
			res.Keys[i] = keys.field().cut(s, at)
		}
	}
	if n := r.count(); n > 0 {
		res.Values = make([][]byte, n)
		for i := range res.Values {
			res.Values[i] = r.bytes()
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
	r := reader{buf: buf}
	n := r.count()
	if r.err != nil {
		return nil, 0, r.err
	}
	s.ops, s.ptrs = slices.Grow(s.ops[:0], n)[:n], slices.Grow(s.ptrs[:0], n)[:n]
	s.strs, s.ends = s.strs[:0], s.ends[:0]
	for i := range s.ops {
		o := &s.ops[i]
		*o = Op{}
		for _, f := range r.op(o) {
			s.strs = append(s.strs, buf[f.lo:f.hi]...)
			s.ends = append(s.ends, len(s.strs))
		}
		if r.err != nil {
			return nil, 0, r.err
		}
		s.ptrs[i] = o
	}
	str, at := string(s.strs), 0
	for i, o := range s.ptrs {
		e := s.ends[3*i : 3*i+3]
		o.Table, o.Key, o.EndKey = str[at:e[0]], str[e[0]:e[1]], str[e[1]:e[2]]
		at = e[2]
	}
	return s.ptrs, r.off, nil
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
	r := reader{buf: body}
	if r.count() != len(rs) && r.err == nil {
		r.fail(fmt.Errorf("base: batch reply holds another number of results than the %d asked", len(rs)))
	}
	if r.results(rs); r.err == nil && r.off != len(body) {
		r.fail(errTrailing)
	}
	return r.err
}

// results decodes len(rs) results at r's position into rs.
func (r *reader) results(rs []*Result) {
	for _, res := range rs {
		if r.err != nil {
			return
		}
		*res = Result{}
		r.result(res)
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

var errShort = fmt.Errorf("base: truncated encoding")

// errTrailing refuses a body with bytes past what it encodes.
var errTrailing = fmt.Errorf("base: trailing bytes after the encoding")

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
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

// reader decodes an encoding in place from the front: off is the next byte,
// and err latches the first failure, after which every read is a no-op that
// returns zeros.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(err error) {
	r.err, r.off = err, len(r.buf)
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	u, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(errShort)
		return 0
	}
	r.off += n
	return u
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail(errShort)
		return 0
	}
	r.off += n
	return v
}

// group reads the three fixed bytes behind an operation's or a result's
// leading varints.
func (r *reader) group() (a, b, c byte) {
	if r.err == nil && len(r.buf)-r.off < 3 {
		r.fail(errShort)
	}
	if r.err != nil {
		return 0, 0, 0
	}
	g := r.buf[r.off : r.off+3]
	r.off += 3
	return g[0], g[1], g[2]
}

// count reads the number of elements that follow, refusing one the bytes
// left cannot hold (each element takes at least one byte).
func (r *reader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.fail(errShort)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// field reads one length-prefixed field and returns where its bytes lie.
func (r *reader) field() span {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.buf)-r.off) {
		r.fail(errShort)
	}
	if r.err != nil {
		return span{r.off, r.off}
	}
	lo := r.off
	r.off += int(n)
	return span{lo, r.off}
}

// bytes reads one length-prefixed field as a slice of buf, its capacity
// clipped; an empty field is nil.
func (r *reader) bytes() []byte {
	f := r.field()
	if f.lo == f.hi {
		return nil
	}
	return r.buf[f.lo:f.hi:f.hi]
}
