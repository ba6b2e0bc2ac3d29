package base

import (
	"context"
	"encoding/binary"
	"fmt"
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
	// ReadSnapshot read (or range read), or the commit timestamp stamped on
	// OpCommitVersions when the transaction's versions are finalized. Zero
	// means "no timestamp" (every pre-snapshot operation).
	TS TS
}

func (o *Op) String() string {
	return fmt.Sprintf("op{tc=%d ep=%d lsn=%d %s %s/%q}", o.TC, o.Epoch, o.LSN, o.Kind, o.Table, o.Key)
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
}

// Err returns the failure of the result as an error, nil when CodeOK.
func (r *Result) Err() error { return r.Code.Err() }

// Service is the TC:DC interface of §4.2.1, expressed as methods invoked by
// the TC. Implementations: the DC itself (direct, in-process) and the wire
// client stub (asynchronous messages with resend).
//
// Blocking calls take a context and honor its cancellation and deadline:
// an abandoned Perform returns CodeCancelled, an abandoned control call an
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
// Ownership. An Op passed to Perform or PerformBatch is the caller's, lent
// for the call: the caller may have drawn it from storage it reuses (a
// transaction keeps its operations in itself), so a Service must be done with
// the Op — encoded, executed, copied from — when the call returns, and may
// keep nothing that points into it. A Result returned is the caller's from
// then on: a Service that makes the results of a batch in one allocation makes
// a new one per call and never touches it again.
type Service interface {
	// Perform executes one logical operation: a logged one (op.LSN nonzero)
	// exactly once (resend + idempotence), a read at least once, which for a
	// read is as good. It blocks until a reply is available or ctx is done.
	Perform(ctx context.Context, op *Op) *Result
	// PerformBatch executes a batch of logical operations in the given
	// order, returning one result per operation, positionally. Batches are
	// the unit of operation shipping: a TC sends what a transaction's
	// barrier has for one DC as one batch so a single message round trip
	// acknowledges many operations. Each logged operation keeps its own
	// LSN request ID, so resending a whole batch stays idempotent per
	// operation (a batch of reads carries none and needs none). Like
	// Perform, it blocks until all replies are available.
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
	// BeginRestart starts restart processing for one TC incarnation: the DC
	// installs epoch as the TC's fence — durably, and before any state is
	// touched — then undoes in its cache every operation of that TC with
	// LSN beyond stableLSN (they are lost forever; causality guarantees none
	// are stable). Other TCs' data is untouched (§6.1.2). From this point
	// every operation, watermark, or control call stamped with an older
	// epoch is refused, so requests of the dead incarnation still on the
	// wire can never take effect. A BeginRestart
	// whose own epoch is older than the fence fails with ErrStaleEpoch;
	// a duplicate delivery for the already-installed epoch is a no-op (the
	// reset must not repeat once redo has begun).
	BeginRestart(ctx context.Context, tc TCID, epoch Epoch, stableLSN LSN) error
	// EndRestart acknowledges completion of the restart function: the DC
	// atomically activates the staged epoch, discards whatever the prior
	// incarnation still had queued (fenced in-flight operations), and
	// resumes normal processing. Fails with ErrStaleEpoch when epoch is
	// older than the installed fence (a dead incarnation's late call).
	EndRestart(ctx context.Context, tc TCID, epoch Epoch) error
	// SafeTS broadcasts the TC's safe timestamp and version-GC horizon,
	// fire-and-forget like the watermarks. safe promises that every
	// versioned commit this TC assigned a timestamp <= safe has been
	// finalized at the DCs and that no future commit of this TC will be
	// assigned a timestamp <= safe; a snapshot read at T is served once
	// every registered TC's safe covers T. horizon promises no live (or
	// future) snapshot of this TC will read below it, releasing versions
	// and tombstones older than the horizon for garbage collection.
	// Epoch-fenced like EndOfStableLog.
	SafeTS(tc TCID, epoch Epoch, safe TS, horizon TS)
}

// op/result wire encodings -------------------------------------------------

// opEpochFlag marks, on the kind byte, that an epoch varint follows the
// fixed three-byte group. OpKind values are tiny, so the high bit is free; an
// epoch-less (pre-epoch) frame never sets it, which keeps old encodings
// decodable and makes epoch-zero frames byte-identical to them.
const opEpochFlag = 0x80

// opTSFlag marks, on the kind byte, that a timestamp varint follows the
// epoch (when present). Like the epoch flag, a zero-TS operation never
// sets it, so pre-snapshot encodings stay byte-identical and decodable.
const opTSFlag = 0x40

// AppendOp serializes op to buf using a compact length-prefixed binary
// format (stdlib encoding/binary varints).
func AppendOp(buf []byte, o *Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(o.TC))
	buf = binary.AppendUvarint(buf, uint64(o.LSN))
	kind := byte(o.Kind)
	if o.Epoch != 0 {
		kind |= opEpochFlag
	}
	if o.TS != 0 {
		kind |= opTSFlag
	}
	buf = append(buf, kind, byte(o.Flavor), boolByte(o.Versioned))
	if o.Epoch != 0 {
		buf = binary.AppendUvarint(buf, uint64(o.Epoch))
	}
	if o.TS != 0 {
		buf = binary.AppendUvarint(buf, uint64(o.TS))
	}
	buf = appendString(buf, o.Table)
	buf = appendString(buf, o.Key)
	buf = appendString(buf, o.EndKey)
	buf = appendBytes(buf, o.Value)
	buf = binary.AppendVarint(buf, int64(o.Limit))
	return buf
}

// DecodeOp parses an operation previously produced by AppendOp and returns
// the remaining bytes. Frames without the epoch flag (all pre-epoch
// encodings) decode with Epoch zero.
func DecodeOp(buf []byte) (*Op, []byte, error) {
	var o Op
	var err error
	var u uint64
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	o.TC = TCID(u)
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	o.LSN = LSN(u)
	if len(buf) < 3 {
		return nil, nil, errShort
	}
	kind := buf[0]
	o.Kind, o.Flavor, o.Versioned = OpKind(kind&^(opEpochFlag|opTSFlag)), ReadFlavor(buf[1]), buf[2] != 0
	buf = buf[3:]
	if kind&opEpochFlag != 0 {
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, nil, err
		}
		o.Epoch = Epoch(u)
	}
	if kind&opTSFlag != 0 {
		if u, buf, err = readUvarint(buf); err != nil {
			return nil, nil, err
		}
		o.TS = TS(u)
	}
	if o.Table, buf, err = readString(buf); err != nil {
		return nil, nil, err
	}
	if o.Key, buf, err = readString(buf); err != nil {
		return nil, nil, err
	}
	if o.EndKey, buf, err = readString(buf); err != nil {
		return nil, nil, err
	}
	if o.Value, buf, err = readBytes(buf); err != nil {
		return nil, nil, err
	}
	var v int64
	if v, buf, err = readVarint(buf); err != nil {
		return nil, nil, err
	}
	o.Limit = int32(v)
	return &o, buf, nil
}

// AppendResult serializes r to buf.
func AppendResult(buf []byte, r *Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.LSN))
	buf = append(buf, byte(r.Code), boolByte(r.Found), boolByte(r.Applied))
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

// DecodeResult parses a result previously produced by AppendResult.
func DecodeResult(buf []byte) (*Result, []byte, error) {
	var r Result
	var err error
	var u uint64
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	r.LSN = LSN(u)
	if len(buf) < 3 {
		return nil, nil, errShort
	}
	r.Code = Code(buf[0])
	r.Found, r.Applied = buf[1] != 0, buf[2] != 0
	buf = buf[3:]
	if r.Value, buf, err = readBytes(buf); err != nil {
		return nil, nil, err
	}
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	if u > uint64(len(buf)) {
		return nil, nil, errShort
	}
	if u > 0 {
		r.Keys = make([]string, u)
		for i := range r.Keys {
			if r.Keys[i], buf, err = readString(buf); err != nil {
				return nil, nil, err
			}
		}
	}
	if u, buf, err = readUvarint(buf); err != nil {
		return nil, nil, err
	}
	if u > uint64(len(buf)) {
		return nil, nil, errShort
	}
	if u > 0 {
		r.Values = make([][]byte, u)
		for i := range r.Values {
			if r.Values[i], buf, err = readBytes(buf); err != nil {
				return nil, nil, err
			}
		}
	}
	return &r, buf, nil
}

// batch framing -------------------------------------------------------------

// AppendOpBatch serializes a batch of operations: a count followed by the
// operations in shipping order.
func AppendOpBatch(buf []byte, ops []*Op) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ops)))
	for _, o := range ops {
		buf = AppendOp(buf, o)
	}
	return buf
}

// DecodeOpBatch parses a batch previously produced by AppendOpBatch.
func DecodeOpBatch(buf []byte) ([]*Op, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(buf)) { // each op takes at least one byte
		return nil, nil, errShort
	}
	ops := make([]*Op, n)
	for i := range ops {
		if ops[i], buf, err = DecodeOp(buf); err != nil {
			return nil, nil, err
		}
	}
	return ops, buf, nil
}

// AppendResultBatch serializes the per-operation results of a batch.
func AppendResultBatch(buf []byte, rs []*Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for _, r := range rs {
		buf = AppendResult(buf, r)
	}
	return buf
}

// DecodeResultBatch parses a batch reply previously produced by
// AppendResultBatch.
func DecodeResultBatch(buf []byte) ([]*Result, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(buf)) { // each result takes at least one byte
		return nil, nil, errShort
	}
	rs := make([]*Result, n)
	for i := range rs {
		if rs[i], buf, err = DecodeResult(buf); err != nil {
			return nil, nil, err
		}
	}
	return rs, buf, nil
}

// small codec helpers -------------------------------------------------------

var errShort = fmt.Errorf("base: truncated encoding")

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

func readUvarint(buf []byte) (uint64, []byte, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, errShort
	}
	return u, buf[n:], nil
}

func readVarint(buf []byte) (int64, []byte, error) {
	v, n := binary.Varint(buf)
	if n <= 0 {
		return 0, nil, errShort
	}
	return v, buf[n:], nil
}

func readString(buf []byte) (string, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil || n > uint64(len(buf)) {
		return "", nil, errShort
	}
	return string(buf[:n]), buf[n:], nil
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	n, buf, err := readUvarint(buf)
	if err != nil || n > uint64(len(buf)) {
		return nil, nil, errShort
	}
	if n == 0 {
		return nil, buf, nil
	}
	out := make([]byte, n)
	copy(out, buf[:n])
	return out, buf[n:], nil
}
