// Package wal implements the log manager used by the transactional
// component (the TC-log of §4.1.1, whose LSNs double as operation request
// IDs), the data component (the DC-log of §5.2.2, whose dLSNs make
// system-transaction recovery idempotent) and the monolith baseline.
//
// The manager owns LSN allocation, the record format and the group force;
// the records themselves, the stable/volatile boundary (EOSL) and the
// truncation floor live once, in the storage.LogStore underneath, keyed by
// LSN. Only a record takes an LSN: the LSN space is dense in the records
// appended, and the next LSN is always the last one plus one. (A TC's reads
// need no request ID — they are idempotent and never redone — so nothing
// allocates without appending.) After a crash the records above the force
// boundary are lost and the LSN space above the stable end is reused — the
// abstract-LSN contract in package ablsn is designed for exactly this.
//
// Because the LSN space is reused, a log has generations: Crash ends one and
// the next begins at the stable end. A writer that can outlive the crash of
// its own component — a TC transaction whose commit straddles Crash and
// Recover, a DC operation whose split does — appends, forces and truncates
// through the Generation its incarnation was handed, and is refused once that
// has ended, under the same mutex that orders appends: its record cannot land
// in the tail its successor is writing, it cannot wait for, or be told stable,
// an LSN that now names somebody else's record, and it cannot discard one.
// The TC-log and the DC-log are used only so; the monolith, whose log crashes
// with its only user, uses the Log's own methods, which no crash refuses.
//
// A record is encoded as the storage frame that holds it, so it carries no
// length of its own:
//
//	LSN       uvarint
//	kind      1 byte: bits 0-4 the owner's Kind, bit 5 set (the format mark),
//	          bit 6 a Txn follows, bit 7 a link follows
//	Txn       uvarint, only when set (bit 6)
//	link      uvarint (LSN-Prev)<<1 | hasNextUndo, only when Prev or NextUndo
//	          is set (bit 7); LSN-Prev reads as 0 when Prev is 0
//	NextUndo  uvarint LSN-NextUndo, only when hasNextUndo (a CLR's)
//	Payload   the rest of the frame
//
// A field that is zero costs nothing: a DC-log record, and a TC's redo-only
// op record, is its LSN, its kind and its payload; only the monolith, which
// walks undo chains, writes links. Prev and NextUndo name earlier records, so
// both deltas are below the LSN and a record of a chain spends a byte or two
// on each, not the width of an LSN. The format mark is set in every record,
// and the earlier format, which wrote a transaction id and a link in every
// record and had owner kinds below 32, never set it: New refuses a log that
// format wrote instead of misreading its records. The LSN and the kind come
// first: ScanKinds reads them without decoding the rest.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/storage"
)

// Record is one log record. Kind values are interpreted by the owner (TC
// or DC); wal treats them opaquely, and they stay below 32.
type Record struct {
	LSN      base.LSN
	Kind     uint8
	Txn      base.TxnID
	Prev     base.LSN // previous record of the same transaction: the monolith's undo chain
	NextUndo base.LSN // for the monolith's compensation records: next record to undo
	Payload  []byte
}

// The kind byte: the owner's kind in the low bits, then the format mark and
// the flags of the fields that are encoded only when set.
const (
	kindMask = 0x1f
	kindMark = 1 << 5
	kindTxn  = 1 << 6
	kindLink = 1 << 7
)

// Append encodes r into buf. Kind must be below 32, the kind byte's higher
// bits being the encoding's, and Prev and NextUndo each zero or below r.LSN:
// a chain only points back.
func (r *Record) Append(buf []byte) []byte {
	if r.Kind > kindMask {
		panic(fmt.Sprintf("wal: record %d has kind %d, above %d", r.LSN, r.Kind, kindMask))
	}
	link := r.delta(r.Prev) << 1
	if r.NextUndo != 0 {
		link |= 1
	}
	kind := r.Kind | kindMark
	if r.Txn != 0 {
		kind |= kindTxn
	}
	if link != 0 {
		kind |= kindLink
	}
	buf = binary.AppendUvarint(buf, uint64(r.LSN))
	buf = append(buf, kind)
	if r.Txn != 0 {
		buf = binary.AppendUvarint(buf, uint64(r.Txn))
	}
	if link != 0 {
		buf = binary.AppendUvarint(buf, link)
	}
	if r.NextUndo != 0 {
		buf = binary.AppendUvarint(buf, r.delta(r.NextUndo))
	}
	return append(buf, r.Payload...)
}

// delta is how far back from r's own LSN the record at lsn lies, 0 for none.
func (r *Record) delta(lsn base.LSN) uint64 {
	if lsn == 0 {
		return 0
	}
	if lsn >= r.LSN || r.LSN-lsn >= 1<<63 {
		panic(fmt.Sprintf("wal: record %d links to %d, not an earlier record", r.LSN, lsn))
	}
	return uint64(r.LSN - lsn)
}

// DecodeRecord parses exactly one record previously produced by
// (*Record).Append, the whole of buf: a kind byte without the format mark,
// a flagged field that is zero, a delta that reaches to or past LSN 0, a
// NextUndo flag without a NextUndo and non-minimal varints are corruption,
// so whatever decodes re-encodes to the same bytes.
func DecodeRecord(buf []byte) (*Record, error) {
	d := base.NewDecoder(buf)
	r := &Record{LSN: base.LSN(d.Uvarint())}
	kind := d.Byte()
	if d.Err() == nil && kind&kindMark == 0 {
		return nil, errUnmarked
	}
	r.Kind = kind & kindMask
	if kind&kindTxn != 0 {
		if r.Txn = base.TxnID(d.Uvarint()); r.Txn == 0 {
			d.Fail(errCorrupt)
		}
	}
	if kind&kindLink != 0 {
		link := d.Uvarint()
		if link == 0 {
			d.Fail(errCorrupt)
		}
		r.Prev = back(&d, r.LSN, link>>1)
		if link&1 != 0 {
			if r.NextUndo = back(&d, r.LSN, d.Uvarint()); r.NextUndo == 0 {
				d.Fail(errCorrupt)
			}
		}
	}
	if d.Err() != nil {
		return nil, errCorrupt
	}
	if rest := d.Rest(); len(rest) > 0 {
		r.Payload = bytes.Clone(rest)
	}
	return r, nil
}

// back is the LSN delta records before lsn, 0 for a delta of 0; a delta
// that does not land on an LSN above 0, or that Append would refuse, is
// corruption.
func back(d *base.Decoder, lsn base.LSN, delta uint64) base.LSN {
	if delta == 0 {
		return 0
	}
	if delta >= uint64(lsn) || delta >= 1<<63 {
		d.Fail(errCorrupt)
		return 0
	}
	return lsn - base.LSN(delta)
}

var (
	errCorrupt  = errors.New("wal: corrupt record")
	errUnmarked = fmt.Errorf("%w: no format mark in its kind byte, as in a log of the earlier record format, "+
		"which wrote every record's transaction id and undo link", errCorrupt)
)

// mustDecode decodes a record the store handed back. New validated what a
// previous incarnation left and AppendAssign encoded the rest, so a failure
// is a bug, not bad input.
func mustDecode(raw []byte) *Record {
	r, err := DecodeRecord(raw)
	if err != nil {
		panic(err)
	}
	return r
}

// Log is a write-ahead log over a LogStore. All methods are safe for
// concurrent use. mu orders LSN allocation with the store append and elects
// the group-force leader; it is never held across media I/O (the simulated
// Crash aside), so neither a force's fsync nor a truncation's file rewrite
// delays AppendAssign.
type Log struct {
	mu      sync.Mutex
	cond    *sync.Cond
	media   *storage.LogStore
	next    base.LSN // next LSN to assign: LastLSN()+1, always
	enc     []byte   // alloc's encode buffer: a batch's records back to back
	ends    []int    // where each record of the batch ends in enc
	frames  [][]byte // the batch's records, slices of enc, for the media
	forcing bool
	// gen counts the crashes the log has been through. It moves under mu —
	// the mutex that orders appends — so a Generation's append and the Crash
	// that ends it are ordered like any two appends; Live reads it alone.
	gen atomic.Uint64
}

// Generation is the right to use a Log between two crashes: the handle a
// component incarnation appends, forces and truncates through when it may be
// outlived by its own log (a TC incarnation whose Commit straddles
// Crash+Recover, a DC incarnation whose PerformBatch does). Once Crash has
// ended the generation every call is refused — zero for an append's LSN, false
// for a force or a truncation — so nothing of a dead incarnation lands in the
// tail its successor is writing, a force never waits for, or vouches for, an
// LSN whose record the crash dropped and the successor handed out again, and
// no record the successor wrote is discarded. The zero value is not usable;
// call Log.Generation.
type Generation struct {
	l *Log
	n uint64
}

// anyGen is the generation of the Log's own methods, which no crash ends:
// their caller (the monolith) stops using the log before it crashes it.
const anyGen = ^uint64(0)

// New returns a log over media. If media already holds records (a restart)
// they are checked to decode, and LSN allocation resumes just above the
// highest LSN the media holds or ever truncated — LSNs of lost volatile
// records are reused, as §5.3.2 requires the rest of the system to tolerate,
// but a log truncated empty never re-issues LSNs that stable state elsewhere
// (page dLSN stamps, abstract LSNs) still references.
func New(media *storage.LogStore) (*Log, error) {
	l := &Log{media: media}
	l.cond = sync.NewCond(&l.mu)
	for _, raw := range media.Scan(0) {
		if _, err := DecodeRecord(raw); err != nil {
			d := base.NewDecoder(raw)
			return nil, fmt.Errorf("record @%d: %w", d.Uvarint(), err)
		}
	}
	_, _, last := media.Bounds()
	l.next = base.LSN(last) + 1
	return l, nil
}

// ended reports whether a crash has ended generation gen.
func (l *Log) ended(gen uint64) bool { return gen != anyGen && gen != l.gen.Load() }

// Generation returns the log's current generation.
func (l *Log) Generation() Generation { return Generation{l, l.gen.Load()} }

// Live reports whether the generation has not ended: one atomic load.
func (g Generation) Live() bool { return !g.l.ended(g.n) }

// AppendAssign is Log.AppendAssign; zero, and nothing appended, once the
// generation has ended.
func (g Generation) AppendAssign(r *Record) base.LSN { return g.l.appendOne(g.n, r) }

// AppendBatch appends recs as one batch and returns the LSN of the first;
// zero, and nothing appended, once the generation has ended. The records take
// dense LSNs in order, and the media holds the batch whole or not at
// all — a force makes all of it stable or none, on disk as in memory, so no
// crash keeps a part of it (storage.LogStore.AppendBatch). The log keeps the
// encodings, not recs.
func (g Generation) AppendBatch(recs []Record) base.LSN { return g.l.alloc(g.n, recs) }

// ForceTo is Log.ForceTo. It reports false once the generation has ended,
// whether or not the record the caller appended at lsn reached stability
// first: the stable log decides that, restart reads it.
func (g Generation) ForceTo(lsn base.LSN) bool { return g.l.forceTo(g.n, lsn) }

// Force is Log.Force, refused like ForceTo.
func (g Generation) Force() bool { return g.l.forceTo(g.n, g.l.LastLSN()) }

// Crash is Log.Crash, refused — false, nothing lost — once the generation
// has ended: it crashes the log only while the generation is the current one,
// so a late caller never ends a successor's.
func (g Generation) Crash() bool {
	g.l.mu.Lock()
	defer g.l.mu.Unlock()
	if g.l.ended(g.n) {
		return false
	}
	g.l.crashLocked()
	return true
}

// Truncate is Log.Truncate, refused — false, nothing discarded — once the
// generation has ended. It discards nothing above the stable end it saw when
// it checked: the media rewrite runs without the mutex, so a truncation that
// straddles Crash may still land, but only on records that were stable before
// the crash, never on one the successor appended and forced above them.
func (g Generation) Truncate(before base.LSN) bool {
	g.l.mu.Lock()
	if g.l.ended(g.n) {
		g.l.mu.Unlock()
		return false
	}
	stable := g.l.EOSL()
	g.l.mu.Unlock()
	g.l.Truncate(min(before, stable+1))
	return true
}

// AppendAssign atomically assigns the next LSN to r and appends it. It
// returns the assigned LSN. The record is volatile until forced; the log
// keeps its encoding, not r.
func (l *Log) AppendAssign(r *Record) base.LSN { return l.appendOne(anyGen, r) }

// appendOne is alloc for a batch of one.
func (l *Log) appendOne(gen uint64, r *Record) base.LSN {
	batch := [1]Record{*r}
	r.LSN = l.alloc(gen, batch[:])
	return r.LSN
}

// alloc assigns the next LSNs to recs and appends them as one batch, unless
// gen has ended. The media append happens under the mutex that hands out the
// LSNs, so the media order always equals the LSN order; OPSR for the TC-log
// depends on this.
func (l *Log) alloc(gen uint64, recs []Record) base.LSN {
	if len(recs) == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ended(gen) {
		return 0
	}
	first := l.next
	l.enc, l.ends = l.enc[:0], l.ends[:0]
	for i := range recs {
		r := &recs[i]
		r.LSN = l.next
		l.next++
		l.enc = r.Append(l.enc)
		l.ends = append(l.ends, len(l.enc))
	}
	l.frames = l.frames[:0]
	start := 0
	for _, end := range l.ends {
		l.frames = append(l.frames, l.enc[start:end])
		start = end
	}
	l.media.AppendBatch(uint64(first), l.frames...)
	return first
}

// ForceTo blocks until all records with LSN <= lsn are stable. Concurrent
// callers are group-forced: one caller performs the media force while the
// others wait, so a single (simulated) fsync can commit many transactions.
func (l *Log) ForceTo(lsn base.LSN) { l.forceTo(anyGen, lsn) }

// forceTo is ForceTo on behalf of gen; false, at once or as soon as the wait
// observes it, when gen has ended.
func (l *Log) forceTo(gen uint64, lsn base.LSN) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.ended(gen) {
			return false
		}
		if l.EOSL() >= lsn {
			return true
		}
		if l.forcing {
			l.cond.Wait()
			continue
		}
		l.forcing = true
		l.mu.Unlock()
		stable := base.LSN(l.media.Force())
		l.mu.Lock()
		l.forcing = false
		l.cond.Broadcast()
		if stable < lsn && l.LastLSN() < lsn && !l.ended(gen) {
			// Everything appended is stable yet the target is still ahead:
			// the caller names an LSN that was never appended in this
			// generation. Spinning would hang forever, so fail loudly.
			panic(fmt.Sprintf("wal: ForceTo(%d) beyond fully-stable log end %d", lsn, stable))
		}
	}
}

// Force makes every appended record stable.
func (l *Log) Force() { l.ForceTo(l.LastLSN()) }

// EOSL returns the end of the stable log: every record with LSN <= EOSL
// survives a crash (§4.2.1 end_of_stable_log).
func (l *Log) EOSL() base.LSN {
	_, stable, _ := l.media.Bounds()
	return base.LSN(stable)
}

// LastLSN returns the LSN of the most recently appended record (after a
// crash or a truncation that emptied the log, the stable LSN).
func (l *Log) LastLSN() base.LSN {
	_, _, last := l.media.Bounds()
	return base.LSN(last)
}

// Crash simulates losing the volatile records and ends the generation that
// wrote them; LSN allocation restarts just above the stable end.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashLocked()
}

func (l *Log) crashLocked() {
	l.gen.Add(1)
	l.cond.Broadcast() // a Generation waiting on another's force learns it has ended
	l.media.Crash()
	l.next = l.LastLSN() + 1
}

// Scan returns the stable records with LSN >= from, in LSN order, decoded
// afresh. Volatile records are not returned: recovery must only see the
// stable log.
func (l *Log) Scan(from base.LSN) []*Record {
	raws := l.media.Scan(uint64(from))
	out := make([]*Record, len(raws))
	for i, raw := range raws {
		out[i] = mustDecode(raw)
	}
	return out
}

// ScanKinds returns the stable records below before whose kind is one of
// kinds, decoded afresh and in LSN order; the others are passed over
// undecoded.
func (l *Log) ScanKinds(before base.LSN, kinds ...uint8) []*Record {
	var out []*Record
	for _, raw := range l.media.Scan(0) {
		d := base.NewDecoder(raw) // the encoding starts with the LSN and the kind
		if base.LSN(d.Uvarint()) >= before {
			break
		}
		if slices.Contains(kinds, d.Byte()&kindMask) {
			out = append(out, mustDecode(raw))
		}
	}
	return out
}

// Get returns a decoded copy of the record with exactly the given LSN
// (stable or volatile), or nil. The monolith walks its undo chains with it
// in a rollback; the TC, which logs no undo, walks none.
func (l *Log) Get(lsn base.LSN) *Record {
	raw, ok := l.media.Get(uint64(lsn))
	if !ok {
		return nil
	}
	return mustDecode(raw)
}

// Truncate discards stable records with LSN < before (contract
// termination: the checkpoint protocol has released the resend obligation
// for them, §4.2.1).
func (l *Log) Truncate(before base.LSN) { l.media.Truncate(uint64(before)) }

// Media exposes the underlying store (stats for benches).
func (l *Log) Media() *storage.LogStore { return l.media }
