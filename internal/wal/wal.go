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
// or DC); wal treats them opaquely.
type Record struct {
	LSN      base.LSN
	Kind     uint8
	Txn      base.TxnID
	Prev     base.LSN // previous record of the same transaction (undo chain)
	NextUndo base.LSN // for compensation records: next record to undo
	Payload  []byte
}

// Append encodes r into buf.
func (r *Record) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.LSN))
	buf = append(buf, r.Kind)
	buf = binary.AppendUvarint(buf, uint64(r.Txn))
	buf = binary.AppendUvarint(buf, uint64(r.Prev))
	buf = binary.AppendUvarint(buf, uint64(r.NextUndo))
	buf = binary.AppendUvarint(buf, uint64(len(r.Payload)))
	return append(buf, r.Payload...)
}

// DecodeRecord parses exactly one record previously produced by
// (*Record).Append: trailing bytes and non-minimal varints are corruption,
// so whatever decodes re-encodes to the same bytes.
func DecodeRecord(buf []byte) (*Record, error) {
	d := decoder{buf: buf}
	r := &Record{LSN: base.LSN(d.uvarint())}
	if len(d.buf) > 0 {
		r.Kind, d.buf = d.buf[0], d.buf[1:]
	} else {
		d.bad = true
	}
	r.Txn = base.TxnID(d.uvarint())
	r.Prev = base.LSN(d.uvarint())
	r.NextUndo = base.LSN(d.uvarint())
	if n := d.uvarint(); d.bad || n != uint64(len(d.buf)) {
		return nil, errCorrupt
	}
	if len(d.buf) > 0 {
		r.Payload = bytes.Clone(d.buf)
	}
	return r, nil
}

// decoder consumes buf from the front; bad latches the first failure.
type decoder struct {
	buf []byte
	bad bool
}

func (d *decoder) uvarint() uint64 {
	u, n := binary.Uvarint(d.buf)
	if n <= 0 || (n > 1 && d.buf[n-1] == 0) { // short, overlong or non-minimal
		d.bad, d.buf = true, nil
		return 0
	}
	d.buf = d.buf[n:]
	return u
}

var errCorrupt = errors.New("wal: corrupt record")

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
	enc     []byte   // AppendAssign's encode buffer
	forcing bool
	// gen counts the crashes the log has been through. It moves under mu —
	// the mutex that orders appends — so a Generation's append and the Crash
	// that ends it are ordered like any two appends; Live reads it alone.
	gen atomic.Uint64
}

// Generation is the right to use a Log between two crashes: the handle a
// component incarnation appends, forces and truncates through when it may be
// outlived by its own log (a TC incarnation whose Commit straddles
// Crash+Recover, a DC incarnation whose Perform does). Once Crash has ended
// the generation every call is refused — zero for an append's LSN, false for
// a force or a truncation — so nothing of a dead incarnation lands in the
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
			return nil, err
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
func (g Generation) AppendAssign(r *Record) base.LSN { return g.l.alloc(g.n, r) }

// ForceTo is Log.ForceTo. It reports false once the generation has ended,
// whether or not the record the caller appended at lsn reached stability
// first: the stable log decides that, restart reads it.
func (g Generation) ForceTo(lsn base.LSN) bool { return g.l.forceTo(g.n, lsn) }

// Force is Log.Force, refused like ForceTo.
func (g Generation) Force() bool { return g.l.forceTo(g.n, g.l.LastLSN()) }

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
func (l *Log) AppendAssign(r *Record) base.LSN { return l.alloc(anyGen, r) }

// alloc assigns the next LSN to r and appends it, unless gen has ended. The
// media append happens under the mutex that hands out the LSN, so the media
// order always equals the LSN order; OPSR for the TC-log depends on this.
func (l *Log) alloc(gen uint64, r *Record) base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ended(gen) {
		return 0
	}
	r.LSN = l.next
	l.next++
	l.enc = r.Append(l.enc[:0])
	l.media.Append(uint64(r.LSN), l.enc)
	return r.LSN
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

// StartLSN returns the LSN of the first retained record, or 0 if empty.
func (l *Log) StartLSN() base.LSN {
	start, _, _ := l.media.Bounds()
	return base.LSN(start)
}

// NextLSN returns the LSN the next record appended will take (diagnostics).
func (l *Log) NextLSN() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Crash simulates losing the volatile records and ends the generation that
// wrote them; LSN allocation restarts just above the stable end.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
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
		lsn, n := binary.Uvarint(raw) // the encoding starts with the LSN and the kind
		if base.LSN(lsn) >= before {
			break
		}
		if slices.Contains(kinds, raw[n]) {
			out = append(out, mustDecode(raw))
		}
	}
	return out
}

// Get returns a decoded copy of the record with exactly the given LSN
// (stable or volatile), or nil. Used for undo chain walks during normal
// rollback.
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
