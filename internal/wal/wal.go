// Package wal implements the log manager used by the transactional
// component (the TC-log of §4.1.1, whose LSNs double as operation request
// IDs), the data component (the DC-log of §5.2.2, whose dLSNs make
// system-transaction recovery idempotent) and the monolith baseline.
//
// The manager owns LSN allocation, the record format and the group force;
// the records themselves, the stable/volatile boundary (EOSL) and the
// truncation floor live once, in the storage.LogStore underneath, keyed by
// LSN. Every allocation is monotonically increasing, and an allocation may
// or may not carry a record: the TC uses record-less allocations for reads,
// which need unique request IDs but no redo information. After a crash the
// records above the force boundary are lost and the LSN space above the
// stable end is reused — the abstract-LSN contract in package ablsn is
// designed for exactly this.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

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
// delays AppendAssign or AllocLSN.
type Log struct {
	mu      sync.Mutex
	cond    *sync.Cond
	media   *storage.LogStore
	next    base.LSN // next LSN to allocate
	enc     []byte   // AppendAssign's encode buffer
	forcing bool
}

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

// AllocLSN reserves the next LSN without writing a record (unique request
// IDs for reads, §4.2).
func (l *Log) AllocLSN() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.next
	l.next++
	return lsn
}

// AppendAssign atomically assigns the next LSN to r and appends it. It
// returns the assigned LSN. The record is volatile until forced; the log
// keeps its encoding, not r.
func (l *Log) AppendAssign(r *Record) base.LSN {
	l.mu.Lock()
	r.LSN = l.next
	l.next++
	// The media append happens under the same mutex so that the media
	// order always equals the LSN order; OPSR for the TC-log depends on
	// this.
	l.enc = r.Append(l.enc[:0])
	l.media.Append(uint64(r.LSN), l.enc)
	l.mu.Unlock()
	return r.LSN
}

// ForceTo blocks until all records with LSN <= lsn are stable. Concurrent
// callers are group-forced: one caller performs the media force while the
// others wait, so a single (simulated) fsync can commit many transactions.
func (l *Log) ForceTo(lsn base.LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.EOSL() < lsn {
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
		if stable < lsn && l.LastLSN() < lsn {
			// Everything appended is stable yet the target is still ahead:
			// the caller names an LSN that was never appended in this
			// incarnation. Spinning would hang forever, so fail loudly.
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

// NextLSN returns the next LSN that would be allocated (diagnostics).
func (l *Log) NextLSN() base.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Crash simulates losing the volatile records; LSN allocation restarts just
// above the stable end.
func (l *Log) Crash() {
	l.mu.Lock()
	defer l.mu.Unlock()
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
