// Package storage simulates the stable media under every component: an
// atomic page store (the DC's and the monolith's pages) and a log store
// (the TC-log, the DC-log and the monolith's log each sit on one). "Stable"
// contents survive component crashes; the buffer pool above the page store
// and the unforced end of a log are volatile and lost on Crash. This is the
// substitution for real disks: it preserves the stable/volatile divide that
// drives the paper's §5.3 partial-failure protocols, and it counts I/O so
// the benchmark can report read/write/force traffic.
package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// Stats counts stable-media traffic.
type Stats struct {
	PageReads   uint64
	PageWrites  uint64
	PageFrees   uint64
	BytesRead   uint64
	BytesWriten uint64
	Syncs       uint64 // fsyncs of a disk-backed page store's journal
}

// PageStore is a crash-safe page store. A page's stable bytes are its chain:
// one write-once, append-only buffer, as LogStore's chunks are, that holds a
// base image and then the delta frames written onto it since. Write replaces
// the chain with a new base; Append adds one frame. Both are atomic per page
// (no torn writes — mirroring sector-atomic page writes assumed by the
// paper's recovery protocols). The store reads nothing of a chain (the page
// format is package page's); Append checks only that it is handed one frame,
// a uvarint length and that many bytes. Chains are shared: Write keeps the
// buffer it is handed, Append writes past the end of the chain and never
// below it, and Read returns the chain itself, so the simulated disk and the
// cache above it hold one copy of a page's bytes, not two. The zero value is
// not usable; call NewPageStore.
//
// Lock order is fmu, then mu. mu guards the pages and the journal's writes;
// fmu serializes Sync, whose fsync runs under it with mu released, against
// itself and PowerCut, and so keeps the journal's file open under an fsync.
type PageStore struct {
	mu     sync.RWMutex
	fmu    sync.Mutex
	pages  map[base.PageID][]byte
	nextID uint32 // persisted allocator; see AllocPageID
	file   *file  // when set, the journal every mutation is appended to (disk.go)
	seq    uint64 // the number of the journal's last record
	buf    []byte // the journal record being written

	reads, writes, frees, bytesRead, bytesWritten, syncs atomic.Uint64
}

// NewPageStore returns an empty page store. Page IDs start at 1; 0 is the
// invalid PageID.
func NewPageStore() *PageStore {
	return &PageStore{pages: make(map[base.PageID][]byte), nextID: 0}
}

// AllocPageID allocates a fresh page identifier, never reused after a crash,
// nor after a power loss once Sync has run. One before can undo it, and redo
// then raises the allocator past the pages the DC-log names (NoteAllocated).
func (s *PageStore) AllocPageID() base.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.record(jAlloc, base.PageID(s.nextID), nil)
	return base.PageID(s.nextID)
}

// NoteAllocated raises the allocator to at least id. System-transaction redo
// calls it for every page a record installs: the record may be all that is
// left of the page's allocation, so the next AllocPageID must not reuse it.
func (s *PageStore) NoteAllocated(id base.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if uint32(id) > s.nextID {
		s.nextID = uint32(id)
	}
}

// Write atomically replaces the stable chain of page id with image, a base
// image, and takes the buffer: the store keeps those very bytes and appends
// the page's later frames into the room past their length while there is
// some, so the caller must not touch the buffer again (every caller hands
// over a fresh page.Encode).
func (s *PageStore) Write(id base.PageID, image []byte) {
	if id == 0 {
		panic("storage: write to invalid page 0")
	}
	s.mu.Lock()
	s.pages[id] = image
	s.record(jBase, id, image)
	s.mu.Unlock()
	s.writes.Add(1)
	s.bytesWritten.Add(uint64(len(image)))
}

// Append adds frame, one delta frame, to page id's chain if the store still
// holds chain — what a Read or an Append of the page returned, no Write, Free
// or other Append of it since — and returns the chain it holds now; else it
// writes nothing and reports false. The frame is copied: the caller keeps
// its buffer.
func (s *PageStore) Append(id base.PageID, chain, frame []byte) (next []byte, held bool) {
	if n, k := binary.Uvarint(frame); k <= 0 || n != uint64(len(frame)-k) {
		panic(fmt.Sprintf("storage: page %d append of %d bytes that are not one frame", id, len(frame)))
	}
	s.mu.Lock()
	cur, ok := s.pages[id]
	if !ok || !same(cur, chain) {
		s.mu.Unlock()
		return nil, false
	}
	next = cur
	if cap(cur)-len(cur) < len(frame) {
		// No room left: the chain moves to the smallest buffer the allocator
		// has for it, whose spare bytes take the next frames.
		next = append(slices.Grow([]byte(nil), len(cur)+len(frame)), cur...)
	}
	next = append(next, frame...)
	s.pages[id] = next
	s.record(jFrame, id, frame)
	s.mu.Unlock()
	s.writes.Add(1)
	s.bytesWritten.Add(uint64(len(frame)))
	return clip(next), true
}

// Read returns the stable chain of page id, or ok=false if the page has
// never been written (or was freed). It is the chain the store holds, not a
// copy, and stays valid and unchanged after a later Write, Append or Free of
// the page: the reader may keep it and must not write to it. The buffer pool
// builds the cached page over it (page.DecodeInto, into the page an eviction
// freed) and lets go of it when a later miss decodes into that page again.
func (s *PageStore) Read(id base.PageID) (image []byte, ok bool) {
	s.mu.RLock()
	image, ok = s.pages[id]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	s.reads.Add(1)
	s.bytesRead.Add(uint64(len(image)))
	return clip(image), true
}

// Holds reports whether image — what a Read or Append of page id returned —
// is still the page's stable chain: no Write, Append or Free of the page came
// since. It compares the buffer and the length, and counts no read.
func (s *PageStore) Holds(id base.PageID, image []byte) bool {
	s.mu.RLock()
	cur, ok := s.pages[id]
	s.mu.RUnlock()
	return ok && same(cur, image)
}

// same reports whether a and b are one chain: the same buffer, as long.
func same(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// clip is b without the room past its length, which is the store's to
// append into.
func clip(b []byte) []byte { return b[:len(b):len(b)] }

// Exists reports whether the page has stable contents without counting a
// read.
func (s *PageStore) Exists(id base.PageID) bool {
	s.mu.RLock()
	_, ok := s.pages[id]
	s.mu.RUnlock()
	return ok
}

// Free durably removes the page (page delete, §5.2.2). The ID is not
// recycled.
func (s *PageStore) Free(id base.PageID) {
	s.mu.Lock()
	delete(s.pages, id)
	s.record(jFree, id, nil)
	s.mu.Unlock()
	s.frees.Add(1)
}

// Len returns the number of stable pages.
func (s *PageStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// IDs returns all stable page IDs (order unspecified).
func (s *PageStore) IDs() []base.PageID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]base.PageID, 0, len(s.pages))
	for id := range s.pages {
		out = append(out, id)
	}
	return out
}

// Stats returns a snapshot of I/O counters.
func (s *PageStore) Stats() Stats {
	return Stats{
		PageReads:   s.reads.Load(),
		PageWrites:  s.writes.Load(),
		PageFrees:   s.frees.Load(),
		BytesRead:   s.bytesRead.Load(),
		BytesWriten: s.bytesWritten.Load(),
		Syncs:       s.syncs.Load(),
	}
}

// LogStore is the medium of one write-ahead log and the only in-memory
// image of it. Records are opaque bytes keyed by the LSN their owner (package
// wal) assigned, strictly increasing in append order. Appends are volatile;
// Force makes every appended record stable; Crash discards whatever was not
// forced; Truncate releases a stable prefix. The stable LSN never regresses,
// not even when truncation empties the log, so the owner can always resume
// LSN allocation above everything stable state elsewhere may reference.
//
// The image is a list of chunks holding framed records back to back
// (uvarint LSN, uvarint length with the batch-end bit, record; see
// frameLocked) — byte for byte what the backing file holds after its header —
// plus one pointer-free reference per record. Records are appended in
// batches (AppendBatch), and the stable end only ever sits between two of
// them. Chunk bytes are write-once: nothing below a chunk's length is ever
// overwritten, so the slices Scan and Get return, and the spans Force and
// Truncate hand to the file, stay valid without a copy or a lock.
//
// Lock order is fmu, then mu. mu guards the image and is held only for
// memory operations; it is the only lock AppendBatch takes. fmu serializes Force,
// Truncate and Crash against each other and owns the file: the append+fsync
// of a force and the rewrite of a truncation run under fmu with mu released.
type LogStore struct {
	mu        sync.Mutex
	chunks    [][]byte
	first     uint32   // chunk number of chunks[0]; recRef.chunk counts from it
	recs      []recRef // retained records in LSN order
	stable    int      // recs[:stable] are forced; recs[stable:] die in Crash
	stableLSN uint64   // LSN of the last record ever forced

	forces, noopForces, bytes atomic.Uint64

	file *file // when set, the file that keeps the stable records (disk.go)
	fmu  sync.Mutex

	// ForceDelay simulates the latency of a stable force (fsync). No lock
	// is held while a force sleeps, so concurrent appends proceed — this
	// is what makes group forcing observable in benches.
	ForceDelay time.Duration
}

// recRef locates one framed record in the image.
type recRef struct {
	lsn        uint64
	chunk, off uint32
}

// chunkBytes is the capacity of a chunk; a larger record gets a chunk of
// its own.
const chunkBytes = 64 << 10

// NewLogStore returns an empty log store.
func NewLogStore() *LogStore { return &LogStore{} }

// AppendBatch adds recs to the volatile end of the log as one batch, at LSNs
// first, first+1, ...: they are copied into the image under one hold of the
// mutex, so a Force (which snapshots the end under it) makes the batch stable
// whole or not at all, and a Crash keeps all of it or none. first must exceed
// every LSN the store holds or has forced.
func (l *LogStore) AppendBatch(first uint64, recs ...[]byte) {
	if len(recs) == 0 {
		return
	}
	var total uint64
	l.mu.Lock()
	if last := l.lastLocked(); first <= last {
		l.mu.Unlock()
		panic(fmt.Sprintf("storage: log append of LSN %d at or below %d", first, last))
	}
	for i, rec := range recs {
		l.frameLocked(first+uint64(i), rec, i == len(recs)-1)
		total += uint64(len(rec))
	}
	l.mu.Unlock()
	l.bytes.Add(total)
}

// frameLocked appends one framed record to the image: its head
// (appendFrameHead), then the record.
func (l *LogStore) frameLocked(lsn uint64, rec []byte, last bool) {
	need := 2*binary.MaxVarintLen64 + len(rec)
	n := len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < need {
		l.chunks = append(l.chunks, make([]byte, 0, max(chunkBytes, need)))
		n++
	}
	c := l.chunks[n-1]
	l.recs = append(l.recs, recRef{lsn: lsn, chunk: l.first + uint32(n-1), off: uint32(len(c))})
	l.chunks[n-1] = append(appendFrameHead(c, lsn, len(rec), last), rec...)
}

// lastLocked returns the highest LSN appended or forced.
func (l *LogStore) lastLocked() uint64 {
	if n := len(l.recs); n > 0 {
		return l.recs[n-1].lsn
	}
	return l.stableLSN
}

// recLocked returns the bytes of one record, aliasing the image.
func (l *LogStore) recLocked(r recRef) []byte {
	b := l.chunks[r.chunk-l.first][r.off:]
	_, n := binary.Uvarint(b)
	size, m := binary.Uvarint(b[n:])
	size >>= 1 // the batch-end bit
	b = b[n+m:]
	return b[:size:size]
}

// spansLocked returns the framed bytes of recs[i:j] as slices of the chunks
// they sit in.
func (l *LogStore) spansLocked(i, j int) [][]byte {
	if i >= j {
		return nil
	}
	lo, hi := int(l.recs[i].chunk-l.first), int(l.recs[j-1].chunk-l.first)
	spans := slices.Clone(l.chunks[lo : hi+1])
	if j < len(l.recs) && l.recs[j].chunk == l.recs[j-1].chunk {
		spans[hi-lo] = spans[hi-lo][:l.recs[j].off]
	}
	spans[0] = spans[0][l.recs[i].off:]
	return spans
}

// Force makes every appended record stable and returns the stable LSN, the
// last of a batch. Records appended while the media write is in flight stay
// volatile until the next force.
//
// A force that finds nothing volatile is a no-op: neither ForceDelay nor the
// media fsync is paid. Group commit makes these common — one committer's
// force covers its neighbours' — and NoopForces counts them to prove the
// coalescing.
func (l *LogStore) Force() uint64 {
	l.mu.Lock()
	if l.stable == len(l.recs) {
		stable := l.stableLSN
		l.mu.Unlock()
		l.noopForces.Add(1)
		return stable
	}
	l.mu.Unlock()
	if l.ForceDelay > 0 {
		time.Sleep(l.ForceDelay)
	}
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.mu.Lock()
	n := len(l.recs)
	var pending [][]byte
	if l.file != nil {
		pending = l.spansLocked(l.stable, n)
	}
	l.mu.Unlock()
	if l.file != nil {
		l.file.write(pending...)
		l.file.sync()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// fmu kept Truncate and Crash out, so recs[:n] is what was snapshotted.
	if n > l.stable {
		l.stable, l.stableLSN = n, l.recs[n-1].lsn
	}
	l.forces.Add(1)
	return l.stableLSN
}

// Crash discards the volatile records. A force in flight completes first
// (its records were handed to the media; they are stable).
func (l *LogStore) Crash() {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stable == len(l.recs) {
		return
	}
	// Seal the chunk holding the first lost record at its stable length so
	// later appends start a new chunk instead of overwriting bytes a
	// reader may still alias.
	cut := l.recs[l.stable]
	k := int(cut.chunk - l.first)
	l.chunks[k] = l.chunks[k][:cut.off:cut.off]
	clear(l.chunks[k+1:])
	l.chunks = l.chunks[:k+1]
	l.recs = l.recs[:l.stable]
}

// Bounds returns the LSN of the first retained record (0 if none), the
// stable LSN (every record at or below it survives a crash) and the highest
// LSN appended; the last two never fall below a truncated LSN.
func (l *LogStore) Bounds() (start, stable, last uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.recs) > 0 {
		start = l.recs[0].lsn
	}
	return start, l.stableLSN, l.lastLocked()
}

// Scan returns the stable records with LSN >= from, in LSN order. Volatile
// records are not visible: recovery reads only the stable log. The slices
// alias the image and must not be written.
func (l *LogStore) Scan(from uint64) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(l.stable, func(i int) bool { return l.recs[i].lsn >= from })
	out := make([][]byte, 0, l.stable-i)
	for _, r := range l.recs[i:l.stable] {
		out = append(out, l.recLocked(r))
	}
	return out
}

// Get returns the retained record with exactly the given LSN, stable or
// volatile. The slice aliases the image and must not be written.
func (l *LogStore) Get(lsn uint64) ([]byte, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.recs), func(i int) bool { return l.recs[i].lsn >= lsn })
	if i == len(l.recs) || l.recs[i].lsn != lsn {
		return nil, false
	}
	return l.recLocked(l.recs[i]), true
}

// Truncate durably discards the stable records with LSN < before; volatile
// records are never discarded. Whole chunks are released and no retained
// record is copied. The backing file is rewritten from the retained chunks
// under fmu with mu released, so appends proceed during the rewrite.
func (l *LogStore) Truncate(before uint64) {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.mu.Lock()
	i := sort.Search(l.stable, func(i int) bool { return l.recs[i].lsn >= before })
	if i == 0 {
		l.mu.Unlock()
		return
	}
	drop := len(l.chunks)
	if i < len(l.recs) {
		drop = int(l.recs[i].chunk - l.first)
	}
	l.chunks = slices.Delete(l.chunks, 0, drop)
	l.first += uint32(drop)
	l.recs = slices.Delete(l.recs, 0, i)
	l.stable -= i
	var retained [][]byte
	if l.file != nil {
		retained = l.spansLocked(0, l.stable)
	}
	floor := l.stableLSN
	l.mu.Unlock()
	if l.file != nil {
		l.file.rewrite("log truncate rewrite", append([][]byte{logHeader(floor)}, retained...)...)
	}
}

// Forces returns the number of Force calls that hit the media (the fsync
// count for benches); no-op forces are excluded.
func (l *LogStore) Forces() uint64 { return l.forces.Load() }

// NoopForces returns the number of Force calls skipped because the stable
// end already covered every appended record — each one an fsync (and a
// ForceDelay) that group commit made redundant.
func (l *LogStore) NoopForces() uint64 { return l.noopForces.Load() }

// AppendedBytes returns total record bytes appended (log volume for
// benches); framing is not counted.
func (l *LogStore) AppendedBytes() uint64 { return l.bytes.Load() }
