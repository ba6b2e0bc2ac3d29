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
	"os"
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
}

// PageStore is a crash-safe page store: Write is atomic per page (no torn
// writes — mirroring sector-atomic page writes assumed by the paper's
// recovery protocols). A page image is write-once and shared: Write keeps
// the buffer it is handed and Read returns it, so the simulated disk and the
// cache above it hold one copy of a page's bytes, not two. The zero value is
// not usable; call NewPageStore.
type PageStore struct {
	mu     sync.RWMutex
	pages  map[base.PageID][]byte
	nextID uint32 // persisted allocator; see AllocPageID
	// dir, when nonempty, write-through-backs the store with one file per
	// page so stable contents survive process death (see disk.go).
	dir string

	reads, writes, frees, bytesRead, bytesWritten atomic.Uint64
}

// NewPageStore returns an empty page store. Page IDs start at 1; 0 is the
// invalid PageID.
func NewPageStore() *PageStore {
	return &PageStore{pages: make(map[base.PageID][]byte), nextID: 0}
}

// AllocPageID durably allocates a fresh page identifier. Allocation is a
// stable operation: a crash after AllocPageID never reuses the ID, so
// system-transaction redo can recreate pages by ID without collisions.
func (s *PageStore) AllocPageID() base.PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.persistAlloc(s.nextID)
	return base.PageID(s.nextID)
}

// NoteAllocated raises the allocator to at least id (used when DC-log
// recovery observes a page image with an ID the allocator has not reached;
// cannot happen with stable allocation but kept as a defensive invariant).
func (s *PageStore) NoteAllocated(id base.PageID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if uint32(id) > s.nextID {
		s.nextID = uint32(id)
	}
}

// Write atomically replaces the stable contents of page id with image, and
// takes the buffer: the store keeps those very bytes, so the caller must not
// write to them again (every caller hands over a fresh page.Encode). Images
// are write-once, as LogStore's chunks are: a newer version of the page is
// another buffer, never an edit of this one.
func (s *PageStore) Write(id base.PageID, image []byte) {
	if id == 0 {
		panic("storage: write to invalid page 0")
	}
	s.mu.Lock()
	s.pages[id] = image
	s.persistWrite(id, image)
	s.mu.Unlock()
	s.writes.Add(1)
	s.bytesWritten.Add(uint64(len(image)))
}

// Read returns the stable image of page id, or ok=false if the page has
// never been written (or was freed). It is the image the store holds, not a
// copy, and stays valid and unchanged after a later Write or Free of the
// page: the reader may keep it (page.Decode builds the cached page over it)
// and must not write to it.
func (s *PageStore) Read(id base.PageID) (image []byte, ok bool) {
	s.mu.RLock()
	image, ok = s.pages[id]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	s.reads.Add(1)
	s.bytesRead.Add(uint64(len(image)))
	return image, true
}

// Holds reports whether image — what a Read of page id returned — is still
// the page's stable image: no Write or Free of the page came since. It
// counts no read.
func (s *PageStore) Holds(id base.PageID, image []byte) bool {
	s.mu.RLock()
	cur, ok := s.pages[id]
	s.mu.RUnlock()
	return ok && len(cur) > 0 && len(image) > 0 && &cur[0] == &image[0]
}

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
	s.persistFree(id)
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

	// path and file, when set, back the stable records with an fsynced
	// file so they survive process death (see disk.go).
	path string
	file *os.File
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

// frameLocked appends one framed record to the image: uvarint LSN, uvarint
// length shifted left by one with the low bit set on the last frame of a
// batch, the record. The bit is what lets a reopened file cut a batch that a
// kill left half written (see load).
func (l *LogStore) frameLocked(lsn uint64, rec []byte, last bool) {
	need := 2*binary.MaxVarintLen64 + len(rec)
	n := len(l.chunks)
	if n == 0 || cap(l.chunks[n-1])-len(l.chunks[n-1]) < need {
		l.chunks = append(l.chunks, make([]byte, 0, max(chunkBytes, need)))
		n++
	}
	c := l.chunks[n-1]
	l.recs = append(l.recs, recRef{lsn: lsn, chunk: l.first + uint32(n-1), off: uint32(len(c))})
	size := uint64(len(rec)) << 1
	if last {
		size |= 1
	}
	c = binary.AppendUvarint(c, lsn)
	c = binary.AppendUvarint(c, size)
	l.chunks[n-1] = append(c, rec...)
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
	l.persistForce(pending)
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
	l.persistTruncate(floor, retained)
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
