// Package storage simulates the stable media under a data component: an
// atomic page store and an append-only log store. "Stable" contents
// survive component crashes; everything above storage (buffer pool, log
// buffers) is volatile and lost on Crash. This is the substitution for
// real disks: it preserves the stable/volatile divide that drives the
// paper's §5.3 partial-failure protocols, and it counts I/O so experiments
// can report read/write/force traffic.
package storage

import (
	"fmt"
	"os"
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
// recovery protocols). The zero value is not usable; call NewPageStore.
type PageStore struct {
	mu     sync.RWMutex
	pages  map[base.PageID][]byte
	nextID uint32 // persisted allocator; see AllocPageID
	// dir, when nonempty, write-through-backs the store with one file per
	// page so stable contents survive process death (see disk.go).
	dir string

	// WriteDelay simulates media latency per page write (0 = none).
	WriteDelay time.Duration
	// ReadDelay simulates media latency per page read (0 = none).
	ReadDelay time.Duration

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

// Write atomically replaces the stable contents of page id. The data is
// copied; callers may reuse the buffer.
func (s *PageStore) Write(id base.PageID, data []byte) {
	if id == 0 {
		panic("storage: write to invalid page 0")
	}
	if s.WriteDelay > 0 {
		time.Sleep(s.WriteDelay)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.pages[id] = cp
	s.persistWrite(id, cp)
	s.mu.Unlock()
	s.writes.Add(1)
	s.bytesWritten.Add(uint64(len(data)))
}

// Read returns a copy of the stable contents of page id, or ok=false if the
// page has never been written (or was freed).
func (s *PageStore) Read(id base.PageID) (data []byte, ok bool) {
	if s.ReadDelay > 0 {
		time.Sleep(s.ReadDelay)
	}
	s.mu.RLock()
	d, ok := s.pages[id]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	cp := make([]byte, len(d))
	copy(cp, d)
	s.reads.Add(1)
	s.bytesRead.Add(uint64(len(d)))
	return cp, true
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

// LogStore is the stable half of a write-ahead log: an append-only sequence
// of opaque records with a force boundary. Appends land in a volatile tail;
// Force makes the tail stable; Crash discards whatever was not forced.
type LogStore struct {
	mu         sync.Mutex
	stable     [][]byte // records [0, forced)
	tail       [][]byte // records [forced, end)
	start      uint64   // logical index of stable[0] after truncation
	bound      uint64   // owner-supplied watermark surviving full truncation
	forces     atomic.Uint64
	noopForces atomic.Uint64
	appends    atomic.Uint64
	bytes      atomic.Uint64
	// path/file, when set, back the stable half with an append-mostly
	// fsynced file so forced records survive process death (see disk.go).
	// fmu serializes the file I/O itself, which runs *outside* mu so the
	// documented group-commit concurrency (appends proceed while a force
	// is in flight) holds for disk-backed logs too.
	path string
	file *os.File
	fmu  sync.Mutex

	// ForceDelay simulates the latency of a stable force (fsync). While a
	// force sleeps the store mutex is NOT held, so concurrent appends
	// proceed — this is what makes group forcing observable in benches.
	ForceDelay time.Duration
}

// NewLogStore returns an empty log store.
func NewLogStore() *LogStore { return &LogStore{} }

// Append adds a record to the volatile tail and returns its logical index.
func (l *LogStore) Append(rec []byte) uint64 {
	cp := make([]byte, len(rec))
	copy(cp, rec)
	l.mu.Lock()
	idx := l.start + uint64(len(l.stable)+len(l.tail))
	l.tail = append(l.tail, cp)
	l.mu.Unlock()
	l.appends.Add(1)
	l.bytes.Add(uint64(len(rec)))
	return idx
}

// Force makes every appended record stable and returns the first
// un-appended index (i.e. records < that index are stable). On a
// disk-backed store the file append+fsync runs under fmu but outside mu,
// so concurrent Appends proceed during the (slow) media write; records
// appended mid-force stay volatile until the next force.
//
// A force that finds the tail empty is a no-op: the stable end already
// covers every appended record, so neither ForceDelay nor the media fsync
// is paid. Group commit makes these common — one committer's force covers
// its neighbours', whose own Force calls then land on an empty tail — and
// NoopForces counts them to prove the coalescing.
func (l *LogStore) Force() uint64 {
	l.mu.Lock()
	if len(l.tail) == 0 {
		end := l.start + uint64(len(l.stable))
		l.mu.Unlock()
		l.noopForces.Add(1)
		return end
	}
	l.mu.Unlock()
	if l.ForceDelay > 0 {
		time.Sleep(l.ForceDelay)
	}
	l.fmu.Lock()
	l.mu.Lock()
	n := len(l.tail)
	pending := l.tail[:n:n] // records are immutable once appended
	l.mu.Unlock()
	if n > 0 {
		l.persistForce(pending) // file I/O outside mu, serialized by fmu
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	defer l.fmu.Unlock()
	if n > 0 {
		l.stable = append(l.stable, l.tail[:n]...)
		l.tail = append([][]byte(nil), l.tail[n:]...)
	}
	l.forces.Add(1)
	return l.start + uint64(len(l.stable))
}

// StableEnd returns the first non-stable index.
func (l *LogStore) StableEnd() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start + uint64(len(l.stable))
}

// End returns the first unused index (stable + volatile).
func (l *LogStore) End() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start + uint64(len(l.stable)+len(l.tail))
}

// Crash discards the volatile tail, leaving only forced records. A force
// in flight completes first (its records were handed to the media; they
// are stable).
func (l *LogStore) Crash() {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.mu.Lock()
	l.tail = nil
	l.mu.Unlock()
}

// Scan returns copies of stable records with logical index in [from, end).
// Volatile tail records are not visible to Scan: recovery reads only the
// stable log.
func (l *LogStore) Scan(from uint64) [][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.start {
		from = l.start
	}
	lo := from - l.start
	if lo >= uint64(len(l.stable)) {
		return nil
	}
	out := make([][]byte, 0, uint64(len(l.stable))-lo)
	for _, r := range l.stable[lo:] {
		cp := make([]byte, len(r))
		copy(cp, r)
		out = append(out, cp)
	}
	return out
}

// Truncate durably discards stable records with index < before. Volatile
// records are unaffected. Truncating beyond the stable end panics: the
// caller must only release what the checkpoint contract allows. The
// backing-file rewrite runs outside mu (under fmu), so readers and
// appenders are not blocked behind the media I/O.
func (l *LogStore) Truncate(before uint64) {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	l.mu.Lock()
	if before <= l.start {
		l.mu.Unlock()
		return
	}
	n := before - l.start
	if n > uint64(len(l.stable)) {
		end := l.start + uint64(len(l.stable))
		l.mu.Unlock()
		panic(fmt.Sprintf("storage: truncate(%d) beyond stable end %d", before, end))
	}
	l.stable = append([][]byte(nil), l.stable[n:]...)
	l.start = before
	img := l.imageLocked()
	l.mu.Unlock()
	l.persistTruncate(img)
}

// SetBound durably records an owner-supplied watermark (the wal layer's
// highest-truncated LSN) that must survive even when truncation empties
// the log: a reopened store with zero records must still know how far the
// LSN space was consumed, or a new incarnation would re-allocate LSNs the
// stable pages already reference. Call before Truncate; the bound rides
// the truncation rewrite into the file header.
func (l *LogStore) SetBound(bound uint64) {
	l.mu.Lock()
	if bound > l.bound {
		l.bound = bound
	}
	l.mu.Unlock()
}

// Bound returns the highest bound ever set (0 if none).
func (l *LogStore) Bound() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bound
}

// Start returns the logical index of the first retained record.
func (l *LogStore) Start() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.start
}

// Forces returns the number of Force calls that hit the media (the fsync
// count for benches); no-op forces are excluded.
func (l *LogStore) Forces() uint64 { return l.forces.Load() }

// NoopForces returns the number of Force calls skipped because the stable
// end already covered every appended record — each one an fsync (and a
// ForceDelay) that group commit made redundant.
func (l *LogStore) NoopForces() uint64 { return l.noopForces.Load() }

// AppendedBytes returns total bytes appended (log volume for benches).
func (l *LogStore) AppendedBytes() uint64 { return l.bytes.Load() }
