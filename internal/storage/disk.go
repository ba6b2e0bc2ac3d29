package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/cidr09/unbundled/internal/base"
)

// Disk-backed stable media. The in-memory PageStore/LogStore simulate
// stable storage for tests and in-process deployments; a standalone DC process
// (cmd/unbundled-dc) needs the real thing, or a SIGKILL would take the
// "stable" half of the §5.3 failure model down with the volatile half.
// Both stores gain an optional write-through backing: reads stay in
// memory (the map is an exact image of the directory), every stable
// mutation also lands in the filesystem, and the Open* constructors
// rebuild the image from a previous incarnation's files.
//
// Durability posture: page writes and log forces go through atomic
// tmp+rename, and log forces fsync. That survives process kills
// unconditionally (the page cache belongs to the OS, not the process) and
// power loss up to the last fsync — the same contract the simulated
// Crash() models.
//
// The stores' mutation methods have no error returns (they model media
// that either works or is gone); an I/O failure on the backing directory
// is therefore fatal — the process dies and the failure becomes an
// ordinary DC crash for the rest of the deployment.

// OpenPageStoreDir returns a PageStore backed by dir, loading any pages a
// previous incarnation left there. Page files are named p<id>; the
// allocator high-water mark persists in "alloc" so crashed allocations
// are never reused.
func OpenPageStoreDir(dir string) (*PageStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := NewPageStore()
	s.dir = dir
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name)) // torn write from a kill
			continue
		}
		if !strings.HasPrefix(name, "p") {
			continue
		}
		id, err := strconv.ParseUint(name[1:], 10, 32)
		if err != nil {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		s.pages[base.PageID(id)] = data
		if uint32(id) > s.nextID {
			s.nextID = uint32(id)
		}
	}
	if data, err := os.ReadFile(filepath.Join(dir, "alloc")); err == nil {
		if n, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 32); err == nil && uint32(n) > s.nextID {
			s.nextID = uint32(n)
		}
	}
	return s, nil
}

func (s *PageStore) pagePath(id base.PageID) string {
	return filepath.Join(s.dir, fmt.Sprintf("p%d", uint32(id)))
}

// atomicWriteFile writes parts, in order, to path via a tmp file and rename,
// so a kill mid-write never leaves a torn page or log image.
func atomicWriteFile(path string, sync bool, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, part := range parts {
		if _, err := f.Write(part); err != nil {
			f.Close()
			return err
		}
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ResetForFormat clears the allocator of an empty store. A kill between
// a format's first allocation and its first page write leaves a persisted
// allocator with zero pages; the next incarnation re-formats from
// scratch, so the stale allocator must go or the format's well-known
// page-ID assumptions break forever. Refuses (loudly) on a non-empty
// store — formatting over data is never intended.
func (s *PageStore) ResetForFormat() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pages) > 0 {
		panic(fmt.Sprintf("storage: allocator reset on a store holding %d pages", len(s.pages)))
	}
	s.nextID = 0
	s.persistAlloc(0)
}

// persistWrite mirrors a page write into the backing directory. It runs
// under the store's write lock deliberately: file rename order must match
// map update order per page, or a reopen could resurrect an older version
// of a page whose newer write was already acknowledged. Page writes are
// off the commit hot path (flushes and SMO forces), so consistency wins
// over concurrency here; the log store, which *is* on the commit path,
// stages its I/O outside the mutex instead.
func (s *PageStore) persistWrite(id base.PageID, data []byte) {
	if s.dir == "" {
		return
	}
	if err := atomicWriteFile(s.pagePath(id), false, data); err != nil {
		panic(fmt.Sprintf("storage: page %d write to %s: %v", id, s.dir, err))
	}
}

func (s *PageStore) persistFree(id base.PageID) {
	if s.dir == "" {
		return
	}
	if err := os.Remove(s.pagePath(id)); err != nil && !os.IsNotExist(err) {
		panic(fmt.Sprintf("storage: page %d free in %s: %v", id, s.dir, err))
	}
}

func (s *PageStore) persistAlloc(next uint32) {
	if s.dir == "" {
		return
	}
	if err := atomicWriteFile(filepath.Join(s.dir, "alloc"), false, []byte(strconv.FormatUint(uint64(next), 10))); err != nil {
		panic(fmt.Sprintf("storage: allocator persist in %s: %v", s.dir, err))
	}
}

// Log file format: an 8-byte big-endian header, then the framed records
// exactly as LogStore's chunks hold them, the last frame of every batch
// marked. The header is the floor — the stable LSN when the image was
// written, which is all a log truncated empty has left to say — with its top
// bit (logFormat) set: the bit names the batch-marked frame format, so an
// image of the earlier unmarked one is refused, and left as it is, instead of
// being read as torn batches and cut. Force appends the newly stable frames
// and fsyncs; Truncate rewrites the file atomically (checkpoints are rare;
// simplicity wins).
const (
	logHeaderBytes = 8
	logFormat      = 1 << 63
)

// logHeader returns the header of an image whose floor is floor.
func logHeader(floor uint64) []byte {
	if floor&logFormat != 0 {
		panic(fmt.Sprintf("storage: log floor %d beyond the file format", floor))
	}
	return binary.BigEndian.AppendUint64(nil, floor|logFormat)
}

// OpenLogStoreFile returns a LogStore backed by path, loading the records
// a previous incarnation forced there. Everything in the file is stable
// by construction — unforced records never reach it.
func OpenLogStoreFile(path string) (*LogStore, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	os.Remove(path + ".tmp") // torn truncate rewrite from a kill
	l := NewLogStore()
	l.path = path
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	created := err != nil
	if created {
		data = logHeader(0)
	}
	clean, err := l.load(data)
	if err != nil {
		return nil, fmt.Errorf("storage: log %s: %w", path, err)
	}
	// A kill mid-append can leave torn bytes after the last whole batch.
	// Rewrite the clean image before appending again, or the garbage would
	// sit between old and new records and corrupt the next reopen.
	if created || clean < len(data) {
		if err := atomicWriteFile(path, true, data[:clean]); err != nil {
			return nil, err
		}
	}
	return l, l.reopenFile()
}

// load makes the file image data the store's one chunk, indexes the records
// of its whole batches and returns the length of the image up to the last of
// them. A force writes its frames span by span, so a kill can leave a batch
// torn anywhere — inside a frame or between two — after the whole batches an
// earlier fsync covered: everything from the frame after the last marked one
// on is cut. An image whose header lacks logFormat is refused whole.
func (l *LogStore) load(data []byte) (clean int, err error) {
	if len(data) < logHeaderBytes {
		return 0, errors.New("truncated header")
	}
	if uint64(len(data)) > math.MaxUint32 {
		return 0, errors.New("image exceeds 4 GiB")
	}
	floor := binary.BigEndian.Uint64(data)
	if floor&logFormat == 0 {
		return 0, errors.New("header lacks the format bit: an image of the format without batch marks")
	}
	floor &^= logFormat
	body := data[logHeaderBytes:]
	off, prev := 0, uint64(0)
	end, whole, last := 0, 0, uint64(0) // the image up to the last marked frame
	for off < len(body) {
		lsn, n := binary.Uvarint(body[off:])
		if n <= 0 {
			break
		}
		size, m := binary.Uvarint(body[off+n:])
		if m <= 0 || size>>1 > uint64(len(body)-off-n-m) {
			break
		}
		if lsn <= prev {
			return 0, fmt.Errorf("record LSN %d follows %d", lsn, prev)
		}
		l.recs = append(l.recs, recRef{lsn: lsn, off: uint32(off)})
		off, prev = off+n+m+int(size>>1), lsn
		if size&1 != 0 {
			end, whole, last = off, len(l.recs), lsn
		}
	}
	l.recs = l.recs[:whole]
	if whole > 0 && last < floor {
		// Truncation releases a prefix, so an image with records was
		// written with the last of them (or an earlier one) as its floor.
		return 0, fmt.Errorf("floor %d above last record %d", floor, last)
	}
	l.chunks = [][]byte{body[:end]}
	l.stable, l.stableLSN = whole, max(floor, last)
	return logHeaderBytes + end, nil
}

func (l *LogStore) reopenFile() error {
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.file = f
	return nil
}

// persistForce appends the frames that are becoming stable, whole batches,
// and fsyncs. It writes them one span at a time, so a kill can leave the last
// batch torn; load cuts it. Called by Force holding fmu (not mu).
func (l *LogStore) persistForce(pending [][]byte) {
	if len(pending) == 0 {
		return
	}
	for _, span := range pending {
		if _, err := l.file.Write(span); err != nil {
			panic(fmt.Sprintf("storage: log append %s: %v", l.path, err))
		}
	}
	if err := l.file.Sync(); err != nil {
		panic(fmt.Sprintf("storage: log fsync %s: %v", l.path, err))
	}
}

// persistTruncate rewrites the backing file as floor plus the retained
// frames. Called by Truncate holding fmu (not mu), after the image moved.
func (l *LogStore) persistTruncate(floor uint64, retained [][]byte) {
	if l.file == nil {
		return
	}
	if err := atomicWriteFile(l.path, true, append([][]byte{logHeader(floor)}, retained...)...); err != nil {
		panic(fmt.Sprintf("storage: log truncate rewrite %s: %v", l.path, err))
	}
	l.file.Close()
	if err := l.reopenFile(); err != nil {
		panic(fmt.Sprintf("storage: log reopen %s: %v", l.path, err))
	}
}
