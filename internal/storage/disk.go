package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"github.com/cidr09/unbundled/internal/base"
)

// Disk-backed stable media. The in-memory stores simulate stable storage for
// tests and in-process deployments; a standalone DC process (cmd/unbundled-dc)
// needs the real thing, or a SIGKILL would take the "stable" half of the §5.3
// failure model down with the volatile half. Either store can be backed by
// one file: reads stay in memory, every stable mutation is also appended to
// the file, and the Open* constructors rebuild the image from it. Both files
// are a header (logHeader) and frames (appendFrameHead), read by one scan
// (LogStore.load) that cuts what follows the last whole batch: what a kill
// tore, or zeros a power loss left.
//
// A log force appends and fsyncs. A page store appends a record per mutation
// and fsyncs in Sync, which a DC checkpoint calls before either log
// truncates. Log truncation and journal compaction rewrite the file through
// a synced tmp file, a rename and a directory fsync. So a kill loses nothing
// written (the page cache is the OS's, not the process's), and a power loss
// what followed a file's last fsync: of the page journal, the writes since
// the last checkpoint, which the logs still hold.
//
// An I/O failure on a backing file panics: the mutation methods model media
// that works or is gone, so the process dies, an ordinary DC crash to the
// rest of the deployment.

// file is a store's backing file, open for appending.
type file struct {
	path         string
	f            *os.File
	size, synced int64 // its length, now and at its last fsync
}

func (f *file) check(op string, err error) {
	if err != nil {
		panic(fmt.Sprintf("storage: %s %s: %v", op, f.path, err))
	}
}

// write appends spans, one write each.
func (f *file) write(spans ...[]byte) {
	for _, span := range spans {
		_, err := f.f.Write(span)
		f.check("append to", err)
		f.size += int64(len(span))
	}
}

func (f *file) sync() {
	f.check("fsync", fsync(f.f))
	f.synced = f.size
}

// fsync is (*os.File).Sync; a test blocks it to watch what waits for it.
var fsync = (*os.File).Sync

// rewrite replaces the file with parts, synced; op names the caller.
func (f *file) rewrite(op string, parts ...[]byte) {
	f.check(op, atomicWriteFile(f.path, true, parts...))
	f.f.Close()
	var err error
	f.f, err = os.OpenFile(f.path, os.O_WRONLY|os.O_APPEND, 0)
	f.check("reopen", err)
	f.size = 0
	for _, p := range parts {
		f.size += int64(len(p))
	}
	f.synced = f.size
}

// openFile opens the file at path once load has indexed its image — header
// alone if there is no file yet — and returned the length of its whole part.
// A torn tail is cut, by a synced rewrite, before anything is appended behind
// it.
func openFile(path string, header []byte, load func([]byte) (int, error)) (*file, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	os.Remove(path + ".tmp") // a rewrite a kill interrupted
	data, err := os.ReadFile(path)
	created := os.IsNotExist(err)
	if created {
		data, err = header, nil
	}
	if err != nil {
		return nil, err
	}
	clean, err := load(data)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	if created || clean < len(data) {
		if err := atomicWriteFile(path, true, data[:clean]); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	return &file{path: path, f: f, size: int64(clean), synced: int64(clean)}, err
}

// atomicWriteFile writes parts, in order, to path via a tmp file and rename,
// so a kill mid-write never leaves a torn image. With sync, the tmp file is
// fsynced before the rename and the directory after it (where the platform
// can: not on Windows), so a power loss leaves the old image or the new one.
func atomicWriteFile(path string, sync bool, parts ...[]byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 64<<10)
	for _, part := range parts {
		w.Write(part) // an error sticks: Flush reports it
	}
	if err = w.Flush(); err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil || !sync || runtime.GOOS == "windows" {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// A page journal record is one frame, a batch of its own, whose LSN field
// numbers it from 1 within its file: the page ID shifted left by two and its
// kind in the low bits, as a uvarint, the CRC-32C (Castagnoli) of that
// uvarint and the kind's bytes, big-endian, then the kind's bytes. The
// checksum is what tells a record whose head reached the media and whose
// bytes did not: a power loss can persist a file's length before its data.
const (
	jBase  = iota // the bytes are the page's chain from here on
	jFrame        // the bytes are one delta frame onto the page's chain
	jFree         // the page is gone
	jAlloc        // the allocator reached the ID
)

// crcBytes is the length of a page journal record's checksum, and
// recordHeadBytes the most its head takes: frame head, page ID and kind,
// checksum. journalFloor is a page journal's header floor, which its record
// numbers never fall below: it marks the records as checksummed, so a
// journal of the format without checksums, whose floor is 0, is refused and
// left as it is, not cut as one long torn tail.
const (
	crcBytes        = 4
	recordHeadBytes = 3*binary.MaxVarintLen64 + crcBytes
	journalFloor    = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// compactFloor is the slack a page journal keeps: Sync rewrites it as the
// live chains once it holds more than twice their bytes plus this.
const compactFloor = 1 << 20

// OpenPageStoreFile returns a PageStore backed by the journal at path,
// loading what a previous incarnation left there. The records are replayed
// in order: a base starts a page's chain, a frame extends it, a free deletes
// it, and the allocator takes the highest ID any record names, so an
// allocation that reached the file is never reused. A record that fails its
// checksum is cut with everything after it, as a torn frame is, when no
// record after it passes: what a kill or a power loss left of the writes
// since the last Sync. One that a whole record follows is no such tail, and
// the journal is refused, as is one whose header floor is not journalFloor.
func OpenPageStoreFile(path string) (s *PageStore, err error) {
	s = NewPageStore()
	s.file, err = openFile(path, logHeader(journalFloor), func(data []byte) (int, error) {
		var l LogStore
		clean, err := l.load(data)
		if err != nil {
			return 0, err
		}
		if floor := binary.BigEndian.Uint64(data) &^ formatBits; floor != journalFloor {
			return 0, fmt.Errorf("a page journal's header floor is %d, not %d: a journal without checksums", floor, journalFloor)
		}
		for i, r := range l.recs {
			v, rec, ok := checked(l.recLocked(r))
			if !ok {
				for _, later := range l.recs[i+1:] {
					if _, _, ok := checked(l.recLocked(later)); ok {
						return 0, fmt.Errorf("page record %d fails its checksum, and record %d after it passes", r.lsn, later.lsn)
					}
				}
				return logHeaderBytes + int(r.off), nil
			}
			if err := s.replay(v, rec); err != nil {
				return 0, err
			}
			s.seq = r.lsn
		}
		return clean, nil
	})
	return s, err
}

// checked splits rec, a page journal record, into its page ID and kind and
// its bytes, and reports whether its checksum holds.
func checked(rec []byte) (v uint64, data []byte, ok bool) {
	v, n := binary.Uvarint(rec)
	if n <= 0 || len(rec) < n+crcBytes {
		return 0, nil, false
	}
	data = rec[n+crcBytes:]
	crc := crc32.Update(crc32.Checksum(rec[:n], castagnoli), castagnoli, data)
	return v, data, crc == binary.BigEndian.Uint32(rec[n:])
}

// replay applies one journal record to the store being opened: v is its
// page ID and kind, data the kind's bytes.
func (s *PageStore) replay(v uint64, data []byte) error {
	if id := v >> 2; id == 0 || id > math.MaxUint32 {
		return fmt.Errorf("a page record names page %d", v>>2)
	}
	pid := base.PageID(v >> 2)
	s.nextID = max(s.nextID, uint32(pid))
	switch v & 3 {
	case jBase:
		s.pages[pid] = bytes.Clone(data)
	case jFrame:
		chain, ok := s.pages[pid]
		if !ok {
			return fmt.Errorf("frame for page %d, which has no base", pid)
		}
		s.pages[pid] = append(chain, data...)
	case jFree:
		delete(s.pages, pid)
	}
	return nil
}

// record appends one record to the journal in one write. It runs under the
// store's write lock, so the journal's order is the order of the map's
// updates.
func (s *PageStore) record(kind byte, id base.PageID, data []byte) {
	if s.file == nil {
		return
	}
	s.seq++
	s.buf = append(appendRecordHead(s.buf[:0], s.seq, kind, uint32(id), data), data...)
	s.file.write(s.buf)
}

// appendRecordHead appends the head of the journal record numbered seq that
// carries data: its frame head, page ID and kind, and checksum. The data
// follows it.
func appendRecordHead(dst []byte, seq uint64, kind byte, id uint32, data []byte) []byte {
	var h [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(h[:], uint64(id)<<2|uint64(kind))
	dst = append(appendFrameHead(dst, seq, k+crcBytes+len(data), true), h[:k]...)
	crc := crc32.Update(crc32.Checksum(dst[len(dst)-k:], castagnoli), castagnoli, data)
	return binary.BigEndian.AppendUint32(dst, crc)
}

// Sync makes every mutation so far survive a power loss: it fsyncs the
// journal or, once the journal holds more than twice the live chains' bytes
// plus compactFloor, rewrites it as those chains. In memory it does nothing.
// The fsync runs with the store's lock released, so reads and writes go on
// meanwhile; what they append after the journal's length was taken is left
// to the next Sync. A compaction holds the lock throughout.
func (s *PageStore) Sync() {
	if s.file == nil {
		return
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	s.mu.Lock()
	live := 0
	for _, chain := range s.pages {
		live += len(chain)
	}
	if size := s.file.size; size <= 2*int64(live)+compactFloor {
		s.mu.Unlock()
		s.file.check("fsync", fsync(s.file.f))
		s.mu.Lock()
		s.file.synced = size
		s.syncs.Add(1)
	} else {
		s.compactLocked()
		s.syncs.Add(2) // the new file's and its directory's
	}
	s.mu.Unlock()
}

// compactLocked rewrites the journal as a base per page holding its whole
// chain, then the allocator. The chains in memory are the source: the old
// journal is not read.
func (s *PageStore) compactLocked() {
	heads := make([]byte, 0, len(s.pages)*recordHeadBytes) // never regrown: parts alias it
	parts := [][]byte{logHeader(journalFloor)}
	s.seq = 0
	for id, chain := range s.pages {
		s.seq++
		n := len(heads)
		heads = appendRecordHead(heads, s.seq, jBase, uint32(id), chain)
		parts = append(parts, heads[n:], chain)
	}
	if s.nextID > 0 {
		s.seq++
		parts = append(parts, appendRecordHead(nil, s.seq, jAlloc, s.nextID, nil))
	}
	s.file.rewrite("journal compaction", parts...)
}

// PowerCut cuts the journal back to its length at the last Sync — what a
// power loss leaves of it at worst — and closes it. A test hook: nothing may
// write to the store after it; open the file again instead.
func (s *PageStore) PowerCut() {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.file.f.Close()
	s.file.check("cut", os.Truncate(s.file.path, s.file.synced))
}

// A file's 8-byte header is a log's floor — the stable LSN when the image
// was written, all a log truncated empty has left to say — with the format
// in its top two bits (logFormat): batch-marked frames, each of a log's
// records in the compact encoding of package wal (no length of its own, its
// links as deltas). An image of an earlier format is refused, and left as
// it is: one with neither bit holds unmarked frames, which would be read as
// torn batches and cut, and one with the top bit alone (markedFormat) holds
// records with full-width links and a length, which would be read as other
// records. A log file's frames are byte for byte LogStore's chunks.
const (
	logHeaderBytes = 8
	formatBits     = 3 << 62
	logFormat      = 3 << 62
	markedFormat   = 1 << 63
)

// logHeader returns the header of an image whose floor is floor.
func logHeader(floor uint64) []byte {
	if floor&formatBits != 0 {
		panic(fmt.Sprintf("storage: log floor %d beyond the file format", floor))
	}
	return binary.BigEndian.AppendUint64(nil, floor|logFormat)
}

// checkFormat refuses a header of any format but logFormat, naming it.
func checkFormat(header uint64) error {
	switch header & formatBits {
	case logFormat:
		return nil
	case 0:
		return errors.New("header lacks the format bits: an image of the format without batch marks")
	case markedFormat:
		return errors.New("header names the batch-marked format of full-width log records: an image written before the compact record encoding")
	}
	return fmt.Errorf("header names unknown format %d", header>>62)
}

// appendFrameHead appends the head of a frame of size record bytes: the LSN
// and the size shifted left by one with the low bit set on the last frame of
// a batch, both uvarints. The bit is what lets a reopened file cut a batch
// that a kill left half written (see load).
func appendFrameHead(dst []byte, lsn uint64, size int, last bool) []byte {
	v := uint64(size) << 1
	if last {
		v |= 1
	}
	return binary.AppendUvarint(binary.AppendUvarint(dst, lsn), v)
}

// OpenLogStoreFile returns a LogStore backed by path, loading the records
// a previous incarnation forced there. Everything in the file is stable
// by construction — unforced records never reach it.
func OpenLogStoreFile(path string) (l *LogStore, err error) {
	l = NewLogStore()
	l.file, err = openFile(path, logHeader(0), l.load)
	return l, err
}

// load makes the file image data the store's one chunk, indexes the records
// of its whole batches and returns the length of the image up to the last of
// them. A force writes its frames span by span, so a kill can leave a batch
// torn anywhere — inside a frame or between two — after the whole batches an
// earlier fsync covered, and a power loss can leave zeros there: everything
// from the frame after the last marked one on is cut. An LSN is never 0, so a
// zero byte where one starts ends the image. An image whose header names
// another format than logFormat is refused whole.
func (l *LogStore) load(data []byte) (clean int, err error) {
	if len(data) < logHeaderBytes {
		return 0, errors.New("truncated header")
	}
	if uint64(len(data)) > math.MaxUint32 {
		return 0, errors.New("image exceeds 4 GiB")
	}
	floor := binary.BigEndian.Uint64(data)
	if err := checkFormat(floor); err != nil {
		return 0, err
	}
	floor &^= formatBits
	body := data[logHeaderBytes:]
	off, prev := 0, uint64(0)
	end, whole, last := 0, 0, uint64(0) // the image up to the last marked frame
	for off < len(body) {
		lsn, n := binary.Uvarint(body[off:])
		if n <= 0 || lsn == 0 {
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
