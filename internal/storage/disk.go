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
// the file, and the Open* constructors rebuild the image from it. The
// TC-log, the DC-log and the page journal are each a header (logHeader) and
// checksummed frames (appendFrame), read by one rule (LogStore.load) that
// cuts what a kill tore or a power loss left behind the last whole batch.
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

// fsync is (*os.File).Sync, every fsync of the package's; a test blocks it to
// watch what waits for it, and a fuzz target skips it.
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
		err = fsync(f)
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
	return fsync(dir)
}

// A page journal record is one frame, a batch of its own, whose LSN numbers
// it within its file: its record is the page ID shifted left by two and its
// kind in the low bits, as a uvarint, then the kind's bytes.
const (
	jBase  = iota // the bytes are the page's chain from here on
	jFrame        // the bytes are one delta frame onto the page's chain
	jFree         // the page is gone
	jAlloc        // the allocator reached the ID
)

// recordHeadBytes is the most a journal record's head takes: frame head,
// page ID and kind.
const recordHeadBytes = 3*binary.MaxVarintLen64 + sumBytes

// compactFloor is the slack a page journal keeps: Sync rewrites it as the
// live chains once it holds more than twice their bytes plus this.
const compactFloor = 1 << 20

// OpenPageStoreFile returns a PageStore backed by the journal at path,
// loading what a previous incarnation left there. LogStore.load decides
// which records are whole; they are replayed in order: a base starts a
// page's chain, a frame extends it, a free deletes it, and the allocator
// takes the highest ID any record names, so an allocation that reached the
// file is never reused.
func OpenPageStoreFile(path string) (s *PageStore, err error) {
	s = NewPageStore()
	s.file, err = openFile(path, logHeader(0), func(data []byte) (int, error) {
		var l LogStore
		clean, err := l.load(data)
		if err != nil {
			return 0, err
		}
		for _, r := range l.recs {
			if err := s.replay(l.recLocked(r)); err != nil {
				return 0, err
			}
		}
		s.seq = l.stableLSN
		return clean, nil
	})
	return s, err
}

// replay applies one journal record to the store being opened.
func (s *PageStore) replay(rec []byte) error {
	v, n := binary.Uvarint(rec)
	if id := v >> 2; n <= 0 || id == 0 || id > math.MaxUint32 {
		return fmt.Errorf("a page record names page %d", v>>2)
	}
	pid, data := base.PageID(v>>2), rec[n:]
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
// carries data: its frame head, then its page ID and kind. The data follows
// it.
func appendRecordHead(dst []byte, seq uint64, kind byte, id uint32, data []byte) []byte {
	var h [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(h[:], uint64(id)<<2|uint64(kind))
	return appendFrame(dst, seq, true, h[:k], data)
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
	parts := [][]byte{logHeader(0)}
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
// power loss leaves of it at worst — and closes it. Nothing may write to the
// store after it; open the file again instead.
// Test hook: storage's TestPowerCutKeepsWhatSyncCovered, dc's powerloss_test.go.
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
// in its top two bits. logFormat (checksummed frames, appendFrame, and a
// log's records in the compact encoding of package wal) is the last value
// the two bits have. An image of an earlier format is refused by name and
// left as it is, not cut as one corrupt tail: unmarked frames (neither bit),
// full-width records (markedFormat) and frames without checksums
// (uncheckedFormat). A log file's frames are byte for byte LogStore's chunks.
const (
	logHeaderBytes  = 8
	sumBytes        = 4 // a frame's checksum
	formatBits      = 3 << 62
	logFormat       = 1 << 62
	markedFormat    = 2 << 62
	uncheckedFormat = 3 << 62
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
	case 0:
		return errors.New("header lacks the format bits: an image of the format without batch marks")
	case markedFormat:
		return errors.New("header names the batch-marked format of full-width log records: an image written before the compact record encoding")
	case uncheckedFormat:
		return errors.New("header names the format of frames without checksums: an image written before every frame carried a CRC-32C")
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends the frame of the record rec+tail to dst: the LSN and
// the record's size shifted left by one, the low bit set on the last frame
// of a batch, as uvarints; the CRC-32C (Castagnoli) of those varints' bytes
// and the record, big-endian; then rec. tail is hashed, not appended: the
// caller writes it from where it lies. rec is hashed in dst, so a caller's
// record does not escape to the heap.
func appendFrame(dst []byte, lsn uint64, last bool, rec, tail []byte) []byte {
	v := uint64(len(rec)+len(tail)) << 1
	if last {
		v |= 1
	}
	at := len(dst)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, lsn), v)
	sum := len(dst)
	dst = append(append(dst, 0, 0, 0, 0), rec...)
	crc := crc32.Update(crc32.Checksum(dst[at:sum], castagnoli), castagnoli, dst[sum+sumBytes:])
	binary.BigEndian.PutUint32(dst[sum:], crc32.Update(crc, castagnoli, tail))
	return dst
}

// frameAt reads the frame at off in body: its LSN (0 if none can be read),
// the offset past it (len(body) if it runs past), whether it ends a batch,
// and whether it is whole and its checksum holds.
func frameAt(body []byte, off int) (lsn uint64, next int, last, ok bool) {
	lsn, n := binary.Uvarint(body[off:])
	if n <= 0 {
		return 0, len(body), false, false
	}
	v, m := binary.Uvarint(body[off+n:])
	rec := off + n + m + sumBytes
	if m <= 0 || rec > len(body) || v>>1 > uint64(len(body)-rec) {
		return lsn, len(body), false, false
	}
	next = rec + int(v>>1)
	crc := crc32.Update(crc32.Checksum(body[off:off+n+m], castagnoli), castagnoli, body[rec:next])
	return lsn, next, v&1 != 0, crc == binary.BigEndian.Uint32(body[rec-sumBytes:])
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
// them. It is the one rule of all three files. An LSN is never 0, so a frame
// whose LSN is 0 or unreadable ends the image: a power loss leaves zeros. A
// frame that fails its checksum or runs past the image is a tail a kill or a
// power loss left, cut back to the end of the last whole batch before it —
// unless a later frame, found stepping by frame sizes from it, passes: then
// it is corruption, and the image is refused. Frames that pass must ascend
// by LSN and reach the header's floor. The rule cannot tell a flipped bit in
// a size field: the search steps astray, and the whole frames behind it are
// cut as a tail.
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
		lsn, next, mark, ok := frameAt(body, off)
		if lsn == 0 {
			break
		}
		if !ok {
			for at := next; at < len(body); {
				later, after, _, good := frameAt(body, at)
				if later == 0 {
					break
				}
				if good {
					return 0, fmt.Errorf("record %d fails its checksum, and record %d after it passes", lsn, later)
				}
				at = after
			}
			break
		}
		if lsn <= prev {
			return 0, fmt.Errorf("record LSN %d follows %d", lsn, prev)
		}
		l.recs = append(l.recs, recRef{lsn: lsn, off: uint32(off)})
		off, prev = next, lsn
		if mark {
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
