package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// journalPath is the path of a page journal in a directory of its own.
func journalPath(t testing.TB) string { return filepath.Join(t.TempDir(), "pages") }

// openJournal opens the page store backed by the journal at path and closes
// the file when the test ends (a fuzz worker outruns the finalizers).
func openJournal(t testing.TB, path string) *PageStore {
	t.Helper()
	s, err := OpenPageStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.file.f.Close() })
	return s
}

// contents is what a store holds: every page's chain, and its allocator.
func contents(s *PageStore) (map[base.PageID]string, uint32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	pages := make(map[base.PageID]string, len(s.pages))
	for id, chain := range s.pages {
		pages[id] = string(chain)
	}
	return pages, s.nextID
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFile(t testing.TB, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestPageStoreDirReopen(t *testing.T) {
	path := journalPath(t)
	s := openJournal(t, path)
	id1 := s.AllocPageID()
	id2 := s.AllocPageID()
	s.Write(id1, []byte("page-one"))
	s.Write(id2, []byte("page-two"))
	s.Write(id2, []byte("page-two-v2"))
	id3 := s.AllocPageID() // allocated, never written: must not be reused
	s.Free(id1)

	// A new incarnation (the store object is simply dropped — a kill never
	// runs destructors) sees exactly the journal's state.
	r := openJournal(t, path)
	if _, ok := r.Read(id1); ok {
		t.Fatal("freed page survived reopen")
	}
	if data, ok := r.Read(id2); !ok || string(data) != "page-two-v2" {
		t.Fatalf("page 2 after reopen: %q ok=%v", data, ok)
	}
	if next := r.AllocPageID(); next <= id3 {
		t.Fatalf("allocator reused id: got %d, previously allocated %d", next, id3)
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("the store's directory holds %v (%v), want the journal alone", entries, err)
	}
}

// TestPageStoreDirCleansTornTmp: a kill during a compaction leaves its tmp
// file beside the journal; a reopen removes it and reads the journal.
func TestPageStoreDirCleansTornTmp(t *testing.T) {
	path := journalPath(t)
	s := openJournal(t, path)
	id := s.AllocPageID()
	s.Write(id, []byte("good"))
	writeFile(t, path+".tmp", []byte("torn"))
	r := openJournal(t, path)
	if data, ok := r.Read(id); !ok || string(data) != "good" {
		t.Fatalf("page after torn-tmp reopen: %q ok=%v", data, ok)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("torn tmp file not cleaned up")
	}
}

// TestPowerCutKeepsWhatSyncCovered: a power loss leaves the journal as the
// last Sync left it, or that and zeros; a reopen reads the store as it was
// at that Sync — chains, frees and the allocator — and cuts the zeros.
func TestPowerCutKeepsWhatSyncCovered(t *testing.T) {
	for name, zeros := range map[string]bool{"cut": false, "zeros": true} {
		t.Run(name, func(t *testing.T) {
			path := journalPath(t)
			s := openJournal(t, path)
			a, b := s.AllocPageID(), s.AllocPageID()
			s.Write(a, []byte("a base"))
			s.Write(b, []byte("b base"))
			chain, _ := s.Read(a)
			chain, _ = s.Append(a, chain, frame("synced"))
			s.Sync()
			wantPages, wantNext := contents(s)
			synced := s.file.size
			s.Append(a, chain, frame("lost"))
			s.Free(b)
			s.Write(s.AllocPageID(), []byte("lost page"))
			lost := s.file.size - synced
			s.PowerCut()
			if zeros {
				writeFile(t, path, append(readFile(t, path), make([]byte, lost)...))
			}
			r := openJournal(t, path)
			if pages, next := contents(r); !reflect.DeepEqual(pages, wantPages) || next != wantNext {
				t.Fatalf("reopened as %q, allocator %d; want %q, %d", pages, next, wantPages, wantNext)
			}
			if n := len(readFile(t, path)); int64(n) != synced {
				t.Fatalf("the reopened journal is %d bytes, want the %d the Sync covered", n, synced)
			}
		})
	}
}

// TestReadsAndWritesPassAnFsync: while Sync's fsync is blocked, a Read and
// an Append complete, and what the Append wrote is left to the next Sync:
// the journal counts as synced to its length when the fsync began. A Sync
// that held the store's lock across the fsync stalled every cache miss of a
// disk-backed DC for it.
func TestReadsAndWritesPassAnFsync(t *testing.T) {
	path := journalPath(t)
	s := openJournal(t, path)
	id := s.AllocPageID()
	s.Write(id, []byte("a base"))
	began := s.file.size
	entered, release := make(chan struct{}), make(chan struct{})
	fsync = func(f *os.File) error {
		close(entered)
		<-release
		return f.Sync()
	}
	defer func() { fsync = (*os.File).Sync }()
	synced := make(chan struct{})
	go func() {
		defer close(synced)
		s.Sync()
	}()
	<-entered
	passed := make(chan bool)
	go func() {
		chain, ok := s.Read(id)
		_, held := s.Append(id, chain, frame("during the fsync"))
		passed <- ok && held
	}()
	var ok, waited bool
	select {
	case ok = <-passed:
	case <-time.After(10 * time.Second):
		waited = true
	}
	close(release)
	<-synced
	if waited {
		<-passed
		t.Fatal("a Read and an Append waited for the fsync")
	}
	if !ok {
		t.Fatal("the Read or the Append during the fsync failed")
	}
	if s.file.synced != began {
		t.Fatalf("synced to %d bytes, want the %d the journal held when Sync began", s.file.synced, began)
	}
}

// TestSyncBoundsTheJournal: a page consolidated over and over, synced every
// ten times, leaves a journal of at most twice the live bytes plus
// compactFloor after every Sync, compacted more than once, that reopens as
// the store.
func TestSyncBoundsTheJournal(t *testing.T) {
	path := journalPath(t)
	s := openJournal(t, path)
	id := s.AllocPageID()
	s.Write(s.AllocPageID(), []byte("a page never rewritten"))
	compactions := 0
	for i := range 600 {
		s.Write(id, bytes.Repeat([]byte{byte(i)}, 8<<10))
		chain, _ := s.Read(id)
		s.Append(id, chain, frame("delta"))
		if i%10 != 9 {
			continue
		}
		syncs := s.Stats().Syncs
		s.Sync()
		if s.Stats().Syncs-syncs == 2 {
			compactions++
		}
		live := 0
		for _, chain := range s.pages {
			live += len(chain)
		}
		if n := len(readFile(t, path)); int64(n) != s.file.size || n > 2*live+compactFloor {
			t.Fatalf("after Sync %d the journal is %d bytes (%d counted) over %d live", i/10, n, s.file.size, live)
		}
	}
	if compactions < 2 {
		t.Fatalf("%d compactions", compactions)
	}
	want, wantNext := contents(s)
	if pages, next := contents(openJournal(t, path)); !reflect.DeepEqual(pages, want) || next != wantNext {
		t.Fatalf("the compacted journal reopened with allocator %d, not %d, or other chains", next, wantNext)
	}
}

// zeroedJournal is a page journal of one page: a base and two frames, then,
// with more, one more record. The second frame's bytes are zeros behind an
// intact head, as a power loss can leave a record whose head reached the
// media. It returns the image and the length of the journal before that
// frame.
func zeroedJournal(t testing.TB, more bool) (image []byte, cut int) {
	path := journalPath(t)
	s := openJournal(t, path)
	id := s.AllocPageID()
	s.Write(id, []byte("a base"))
	chain, _ := s.Read(id)
	chain, _ = s.Append(id, chain, frame("whole"))
	cut = int(s.file.size)
	zeroed := frame("the frame a power loss zeroes")
	s.Append(id, chain, zeroed)
	end := int(s.file.size)
	if more {
		s.AllocPageID()
	}
	image = readFile(t, path)
	clear(image[end-len(zeroed) : end])
	return image, cut
}

// TestReopenCutsAZeroedRecord: a journal whose last record's bytes are zeros
// behind an intact frame head fails that frame's checksum and reopens as the
// store was before it, and the record is cut from the file. The same zeros in
// a record that a whole record follows fail the reopen, naming both, and
// leave the file as it was.
func TestReopenCutsAZeroedRecord(t *testing.T) {
	image, cut := zeroedJournal(t, false)
	path := journalPath(t)
	writeFile(t, path, image)
	s := openJournal(t, path)
	if chain, ok := s.Read(1); !ok || string(chain) != "a base\x05whole" {
		t.Fatalf("the reopened chain is %q, want the base and the whole frame", chain)
	}
	if data := readFile(t, path); !bytes.Equal(data, image[:cut]) || s.file.size != int64(cut) {
		t.Fatalf("the reopened journal is %d bytes (%d counted), want the %d before the zeroed record", len(data), s.file.size, cut)
	}

	image, _ = zeroedJournal(t, true)
	path = journalPath(t)
	writeFile(t, path, image)
	s, err := OpenPageStoreFile(path)
	if err == nil {
		s.file.f.Close()
		t.Fatal("a journal with a zeroed record before a whole one opened")
	}
	if !strings.Contains(err.Error(), "record 4 fails its checksum, and record 5 after it passes") {
		t.Fatalf("the refusal does not name the zeroed record and the whole one: %v", err)
	}
	if data := readFile(t, path); !bytes.Equal(data, image) {
		t.Fatal("the refused journal changed")
	}
}

// appendUncheckedFrameHead appends a frame head of the formats before frames
// carried checksums: the LSN and the size shifted left by one, the batch-end
// bit low, both uvarints.
func appendUncheckedFrameHead(dst []byte, lsn uint64, size int, last bool) []byte {
	v := uint64(size) << 1
	if last {
		v |= 1
	}
	return binary.AppendUvarint(binary.AppendUvarint(dst, lsn), v)
}

// TestUncheckedJournalIsRefused: a page journal of the format whose frames
// carry no checksum — both format bits, header floor 1, each record's page ID
// and kind, then a CRC-32C of those and the kind's bytes inside its payload —
// fails to open by its format bits, and the file is left byte for byte as it
// was.
func TestUncheckedJournalIsRefused(t *testing.T) {
	image := binary.BigEndian.AppendUint64(nil, 1|uncheckedFormat)
	for i, data := range []string{"", "a base"} {
		v := []byte{1<<2 | jAlloc}
		if data != "" {
			v[0] = 1<<2 | jBase
		}
		crc := crc32.Update(crc32.Checksum(v, castagnoli), castagnoli, []byte(data))
		rec := append(binary.BigEndian.AppendUint32(v, crc), data...)
		image = append(appendUncheckedFrameHead(image, uint64(i+1), len(rec), true), rec...)
	}
	path := journalPath(t)
	writeFile(t, path, image)
	s, err := OpenPageStoreFile(path)
	if err == nil {
		s.file.f.Close()
		t.Fatalf("opened a journal without checksums in its frames: %q", s.pages)
	}
	if !strings.Contains(err.Error(), "frames without checksums") {
		t.Fatalf("the refusal does not name the format: %v", err)
	}
	if data := readFile(t, path); !bytes.Equal(data, image) {
		t.Fatalf("the refused journal changed: %x, was %x", data, image)
	}
}

// journalImage builds a page journal the way the store does and returns its
// bytes.
func journalImage(t testing.TB, build func(s *PageStore)) []byte {
	t.Helper()
	path := journalPath(t)
	build(openJournal(t, path))
	return readFile(t, path)
}

// skipFsync makes fsync a no-op until f ends: a fuzz input's file is thrown
// away, and the fsyncs of each open would take most of the run.
func skipFsync(f *testing.F) {
	fsync = func(*os.File) error { return nil }
	f.Cleanup(func() { fsync = (*os.File).Sync })
}

// FuzzPageJournal feeds arbitrary bytes to OpenPageStoreFile as the journal:
// it never panics, and whatever it accepts it accepts again, identically,
// from the clean image it left — also after an Append and a Sync, and after
// a compaction.
func FuzzPageJournal(f *testing.F) {
	skipFsync(f)
	whole := journalImage(f, func(s *PageStore) {
		a, b := s.AllocPageID(), s.AllocPageID()
		s.Write(a, []byte("base a"))
		chain, _ := s.Read(a)
		s.Append(a, chain, frame("one"))
		s.Write(b, []byte("base b"))
		s.Free(b)
		s.AllocPageID()
	})
	for i := 0; i <= len(whole); i++ {
		f.Add(whole[:i]) // every torn tail
	}
	f.Add(append(bytes.Clone(whole), make([]byte, 16)...)) // a zero tail
	head := logHeader(0)
	f.Add(append(appendRecordHead(head, 1, jFrame, 3, frame("x")), frame("x")...))       // a frame before any base
	f.Add(appendRecordHead(appendRecordHead(head, 1, jFree, 9, nil), 2, jAlloc, 4, nil)) // a free of a page never written
	zeroed, _ := zeroedJournal(f, false)
	f.Add(zeroed) // a last record zeroed behind its head
	var ends []int64
	two := journalImage(f, func(s *PageStore) {
		id := s.AllocPageID()
		ends = append(ends, s.file.size)
		s.Write(id, []byte("base a"))
		ends = append(ends, s.file.size)
	})
	for _, end := range ends {
		flipped := bytes.Clone(two)
		flipped[end-1] ^= 1
		f.Add(flipped) // one byte flipped in each record
	}
	f.Add(append(bytes.Clone(two), garbageTail...))
	f.Fuzz(func(t *testing.T, image []byte) {
		path := journalPath(t)
		writeFile(t, path, image)
		first, err := OpenPageStoreFile(path)
		if err != nil {
			return
		}
		first.file.f.Close()
		want, wantNext := contents(first)
		reopen := func() *PageStore {
			s := openJournal(t, path)
			if pages, next := contents(s); !reflect.DeepEqual(pages, want) || next != wantNext {
				t.Fatalf("%q, allocator %d, reopened as %q, %d", want, wantNext, pages, next)
			}
			return s
		}
		second := reopen()
		for _, id := range second.IDs() {
			if chain, _ := second.Read(id); len(chain) > 0 {
				second.Append(id, chain, frame("next"))
				break
			}
		}
		second.Sync()
		want, wantNext = contents(second)
		third := reopen()
		third.mu.Lock()
		third.compactLocked()
		third.mu.Unlock()
		reopen()
	})
}

// logImage builds a log file the way the store does and returns its bytes.
func logImage(t testing.TB, build func(l *LogStore)) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	l, err := OpenLogStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	build(l)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// tornBatchImage is a log file a kill left between the two span writes of a
// force: one batch forced whole, and of the next only the frames in the chunk
// the first batch filled, its last frame having opened a chunk of its own.
func tornBatchImage(t testing.TB) []byte {
	t.Helper()
	var cut int
	whole := logImage(t, func(l *LogStore) {
		l.AppendBatch(1, []byte("one"), []byte("two"))
		l.Force()
		chunks := len(l.chunks)
		l.AppendBatch(3, []byte("three"), make([]byte, chunkBytes))
		if len(l.chunks) != chunks+1 {
			t.Fatalf("the second batch opened %d chunks, want 1", len(l.chunks)-chunks)
		}
		cut = logHeaderBytes
		for _, c := range l.chunks[:chunks] {
			cut += len(c)
		}
		l.Force()
	})
	return whole[:cut]
}

// TestTornBatchReopensAtThePreviousBatch: a reopened log cuts a batch a kill
// left partly written — a whole frame of it included — so it holds the
// batches before it, whole.
func TestTornBatchReopensAtThePreviousBatch(t *testing.T) {
	image := tornBatchImage(t)
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLogStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.file.f.Close()
	if got := l.Scan(0); !reflect.DeepEqual(got, [][]byte{[]byte("one"), []byte("two")}) {
		t.Fatalf("reopened records %q, want the first batch", got)
	}
	if _, stable, last := l.Bounds(); stable != 2 || last != 2 {
		t.Fatalf("reopened bounds: stable %d, last %d, want 2 and 2", stable, last)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) >= len(image) {
		t.Fatalf("the torn frames are still in the file (%d of %d bytes, %v)", len(data), len(image), err)
	}
}

// TestZeroTailIsCut: a power loss during a force can leave zeros past the
// last whole batch; a reopened log holds the batches before them, and the
// zeros are cut from the file.
func TestZeroTailIsCut(t *testing.T) {
	whole := logImage(t, func(l *LogStore) {
		l.AppendBatch(1, []byte("one"))
		l.Force()
	})
	path := filepath.Join(t.TempDir(), "log")
	writeFile(t, path, append(bytes.Clone(whole), make([]byte, 64)...))
	l, err := OpenLogStoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.file.f.Close()
	if got := l.Scan(0); !reflect.DeepEqual(got, [][]byte{[]byte("one")}) {
		t.Fatalf("reopened records %q, want the forced batch", got)
	}
	if data := readFile(t, path); !bytes.Equal(data, whole) {
		t.Fatalf("the reopened file is %x, want %x", data, whole)
	}
}

// twoBatchImage is a log file of two forced batches, "one" and "two" at
// LSNs 1 and 2, then "three" at 3, and the length of its first batch's part.
func twoBatchImage(t testing.TB) (image []byte, first int) {
	t.Helper()
	image = logImage(t, func(l *LogStore) {
		l.AppendBatch(1, []byte("one"), []byte("two"))
		l.Force()
		first = int(l.file.size)
		l.AppendBatch(3, []byte("three"))
		l.Force()
	})
	return image, first
}

// garbageTail parses as a frame of LSN 1, below every LSN it follows: a
// size of three, last of its batch, "garb" for a checksum and "age".
var garbageTail = []byte("\x01\x07garbage")

// openLog writes image as a log file and opens it; the store is nil where
// the open failed.
func openLog(t *testing.T, image []byte) (path string, l *LogStore, err error) {
	path = filepath.Join(t.TempDir(), "log")
	writeFile(t, path, image)
	if l, err = OpenLogStoreFile(path); err == nil {
		t.Cleanup(func() { l.file.f.Close() })
	}
	return path, l, err
}

// TestFlippedRecordIsRefused: a record with a flipped payload byte that whole
// records and a whole batch follow is corruption, not a tail: the reopen
// fails, naming it and the record after it, and leaves the file byte for
// byte as it was.
func TestFlippedRecordIsRefused(t *testing.T) {
	image, _ := twoBatchImage(t)
	image[bytes.Index(image, []byte("one"))] ^= 0x20
	path, l, err := openLog(t, image)
	if err == nil {
		t.Fatalf("opened a log with a flipped record: %q", l.Scan(0))
	}
	if !strings.Contains(err.Error(), "record 1 fails its checksum, and record 2 after it passes") {
		t.Fatalf("the refusal does not name the two records: %v", err)
	}
	if data := readFile(t, path); !bytes.Equal(data, image) {
		t.Fatalf("the refused log changed: %x, was %x", data, image)
	}
}

// TestFlippedTailIsCut: a byte flipped anywhere in the last batch — its
// frame head, checksum or record — leaves a tail no whole frame follows: the
// reopen keeps exactly the batch before it, and cuts the file there.
func TestFlippedTailIsCut(t *testing.T) {
	image, first := twoBatchImage(t)
	for i := first; i < len(image); i++ {
		flipped := bytes.Clone(image)
		flipped[i] ^= 0xff
		path, l, err := openLog(t, flipped)
		if err != nil {
			t.Fatalf("byte %d flipped: %v", i, err)
		}
		if got := l.Scan(0); !reflect.DeepEqual(got, [][]byte{[]byte("one"), []byte("two")}) {
			t.Fatalf("byte %d flipped: reopened records %q, want the first batch", i, got)
		}
		if data := readFile(t, path); !bytes.Equal(data, image[:first]) {
			t.Fatalf("byte %d flipped: the reopened file is %x, want %x", i, data, image[:first])
		}
	}
}

// TestGarbageTailIsCut: bytes past the last forced batch that parse as a
// frame with a lower LSN fail its checksum, and are cut as a tail rather than
// refused as records out of order.
func TestGarbageTailIsCut(t *testing.T) {
	image, _ := twoBatchImage(t)
	path, l, err := openLog(t, append(bytes.Clone(image), garbageTail...))
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Scan(0); len(got) != 3 || string(got[2]) != "three" {
		t.Fatalf("reopened records %q, want both batches", got)
	}
	if data := readFile(t, path); !bytes.Equal(data, image) {
		t.Fatalf("the reopened file is %x, want %x", data, image)
	}
}

// unmarkedImage is a log file of the format before batch marks: a header
// that is the bare floor, and frames whose length has no batch-end bit —
// here LSNs 1 and 2, "one" and "two", which the marked format would read as
// a torn batch of one three-byte record.
func unmarkedImage() []byte {
	image := make([]byte, logHeaderBytes)
	for i, rec := range []string{"one", "two"} {
		image = binary.AppendUvarint(image, uint64(i+1))
		image = binary.AppendUvarint(image, uint64(len(rec)))
		image = append(image, rec...)
	}
	return image
}

// TestUnmarkedImageIsRefused: a log file written before batch marks existed
// fails to open, and the file is left byte for byte as it was.
func TestUnmarkedImageIsRefused(t *testing.T) {
	image := unmarkedImage()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err := OpenLogStoreFile(path); err == nil {
		l.file.f.Close()
		t.Fatalf("opened an unmarked image: records %q", l.Scan(0))
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, image) {
		t.Fatalf("the refused image changed: %x, was %x (%v)", data, image, err)
	}
}

// fullWidthImage is a TC-log file as the batch-marked format before the
// compact record encoding wrote it: the header's top bit alone, and one
// batch of an op record and its commit record, each record's Prev and
// NextUndo full-width and its payload behind a length.
func fullWidthImage() []byte {
	record := func(lsn uint64, kind byte, prev uint64, payload string) []byte {
		rec := binary.AppendUvarint(nil, lsn)
		rec = append(rec, kind)
		rec = binary.AppendUvarint(rec, 7) // the transaction
		rec = binary.AppendUvarint(rec, prev)
		rec = binary.AppendUvarint(rec, 0) // NextUndo
		rec = binary.AppendUvarint(rec, uint64(len(payload)))
		return append(rec, payload...)
	}
	image := binary.BigEndian.AppendUint64(nil, markedFormat)
	for i, rec := range [][]byte{record(1, 1, 0, "upsert kv/k"), record(2, 3, 1, "\x00")} {
		image = appendUncheckedFrameHead(image, uint64(i+1), len(rec), i == 1)
		image = append(image, rec...)
	}
	return image
}

// TestFullWidthRecordImageIsRefused: a log file of records with full-width
// links and a length fails to open, with an error that names its format,
// and is left byte for byte as it was. Under today's header its frames fail
// their checksums and would be cut as a tail: the format bits keep them.
func TestFullWidthRecordImageIsRefused(t *testing.T) {
	image := fullWidthImage()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLogStoreFile(path)
	if err == nil {
		l.file.f.Close()
		t.Fatalf("opened a full-width record image: records %q", l.Scan(0))
	}
	if !strings.Contains(err.Error(), "full-width log records") {
		t.Fatalf("the refusal does not name the format: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, image) {
		t.Fatalf("the refused image changed: %x, was %x (%v)", data, image, err)
	}
	binary.BigEndian.PutUint64(image, logFormat)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if l, err = OpenLogStoreFile(path); err != nil {
		t.Fatalf("the same frames under today's header: %v", err)
	}
	defer l.file.f.Close()
	if recs := l.Scan(0); len(recs) != 0 || l.file.size != logHeaderBytes {
		t.Fatalf("the same frames under today's header hold %d records in %d bytes, want none", len(recs), l.file.size)
	}
}

// FuzzLogImage feeds arbitrary bytes to OpenLogStoreFile as the log file:
// it never panics, and whatever it accepts it accepts again, identically,
// from the clean image it left — also after the next append and force, so no
// torn byte survives between old records and new.
func FuzzLogImage(f *testing.F) {
	skipFsync(f)
	whole := logImage(f, func(l *LogStore) {
		l.AppendBatch(3, []byte("three"))
		l.AppendBatch(4, nil, []byte("five"))
		l.AppendBatch(9, bytes.Repeat([]byte("n"), 300))
		l.Force()
	})
	for i := 0; i <= len(whole); i++ {
		f.Add(whole[:i]) // every torn tail
	}
	f.Add(logImage(f, func(l *LogStore) { // truncated empty: only the floor is left
		l.AppendBatch(7, []byte("seven"))
		l.Force()
		l.Truncate(8)
	}))
	f.Add(appendFrame(appendFrame(logHeader(0), 5, true, nil, nil), 4, true, nil, nil)) // LSNs out of order
	f.Add(tornBatchImage(f))
	f.Add(unmarkedImage())
	f.Add(append(bytes.Clone(whole), make([]byte, 32)...)) // a zero tail
	f.Add(fullWidthImage())
	two, _ := twoBatchImage(f)
	for _, rec := range []string{"one", "two", "three"} {
		flipped := bytes.Clone(two)
		flipped[bytes.Index(flipped, []byte(rec))] ^= 1
		f.Add(flipped) // one byte flipped in each frame
	}
	f.Add(append(bytes.Clone(two), garbageTail...))
	f.Fuzz(func(t *testing.T, image []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*LogStore, error) {
			l, err := OpenLogStoreFile(path)
			if err == nil {
				t.Cleanup(func() { l.file.f.Close() }) // a fuzz worker outruns the finalizers
			}
			return l, err
		}
		first, err := open()
		if err != nil {
			return
		}
		want := first.Scan(0)
		reopen := func() *LogStore {
			l, err := open()
			if err != nil {
				t.Fatalf("reopen of an accepted image: %v", err)
			}
			s0, e0, l0 := first.Bounds()
			if s1, e1, l1 := l.Bounds(); s1 != s0 || e1 != e0 || l1 != l0 {
				t.Fatalf("bounds %d %d %d reopened as %d %d %d", s0, e0, l0, s1, e1, l1)
			}
			if got := l.Scan(0); !reflect.DeepEqual(got, want) {
				t.Fatalf("records %q reopened as %q", want, got)
			}
			return l
		}
		second := reopen()
		_, _, last := second.Bounds()
		if last == math.MaxUint64 {
			return // no LSN left to append under
		}
		second.AppendBatch(last+1, []byte("next"))
		second.Force()
		first, want = second, second.Scan(0)
		reopen()
	})
}
