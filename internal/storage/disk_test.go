package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

func TestPageStoreDirReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	id1 := s.AllocPageID()
	id2 := s.AllocPageID()
	s.Write(id1, []byte("page-one"))
	s.Write(id2, []byte("page-two"))
	s.Write(id2, []byte("page-two-v2"))
	id3 := s.AllocPageID() // allocated, never written: must not be reused
	s.Free(id1)

	// A new incarnation (the store object is simply dropped — a kill never
	// runs destructors) sees exactly the renamed state.
	r, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Read(id1); ok {
		t.Fatal("freed page survived reopen")
	}
	if data, ok := r.Read(id2); !ok || string(data) != "page-two-v2" {
		t.Fatalf("page 2 after reopen: %q ok=%v", data, ok)
	}
	if next := r.AllocPageID(); next <= id3 {
		t.Fatalf("allocator reused id: got %d, previously allocated %d", next, id3)
	}
}

func TestPageStoreDirCleansTornTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := s.AllocPageID()
	s.Write(id, []byte("good"))
	// Simulate a kill mid-rename: a stray tmp file next to the real page.
	if err := os.WriteFile(filepath.Join(dir, "p999.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok := r.Read(id); !ok || string(data) != "good" {
		t.Fatalf("page after torn-tmp reopen: %q ok=%v", data, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, "p999.tmp")); !os.IsNotExist(err) {
		t.Fatal("torn tmp file not cleaned up")
	}
	if r.Exists(base.PageID(999)) {
		t.Fatal("torn tmp surfaced as a page")
	}
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
	defer l.file.Close()
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
		l.file.Close()
		t.Fatalf("opened an unmarked image: records %q", l.Scan(0))
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, image) {
		t.Fatalf("the refused image changed: %x, was %x (%v)", data, image, err)
	}
}

// FuzzLogImage feeds arbitrary bytes to OpenLogStoreFile as the log file:
// it never panics, and whatever it accepts it accepts again, identically,
// from the clean image it left — also after the next append and force, so no
// torn byte survives between old records and new.
func FuzzLogImage(f *testing.F) {
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
	f.Add(append(whole[:logHeaderBytes:logHeaderBytes], 5, 0, 4, 0)) // LSNs out of order
	f.Add(tornBatchImage(f))
	f.Add(unmarkedImage())
	f.Fuzz(func(t *testing.T, image []byte) {
		path := filepath.Join(t.TempDir(), "log")
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (*LogStore, error) {
			l, err := OpenLogStoreFile(path)
			if err == nil {
				t.Cleanup(func() { l.file.Close() }) // a fuzz worker outruns the finalizers
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
