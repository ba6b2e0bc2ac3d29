package storage

import (
	"bytes"
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

// FuzzLogImage feeds arbitrary bytes to OpenLogStoreFile as the log file:
// it never panics, and whatever it accepts it accepts again, identically,
// from the clean image it left — also after the next append and force, so no
// torn byte survives between old records and new.
func FuzzLogImage(f *testing.F) {
	whole := logImage(f, func(l *LogStore) {
		l.Append(3, []byte("three"))
		l.Append(4, nil)
		l.Append(9, bytes.Repeat([]byte("n"), 300))
		l.Force()
	})
	for i := 0; i <= len(whole); i++ {
		f.Add(whole[:i]) // every torn tail
	}
	f.Add(logImage(f, func(l *LogStore) { // truncated empty: only the floor is left
		l.Append(7, []byte("seven"))
		l.Force()
		l.Truncate(8)
	}))
	f.Add(append(whole[:logHeaderBytes:logHeaderBytes], 5, 0, 4, 0)) // LSNs out of order
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
		second.Append(last+1, []byte("next"))
		second.Force()
		first, want = second, second.Scan(0)
		reopen()
	})
}
