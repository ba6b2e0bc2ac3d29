package storage

import (
	"bytes"
	"sync"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// TestPageStoreBasics holds both media to the ownership contract: Write keeps
// the buffer it is handed, Read returns that buffer, and an image a reader
// holds is untouched by a later Write or Free of its page.
func TestPageStoreBasics(t *testing.T) {
	open := map[string]func(*testing.T) *PageStore{
		"memory": func(*testing.T) *PageStore { return NewPageStore() },
		"dir": func(t *testing.T) *PageStore {
			s, err := OpenPageStoreDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, openStore := range open {
		t.Run(name, func(t *testing.T) {
			s := openStore(t)
			id := s.AllocPageID()
			if id == 0 {
				t.Fatal("page 0 must never be allocated")
			}
			if _, ok := s.Read(id); ok {
				t.Fatal("unwritten page must not exist")
			}
			v1 := []byte("hello")
			s.Write(id, v1)
			got, ok := s.Read(id)
			if !ok || !bytes.Equal(got, []byte("hello")) {
				t.Fatalf("read = %q ok=%v", got, ok)
			}
			if &got[0] != &v1[0] {
				t.Fatal("Read returned a copy of the image Write was handed")
			}
			if again, _ := s.Read(id); &again[0] != &got[0] {
				t.Fatal("two reads of one version returned two images")
			}
			// A newer version is another buffer: the image a reader (a cached
			// page decoded over it) still holds does not change under it.
			v2 := []byte("abc")
			s.Write(id, v2)
			if !bytes.Equal(got, []byte("hello")) {
				t.Fatalf("a later write changed an image already read: %q", got)
			}
			if got2, _ := s.Read(id); &got2[0] != &v2[0] {
				t.Fatal("Read does not return the latest image")
			}
			s.Free(id)
			if s.Exists(id) {
				t.Fatal("freed page still exists")
			}
			if !bytes.Equal(v2, []byte("abc")) || !bytes.Equal(got, []byte("hello")) {
				t.Fatal("Free touched an image")
			}
			if st := s.Stats(); st.PageWrites != 2 || st.BytesWriten != 8 || st.PageReads != 3 || st.BytesRead != 13 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestPageStoreAllocatorNeverReuses(t *testing.T) {
	s := NewPageStore()
	seen := map[base.PageID]bool{}
	for i := 0; i < 1000; i++ {
		id := s.AllocPageID()
		if seen[id] {
			t.Fatalf("page ID %d reused", id)
		}
		seen[id] = true
	}
	s.NoteAllocated(5000)
	if id := s.AllocPageID(); id <= 5000 {
		t.Fatalf("NoteAllocated not honored: %d", id)
	}
}

func TestPageStoreConcurrent(t *testing.T) {
	s := NewPageStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := s.AllocPageID()
				s.Write(id, []byte{byte(id)})
				d, ok := s.Read(id)
				if !ok || d[0] != byte(id) {
					t.Errorf("lost page %d", id)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("len = %d", s.Len())
	}
	st := s.Stats()
	if st.PageWrites != 800 || st.PageReads != 800 {
		t.Fatalf("stats = %+v", st)
	}
}
