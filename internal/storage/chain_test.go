package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// frame is one delta frame holding body: its length as a uvarint, then it.
func frame(body string) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestAppendExtendsTheChainItHolds: on both media, Append adds a frame only
// onto the chain the store holds, leaves every chain a reader holds as it
// was, and moves Holds to the new chain.
func TestAppendExtendsTheChainItHolds(t *testing.T) {
	for name, s := range map[string]*PageStore{"memory": NewPageStore(), "dir": openDir(t, t.TempDir())} {
		t.Run(name, func(t *testing.T) {
			id := s.AllocPageID()
			s.Write(id, []byte("base"))
			chain, _ := s.Read(id)
			one, held := s.Append(id, chain, frame("one"))
			if !held || string(one) != "base\x03one" {
				t.Fatalf("append onto the chain read: %q %v", one, held)
			}
			if string(chain) != "base" || s.Holds(id, chain) || !s.Holds(id, one) {
				t.Fatalf("after an append the reader's chain is %q; held: it %v, the new one %v", chain, s.Holds(id, chain), s.Holds(id, one))
			}
			if _, held := s.Append(id, chain, frame("stale")); held {
				t.Fatal("an append onto a chain the store no longer holds was taken")
			}
			two, held := s.Append(id, one, frame("two"))
			if got, _ := s.Read(id); !held || string(got) != "base\x03one\x03two" || string(one) != "base\x03one" || &got[0] != &two[0] {
				t.Fatalf("second append: %q %v, the first chain now %q", got, held, one)
			}
			s.Write(id, []byte("new base"))
			if _, held := s.Append(id, two, frame("three")); held || string(two) != "base\x03one\x03two" {
				t.Fatalf("an append onto a chain a Write replaced was taken, or the write changed it: %q", two)
			}
		})
	}
}

func openDir(t *testing.T, dir string) *PageStore {
	t.Helper()
	s, err := OpenPageStoreDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReopenCutsATornFrame: a kill can stop an append anywhere inside its
// frame. Cut the file there, at every byte offset, and a reopen reads the
// chain as the append before it left it, and a later append and reopen
// read that chain with the new frame.
func TestReopenCutsATornFrame(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	id := s.AllocPageID()
	s.Write(id, []byte("base image"))
	chain, _ := s.Read(id)
	chain, _ = s.Append(id, chain, frame("first frame"))
	before := bytes.Clone(chain)
	s.Append(id, chain, frame("the frame a kill tears"))
	path := s.pagePath(id)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutFrom := pageHeaderBytes + len(before)
	for cut := cutFrom; cut < len(whole); cut++ {
		torn := t.TempDir()
		if err := os.WriteFile(filepath.Join(torn, filepath.Base(path)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := openDir(t, torn)
		got, ok := r.Read(id)
		if !ok || !bytes.Equal(got, before) {
			t.Fatalf("cut at %d of %d: the reopened chain is %q, want %q", cut, len(whole), got, before)
		}
		next, held := r.Append(id, got, frame("after"))
		if again, _ := openDir(t, torn).Read(id); !held || !bytes.Equal(again, next) {
			t.Fatalf("cut at %d: an append after the reopen reads back as %q, want %q", cut, again, next)
		}
	}
}

// TestConsolidationLeavesNoStaleFrame: a Write after appends rewrites the
// file whole, so a reopen reads the new base and none of the old frames.
func TestConsolidationLeavesNoStaleFrame(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	id := s.AllocPageID()
	s.Write(id, []byte("old base"))
	chain, _ := s.Read(id)
	for _, f := range []string{"one", "two", "three"} {
		chain, _ = s.Append(id, chain, frame(f))
	}
	s.Write(id, []byte("new"))
	if got, _ := openDir(t, dir).Read(id); string(got) != "new" {
		t.Fatalf("the reopened chain after a consolidation is %q", got)
	}
	if info, err := os.Stat(s.pagePath(id)); err != nil || info.Size() != int64(pageHeaderBytes+len("new")) {
		t.Fatalf("the page file after a consolidation: %v, %v", info, err)
	}
}
