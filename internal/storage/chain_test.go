package storage

import (
	"bytes"
	"encoding/binary"
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
	for name, s := range map[string]*PageStore{"memory": NewPageStore(), "dir": openJournal(t, journalPath(t))} {
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

// TestAppendWritesInPlace: on both media, a chain written with room past its
// base, as the buffer pool writes a leaf's (half the base), takes the frames
// that fill the room where it is: every Append returns the chain at the
// address of the buffer Write was handed, and allocates nothing.
func TestAppendWritesInPlace(t *testing.T) {
	for name, s := range map[string]*PageStore{"memory": NewPageStore(), "dir": openJournal(t, journalPath(t))} {
		t.Run(name, func(t *testing.T) {
			id := s.AllocPageID()
			image := make([]byte, 1000, 1500)
			s.Write(id, image)
			chain, _ := s.Read(id)
			f := frame("nine byte") // ten bytes: 50 of them fill the room
			allocs := testing.AllocsPerRun(49, func() {
				next, held := s.Append(id, chain, f)
				if !held || &next[0] != &image[0] {
					t.Fatalf("an append at %d of 1500 bytes: held %v, moved %v", len(chain), held, held && &next[0] != &image[0])
				}
				chain = next
			})
			if len(chain) != 1500 || allocs != 0 {
				t.Fatalf("the chain is %d bytes, and an append allocates %.1f objects", len(chain), allocs)
			}
		})
	}
}

// TestReopenCutsATornFrame: a kill can stop an append anywhere inside its
// record. Cut the journal there, at every byte offset, and a reopen reads the
// chain as the append before it left it, and a later append and reopen
// read that chain with the new frame.
func TestReopenCutsATornFrame(t *testing.T) {
	path := journalPath(t)
	s := openJournal(t, path)
	id := s.AllocPageID()
	s.Write(id, []byte("base image"))
	chain, _ := s.Read(id)
	chain, _ = s.Append(id, chain, frame("first frame"))
	before, cutFrom := bytes.Clone(chain), s.file.size
	s.Append(id, chain, frame("the frame a kill tears"))
	whole := readFile(t, path)
	for cut := int(cutFrom); cut < len(whole); cut++ {
		torn := journalPath(t)
		writeFile(t, torn, whole[:cut])
		r := openJournal(t, torn)
		got, ok := r.Read(id)
		if !ok || !bytes.Equal(got, before) {
			t.Fatalf("cut at %d of %d: the reopened chain is %q, want %q", cut, len(whole), got, before)
		}
		next, held := r.Append(id, got, frame("after"))
		if again, _ := openJournal(t, torn).Read(id); !held || !bytes.Equal(again, next) {
			t.Fatalf("cut at %d: an append after the reopen reads back as %q, want %q", cut, again, next)
		}
	}
}

// TestConsolidationLeavesNoStaleFrame: a reopen after a Write that follows
// appends reads the new base and none of the old frames, and a compaction
// leaves none of them in the journal.
func TestConsolidationLeavesNoStaleFrame(t *testing.T) {
	path := journalPath(t)
	s := openJournal(t, path)
	id := s.AllocPageID()
	s.Write(id, []byte("old base"))
	chain, _ := s.Read(id)
	for _, f := range []string{"one", "two", "three"} {
		chain, _ = s.Append(id, chain, frame(f))
	}
	s.Write(id, []byte("new"))
	if got, _ := openJournal(t, path).Read(id); string(got) != "new" {
		t.Fatalf("the reopened chain after a consolidation is %q", got)
	}
	s.mu.Lock()
	s.compactLocked()
	s.mu.Unlock()
	data := readFile(t, path)
	for _, stale := range []string{"old base", "one", "two", "three"} {
		if bytes.Contains(data, []byte(stale)) {
			t.Fatalf("the compacted journal still holds %q: %q", stale, data)
		}
	}
	if got, _ := openJournal(t, path).Read(id); string(got) != "new" || int64(len(data)) != s.file.size {
		t.Fatalf("the compacted journal reopens as %q, %d bytes of %d counted", got, len(data), s.file.size)
	}
}
