package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// chainOf returns the stable chain of p after each of edits was written back
// as a delta frame onto a base image of p, and the page the last edit left.
func chainOf(t testing.TB, p *Page, edits ...func(*Page)) ([]byte, *Page) {
	t.Helper()
	base := p.Encode()
	q, err := Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	chain := base
	for _, edit := range edits {
		edit(q)
		frame, _ := q.AppendDelta(nil, 1<<30)
		chain = append(chain[:len(chain):len(chain)], frame...)
		q.SetChain(chain, len(base))
	}
	return chain, q
}

// TestChainDecodesToThePage: a base and the frames written onto it decode to
// the page as it was at the last write-back — records put, replaced and
// removed, a key put and removed between two write-backs, the abstract-LSN
// table, dLSN and sibling link of the newest frame — and every prefix of the
// chain that ends inside a frame is corrupt.
func TestChainDecodesToThePage(t *testing.T) {
	p := leafWith("a", "b", "c", "d")
	p.Ab.Ensure(1).Add(5)
	chain, want := chainOf(t, p,
		func(q *Page) {
			setValue(q, "b", "new b")
			q.Put(Record{Key: "bb", Owner: 2, Value: []byte("inserted")})
			q.Remove("c")
			q.Ab.Ensure(2).Add(9)
		},
		func(q *Page) {
			q.Put(Record{Key: "e", Owner: 1, Value: []byte("gone before the write-back")})
			q.Remove("e")
			q.Remove("a")
			q.Put(Record{Key: "c", Owner: 1, Value: []byte("back")})
			q.DLSN, q.Next = 7, 3
			q.Ab.Ensure(1).Add(11)
		})
	got, err := Decode(chain)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("the chain decodes to\n%x\nwant\n%x", got.Encode(), want.Encode())
	}
	if c, base := got.Chain(); !bytes.Equal(c, chain) || base != len(p.Encode()) {
		t.Fatalf("the decoded page's chain is %d bytes over a base of %d, want %d over %d", len(c), base, len(chain), len(p.Encode()))
	}
	if got.Size() != walkedSize(got) {
		t.Fatalf("Size %d, the walk %d", got.Size(), walkedSize(got))
	}
	ends := map[int]bool{len(p.Encode()): true}
	for n := len(p.Encode()); n < len(chain); {
		size, k := binary.Uvarint(chain[n:])
		n += k + int(size)
		ends[n] = true
	}
	for i := len(p.Encode()); i < len(chain); i++ {
		if _, err := Decode(chain[:i]); (err == nil) != ends[i] {
			t.Fatalf("a chain cut at %d of %d: %v", i, len(chain), err)
		}
	}
}

// TestBytesAfterABaseAreFrames: what follows a base image must parse as
// whole delta frames. Two stray bytes after an empty leaf decoded without an
// error when a page image was a base alone.
func TestBytesAfterABaseAreFrames(t *testing.T) {
	leaf := NewLeaf(1).Encode()
	if _, err := Decode(append(leaf, 0xde, 0xad)); !errors.Is(err, errCorrupt) {
		t.Fatalf("a leaf with two stray bytes behind it: %v, want %v", err, errCorrupt)
	}
	frame, _ := leafWith("a").AppendDelta(nil, 1<<30)
	branch := NewBranch(1, []string{"m"}, []base.PageID{2, 3}).Encode()
	if _, err := Decode(append(branch, frame...)); !errors.Is(err, errCorrupt) {
		t.Fatalf("a frame after a branch: %v, want %v", err, errCorrupt)
	}
	other := NewLeaf(2)
	other.touched = []touchedKey{{key: "a"}}
	frame, _ = other.AppendDelta(nil, 1<<30)
	if _, err := Decode(append(leaf, frame...)); !errors.Is(err, errCorrupt) {
		t.Fatalf("a frame of page 2 after page 1: %v, want %v", err, errCorrupt)
	}
	twice := removesTwice(NewLeaf(1), "a")
	if _, err := Decode(append(leaf, twice...)); !errors.Is(err, errCorrupt) {
		t.Fatalf("a frame that removes a key twice: %v, want %v", err, errCorrupt)
	}
}

// removesTwice is a delta frame of p that removes key twice.
func removesTwice(p *Page, key string) []byte {
	body := binary.AppendUvarint(p.appendHeader(nil), 2)
	for i := 0; i < 2; i++ {
		body = appendRecord(body, &Record{Key: key}, true)
	}
	body = append(body, 0, 0) // their slots
	body = p.Ab.Append(body)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestWholePageOperationsDropTheChain: after CutAt, SetContents or a RollBack
// that undid something the page no longer differs from its chain in touched
// records alone, so it has no chain; Put, Replace and Remove keep it and name
// their keys.
func TestWholePageOperationsDropTheChain(t *testing.T) {
	fresh := func() *Page {
		p, err := Decode(leafWith("a", "b", "c").Encode())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := fresh()
	p.Put(Record{Key: "d", Owner: 1})
	setValue(p, "a", "x")
	p.Remove("b")
	if c, _ := p.Chain(); c == nil || len(p.touched) != 3 {
		t.Fatalf("record mutators: chain %v, %d touched", c != nil, len(p.touched))
	}
	for name, op := range map[string]func(*Page){
		"CutAt":       func(p *Page) { p.CutAt("b", 9) },
		"SetContents": func(p *Page) { p.SetContents(leafWith("z")) },
		"RollBack": func(p *Page) {
			p.Undo = []Undo{{TC: 1, LSN: 4, Prior: Record{Key: "a", Owner: 1, Value: []byte("old")}}}
			p.RollBack(1, 0)
		},
	} {
		p := fresh()
		op(p)
		if c, _ := p.Chain(); c != nil || len(p.touched) != 0 {
			t.Fatalf("%s kept the chain (%d touched)", name, len(p.touched))
		}
	}
}
