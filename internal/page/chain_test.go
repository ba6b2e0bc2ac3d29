package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
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
		chain = append(chain[:len(chain):len(chain)], frameOf(q)...)
		q.SetChain(chain, len(base))
	}
	return chain, q
}

// frameOf is p's delta frame, with nothing collected and no room to outgrow.
func frameOf(p *Page) []byte {
	frame, _, _ := p.AppendDelta(nil, 0, math.MaxInt)
	return frame
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
	frame := frameOf(leafWith("a"))
	branch := NewBranch(1, []string{"m"}, []base.PageID{2, 3}).Encode()
	if _, err := Decode(append(branch, frame...)); !errors.Is(err, errCorrupt) {
		t.Fatalf("a frame after a branch: %v, want %v", err, errCorrupt)
	}
	other := NewLeaf(2)
	other.gone = []string{"a"}
	frame = frameOf(other)
	if _, err := Decode(append(leaf, frame...)); !errors.Is(err, errCorrupt) {
		t.Fatalf("a frame of page 2 after page 1: %v, want %v", err, errCorrupt)
	}
	twice := removesTwice(NewLeaf(1), "a")
	if _, err := Decode(append(leaf, twice...)); !errors.Is(err, errCorrupt) {
		t.Fatalf("a frame that removes a key twice: %v, want %v", err, errCorrupt)
	}
}

// TestBaseKeysAscend: a base image's keys ascend without repeats, as a
// frame's do, and the frames applied to it rely on that. A base of b, a, a
// decoded, and a frame's removal of a then missed its key and left the gone
// marker in the page as a record.
func TestBaseKeysAscend(t *testing.T) {
	unordered := leafWith("a", "b")
	unordered.Recs = []Record{unordered.Recs[1], unordered.Recs[0], unordered.Recs[0]}
	if _, err := Decode(unordered.Encode()); !errors.Is(err, errCorrupt) {
		t.Fatalf("a base of keys b, a, a: %v, want %v", err, errCorrupt)
	}
	repeated := leafWith("a")
	repeated.Recs = append(repeated.Recs, repeated.Recs[0])
	if _, err := Decode(repeated.Encode()); !errors.Is(err, errCorrupt) {
		t.Fatalf("a base of keys a, a: %v, want %v", err, errCorrupt)
	}
}

// removesTwice is a delta frame of p that removes key twice.
func removesTwice(p *Page, key string) []byte {
	body := binary.AppendUvarint(p.appendHeader(nil), 2)
	for i := 0; i < 2; i++ {
		body = append(body, 0) // the slot
		body = appendRecord(body, &Record{Key: key}, true)
	}
	body = p.Ab.Append(body)
	return append(binary.AppendUvarint(nil, uint64(len(body))), body...)
}

// TestWholePageOperationsDropTheChain: after CutAt, SetContents or a RollBack
// that undid something the page no longer differs from its chain in the
// records a frame holds alone, so it has no chain and no change to frame; Put,
// Replace and Remove keep it and name their keys.
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
	if c, _ := p.Chain(); c == nil || len(framed(p)) != 3 || len(p.gone) != 1 {
		t.Fatalf("record mutators: chain %v, %d keys to frame, %d gone", c != nil, len(framed(p)), len(p.gone))
	}
	for name, op := range map[string]func(*Page){
		"CutAt":       func(p *Page) { p.CutAt("b", 9) },
		"SetContents": func(p *Page) { p.SetContents(leafWith("z")) },
	} {
		p := fresh()
		op(p)
		if c, _ := p.Chain(); c != nil || len(framed(p)) != 0 || len(p.gone) != 0 {
			t.Fatalf("%s kept the chain (%d keys to frame, %d gone)", name, len(framed(p)), len(p.gone))
		}
	}
}

// BenchmarkDecodeChain decodes a leaf shaped as the benchmark's direct_big
// workload leaves it — 24 records of 10-byte keys and 64-byte values — as a
// base image with 0, 1, 5 and 10 one-record delta frames, into a recycled
// page as a buffer-pool miss does. It cycles through 4 096 distinct chains in
// shuffled order, so that a decode reads bytes the core's own caches no
// longer hold, as a miss does; their ~10 MB may still fit a large shared L3,
// where a miss of the benchmark's direct_big workload often goes to memory.
func BenchmarkDecodeChain(b *testing.B) {
	for _, frames := range []int{0, 1, 5, 10} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			rnd := rand.New(rand.NewPCG(1, uint64(frames)))
			chains := make([][]byte, 4096)
			size := 0
			for i := range chains {
				p := NewLeaf(base.PageID(i + 1))
				for r := 0; r < 24; r++ {
					p.Put(Record{Key: fmt.Sprintf("key%07d", rnd.IntN(1e7)), Owner: 1, Value: bytes.Repeat([]byte{'v'}, 64)})
				}
				lsn := base.LSN(100)
				p.Ab.Ensure(1).Add(lsn)
				edits := make([]func(*Page), frames)
				for f := range edits {
					edits[f] = func(q *Page) {
						r := q.Recs[rnd.IntN(len(q.Recs))]
						r.Value = bytes.Repeat([]byte{byte('a' + f)}, 64)
						q.Replace(q.Get(r.Key), r)
						lsn++
						q.Ab.Ensure(1).Add(lsn)
						q.Ab.Ensure(1).Advance(lsn - 2)
					}
				}
				chains[i], _ = chainOf(b, p, edits...)
				size += len(chains[i])
			}
			rnd.Shuffle(len(chains), func(i, j int) { chains[i], chains[j] = chains[j], chains[i] })
			into := NewLeaf(0)
			b.SetBytes(int64(size / len(chains)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeInto(into, chains[i%len(chains)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDeltaFloorBoundsTheRecords: over seeded walks of Put, Replace, Remove
// and versioned writes (Stage) on a page with a chain, with keys and values
// long enough to take two-byte lengths and a write-back now and then, the
// frame AppendDelta builds, collected down to a trailing horizon, takes the
// chain to the page, and the room it gives up at is the frame's length, at
// every step (walkDeltaFrames).
func TestDeltaFloorBoundsTheRecords(t *testing.T) {
	walkDeltaFrames(t, func() ([]byte, *Page) { return chainOf(t, leafWith("k05", "k15", "k25", "k35")) })
}

// TestDeltaFloorIsExactOnShortRecords: the walk of
// TestDeltaFloorBoundsTheRecords, started with changes pending whose every
// field takes one byte, an insert after the last record among them.
func TestDeltaFloorIsExactOnShortRecords(t *testing.T) {
	walkDeltaFrames(t, func() ([]byte, *Page) {
		chain, p := chainOf(t, leafWith("a", "b", "c", "d", "e"))
		setValue(p, "b", "new b")
		setValue(p, "d", "new d")
		p.Put(Record{Key: "f", Owner: 1, Value: []byte("at the end")})
		return chain, p
	})
}

// TestDeltaFloorCountsManyKeys: the walk of TestDeltaFloorBoundsTheRecords,
// started with 200 changes pending, so that its frames' key count takes two
// bytes until a write-back.
func TestDeltaFloorCountsManyKeys(t *testing.T) {
	walkDeltaFrames(t, func() ([]byte, *Page) {
		keys := make([]string, 200)
		for i := range keys {
			keys[i] = fmt.Sprintf("r%03d", i)
		}
		chain, p := chainOf(t, leafWith(keys...))
		for _, key := range keys {
			setValue(p, key, "v")
		}
		return chain, p
	})
}

// walkDeltaFrames runs 20 seeded walks of 300 steps from start's chain and
// page, checking at every step that the chain and AppendDelta's frame decode
// to the page, whose Size follows what the frame collected, and that
// AppendDelta gives a room of one byte less up, writing nothing, and yields
// the same frame into a room of its length.
func walkDeltaFrames(t *testing.T, start func() ([]byte, *Page)) {
	t.Helper()
	for seed := uint64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewPCG(seed, 0))
		chain, p := start()
		_, baseLen := p.Chain()
		for step := 0; step < 300; step++ {
			horizon := base.TS(1000 + step/2)
			frame, _, _ := p.AppendDelta(nil, horizon, math.MaxInt)
			if got, err := Decode(append(chain[:len(chain):len(chain)], frame...)); err != nil || !got.Equal(p) {
				t.Fatalf("seed %d step %d: the chain and the frame decode to another page (%v)", seed, step, err)
			}
			if err := p.CheckSize(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			dst := []byte("before")
			if got, ab, ok := p.AppendDelta(dst, horizon, len(frame)-1); ok || ab != 0 || string(got) != "before" {
				t.Fatalf("seed %d step %d: a room of %d bytes took a frame of %d: %v, %q", seed, step, len(frame)-1, len(frame), ok, got)
			}
			if got, _, ok := p.AppendDelta(dst, horizon, len(frame)); !ok || !bytes.Equal(got, append([]byte("before"), frame...)) {
				t.Fatalf("seed %d step %d: a room of %d bytes, the frame's length, took %v, %x", seed, step, len(frame), ok, got)
			}
			key := fmt.Sprintf("k%02d", rnd.IntN(40))
			val := bytes.Repeat([]byte{'v'}, 1+rnd.IntN(20))
			if rnd.IntN(6) == 0 {
				key += strings.Repeat("-long", 30)
				val = bytes.Repeat(val, 10)
			}
			switch rnd.IntN(5) {
			case 0:
				p.Put(Record{Key: key, Owner: 1, Value: val})
			case 1:
				if len(p.Recs) > 0 {
					r := p.Recs[rnd.IntN(len(p.Recs))]
					r.Value = val
					p.Replace(p.Get(r.Key), r)
				}
			case 2:
				if len(p.Recs) > 0 {
					p.Remove(p.Recs[rnd.IntN(len(p.Recs))].Key)
				}
			case 3:
				if len(p.Recs) > 0 {
					r := p.Recs[rnd.IntN(len(p.Recs))]
					r.Stage(base.TS(1000+step), horizon)
					r.Value = val
					p.Replace(p.Get(r.Key), r)
				}
			case 4:
				chain = append(chain[:len(chain):len(chain)], frame...)
				p.SetChain(chain, baseLen)
			}
		}
	}
}

// framed is what p's next delta frame holds, in order: each key, "-" before a
// key framed as gone, "@" and its slot after it.
func framed(p *Page) []string {
	var keys []string
	p.delta(func(slot int, key string, r *Record) bool {
		if r == nil {
			key = "-" + key
		}
		keys = append(keys, fmt.Sprintf("%s@%d", key, slot))
		return true
	})
	return keys
}

// TestDeltaMergesRemovedKeys: the walk that builds a frame merges the keys
// Remove dropped into the marked slots, once each, in key order: a key
// removed and put back is framed as its record, a key put and removed as
// gone, and a removed first or last record as gone at the slot it would have.
// The chain and the frame decode to the page.
func TestDeltaMergesRemovedKeys(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(*Page)
		want []string
	}{
		{"removed then put back", func(p *Page) {
			p.Remove("c")
			p.Put(Record{Key: "c", Owner: 2, Value: []byte("back")})
		}, []string{"c@1"}},
		{"put then removed", func(p *Page) {
			p.Put(Record{Key: "d", Owner: 1, Value: []byte("brief")})
			setValue(p, "e", "new e")
			p.Remove("d")
			p.Put(Record{Key: "d", Owner: 1, Value: []byte("again")})
			p.Remove("d")
		}, []string{"-d@2", "e@2"}},
		{"first and last removed", func(p *Page) {
			p.Remove("g")
			setValue(p, "c", "new c")
			p.Remove("a")
		}, []string{"-a@0", "c@0", "-g@2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			chain, p := chainOf(t, leafWith("a", "c", "e", "g"))
			c.edit(p)
			if got := framed(p); !slices.Equal(got, c.want) {
				t.Fatalf("the frame holds %v, want %v", got, c.want)
			}
			if got, err := Decode(append(chain, frameOf(p)...)); err != nil || !got.Equal(p) {
				t.Fatalf("the chain and the frame decode to another page (%v)", err)
			}
		})
	}
}
