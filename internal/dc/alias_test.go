package dc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
)

// summedSize is what Page.Size computed before the abstract-LSN table's size
// became arithmetic: the table encoded and measured, and the records summed.
// Size must go on returning exactly this number (it decides every split).
func summedSize(p *page.Page) int {
	n := 32 + len(p.Ab.Append(nil))
	if !p.Leaf {
		for _, k := range p.Keys {
			n += len(k) + 6
		}
		return n + 5*len(p.Children)
	}
	for i := range p.Recs {
		r := &p.Recs[i]
		n += 8 + len(r.Key) + len(r.Value) + len(r.Before)
		if r.TS != 0 || r.BeforeTS != 0 || len(r.Hist) > 0 {
			n += 20
			for j := range r.Hist {
				n += 12 + len(r.Hist[j].Val)
			}
		}
	}
	return n
}

// aliasSeedLeaf is a leaf holding every shape of record: plain, uncommitted
// over a value, over null and over a committed tombstone, with history, and
// two TCs' abstract LSNs.
func aliasSeedLeaf(rnd *rand.Rand) *page.Page {
	p := page.NewLeaf(7)
	p.DLSN, p.Next = 3, 8
	for i := 0; i < 24; i++ {
		r := page.Record{Key: fmt.Sprintf("k%03d", 4*i), Owner: base.TCID(1 + i%2),
			Value: bytes.Repeat([]byte{byte('a' + i)}, 1+rnd.Intn(12))}
		switch i % 6 {
		case 1:
			r.Flags, r.Before = page.FlagHasBefore, []byte("before")
		case 2:
			r.Flags = page.FlagHasBefore | page.FlagBeforeNull
		case 3:
			r.TS = 40
			r.Hist = []page.Version{{TS: 10, Val: []byte("ten")}, {TS: 20, Del: true}, {TS: 30, Val: []byte("thirty")}}
		case 4:
			r.Flags, r.Value, r.TS = page.FlagTombstone, nil, 35
			r.Hist = []page.Version{{TS: 15, Val: []byte("fifteen")}}
		case 5:
			r.Flags, r.Before, r.BeforeTS = page.FlagHasBefore, []byte("committed"), 25
			r.Hist = []page.Version{{TS: 5, Val: []byte("five")}}
		}
		p.Put(r)
		p.Ab.Ensure(r.Owner).Add(base.LSN(i + 1))
	}
	p.Ab.Advance(1, 9)
	return p
}

// TestDecodedPageNeverWritesItsImage runs one seeded schedule of everything
// that changes a leaf on a page decoded over its image and on a deep clone of
// it that aliases nothing: Put, Remove, every write kind through applyWrite
// versioned and not, commits at a timestamp, aborts, pruning, a split
// (UpperHalf, CutAt) undone by a consolidation (Merged, SetContents), and a
// trip through the store's format and back. No image may change (a decoded
// page's fields are replaced, never edited: package page), the two pages must
// encode alike at the end, and after every step Size must be the old sum.
func TestDecodedPageNeverWritesItsImage(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		type frozen struct {
			image []byte
			sum   [sha256.Size]byte
		}
		var images []frozen
		decode := func(image []byte) *page.Page {
			t.Helper()
			images = append(images, frozen{image, sha256.Sum256(image)})
			p, err := page.Decode(image)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		aliased := decode(aliasSeedLeaf(rnd).Encode())
		deep := aliased.Clone()
		pages := [2]**page.Page{&aliased, &deep}

		var lsn base.LSN
		ts := base.TS(50)
		for step := 0; step < 400; step++ {
			key := fmt.Sprintf("k%03d", rnd.Intn(100))
			val := bytes.Repeat([]byte{byte('A' + step%26)}, rnd.Intn(16))
			kind := rnd.Intn(12)
			versioned := rnd.Intn(2) == 0
			horizon := base.TS(rnd.Intn(int(ts)))
			lsn++
			ts++
			for _, pp := range pages {
				p := *pp
				op := &base.Op{TC: base.TCID(1 + step%2), LSN: lsn, Key: key, Value: val, Versioned: versioned}
				switch kind {
				case 0:
					p.Put(page.Record{Key: key, Owner: op.TC, Value: bytes.Clone(val)})
				case 1:
					p.Remove(key)
				case 2, 3, 4, 5:
					op.Kind = [...]base.OpKind{base.OpInsert, base.OpUpdate, base.OpUpsert, base.OpDelete}[kind-2]
					applyWrite(p, p.Get(op.Key), op, horizon)
				case 6, 7:
					op.Kind, op.TS = base.OpCommitVersions, ts
					applyWrite(p, p.Get(op.Key), op, horizon)
				case 8:
					op.Kind = base.OpAbortVersions
					applyWrite(p, p.Get(op.Key), op, horizon)
				case 9:
					for i := len(p.Recs) - 1; i >= 0; i-- {
						if p.Recs[i].PruneVersions(horizon) {
							p.Remove(p.Recs[i].Key)
						}
					}
				case 10:
					if len(p.Recs) < 2 {
						continue
					}
					splitKey, half := p.UpperHalf(99)
					p.CutAt(splitKey, 99)
					if got := summedSize(half); half.Size() != got {
						t.Fatalf("seed %d step %d: upper half Size %d, summed %d", seed, step, half.Size(), got)
					}
					p.SetContents(p.Merged(half))
				case 11:
					if pp == &aliased {
						*pp = decode(p.Encode())
					}
				}
				p = *pp
				if kind <= 8 {
					p.Ab.Ensure(op.TC).Add(lsn)
					if lsn%7 == 0 {
						p.Ab.Advance(op.TC, lsn-5)
					}
				}
				if got := summedSize(p); p.Size() != got {
					t.Fatalf("seed %d step %d (kind %d): Size %d, summed %d", seed, step, kind, p.Size(), got)
				}
			}
			if !bytes.Equal(aliased.Encode(), deep.Encode()) {
				t.Fatalf("seed %d step %d (kind %d): the decoded page and its deep clone diverged", seed, step, kind)
			}
		}
		for i, im := range images {
			if sha256.Sum256(im.image) != im.sum {
				t.Fatalf("seed %d: image %d of %d was written after it was decoded", seed, i, len(images))
			}
		}
	}
}
