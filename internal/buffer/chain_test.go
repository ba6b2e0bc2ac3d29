package buffer

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// TestWriteBackFollowsThePage is a seeded walk over every page mutator —
// Put, Replace, Remove, versioned writes (Stage) that leave a before version
// over history, keys and values long enough to take two-byte lengths, the
// abstract-LSN table, the dLSN and sibling link,
// InsertSep and RemoveSep on a branch — and every whole-page operation — a
// split (UpperHalf, CutAt, Install), SetContents, Merged and a RollBack —
// through a pool of four frames over a dozen pages, so that most write-backs
// are evictions and most of those write delta frames. After every step, each
// page whose stable chain changed must decode to the page as it was written
// back, abstract-LSN table included.
func TestWriteBackFollowsThePage(t *testing.T) {
	var deltas, images int
	for seed := uint64(1); seed <= 8; seed++ {
		d, i := chainWalk(t, seed, 600)
		deltas, images = deltas+d, images+i
	}
	t.Logf("%d delta frames, %d full images", deltas, images)
	// The walk must exercise both halves of the rule.
	if deltas < images || images == 0 {
		t.Fatalf("%d delta frames and %d full images: the walk does not exercise chains", deltas, images)
	}
}

// walkOps are the walk's steps, the record mutators weighted as a DC's
// writes outnumber its structure changes.
var walkOps = []string{"put", "put", "put", "replace", "replace", "replace", "versioned", "versioned", "remove",
	"table", "header", "split", "setcontents", "merged", "rollback", "branch", "flush", "flushall"}

// chainWalk runs one seeded walk of steps steps and returns how many delta
// frames and full images its write-backs wrote.
func chainWalk(t *testing.T, seed uint64, steps int) (deltas, images int) {
	rnd := rand.New(rand.NewPCG(seed, 0))
	store := storage.NewPageStore()
	var lsn base.LSN
	open := func(base.TCID) base.LSN { return 1 << 62 }
	// The low-water mark trails the LSNs handed out, so the tables keep
	// {LSNin} sets for the write-backs to carry.
	lwm := func(base.TCID) base.LSN { return lsn / 2 }
	pool := New(Config{Capacity: 4}, store, Gates{EOSL: open, LWM: lwm})

	want := map[base.PageID][]byte{} // each page as last changed, encoded
	var leaves []base.PageID
	install := func(pg *page.Page) {
		pool.Install(pg)
		want[pg.ID] = pg.Encode()
		pool.Unpin(pg.ID)
		if pg.Leaf {
			leaves = append(leaves, pg.ID)
		}
	}
	for i := 0; i < 12; i++ {
		pg := page.NewLeaf(store.AllocPageID())
		for r := 0; r < 8; r++ {
			pg.Put(page.Record{Key: fmt.Sprintf("k%02d-%d", i, r), Owner: 1, Value: bytes.Repeat([]byte("i"), 40)})
		}
		install(pg)
	}
	branch := page.NewBranch(store.AllocPageID(), []string{"m"}, []base.PageID{leaves[0], leaves[1]})
	branchID := branch.ID // the pool recycles the page once it is evicted
	install(branch)

	chains := map[base.PageID][]byte{}
	check := func(step int, op string) {
		t.Helper()
		for id, img := range want {
			chain, ok := store.Read(id)
			if !ok || store.Holds(id, chains[id]) {
				continue
			}
			if prev := chains[id]; len(prev) > 0 && len(chain) > len(prev) && bytes.Equal(chain[:len(prev)], prev) {
				deltas++
			} else {
				images++
			}
			chains[id] = chain
			got, err := page.Decode(chain)
			if err != nil {
				t.Fatalf("seed %d step %d (%s): page %d's chain does not decode: %v", seed, step, op, id, err)
			}
			// The write-back pruned the table to the low-water mark first.
			flushed, err := page.Decode(img)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < flushed.Ab.Len(); i++ {
				tc, a := flushed.Ab.At(i)
				a.Advance(lwm(tc), open(tc))
			}
			if !got.Equal(flushed) {
				t.Fatalf("seed %d step %d (%s): page %d's chain decodes to\n%x\nwant\n%x", seed, step, op, id, got.Encode(), flushed.Encode())
			}
		}
	}

	check(-1, "the setup")
	for step := 0; step < steps; step++ {
		lsn++
		tc := base.TCID(1 + rnd.IntN(2))
		id := leaves[rnd.IntN(len(leaves))]
		op := walkOps[rnd.IntN(len(walkOps))]
		if op == "branch" {
			id = branchID
		}
		pg, err := pool.Fetch(id)
		if err != nil || pg == nil {
			t.Fatalf("seed %d step %d: fetch %d: %v %v", seed, step, id, pg, err)
		}
		pg.L.Lock()
		key := fmt.Sprintf("k%02d-%d", rnd.IntN(12), rnd.IntN(8))
		if rnd.IntN(8) == 0 {
			key += strings.Repeat("-long", 30) // a key of 150 bytes: a two-byte length
		}
		val := []byte(fmt.Sprintf("%-40d", step))
		switch op {
		case "put":
			prior := pg.Get(key)
			u := page.Undo{TC: tc, LSN: lsn, Absent: prior == nil, Prior: page.Record{Key: key}}
			if prior != nil {
				u.Prior = *prior
			}
			pg.Undo = append(pg.Undo, u)
			pg.Put(page.Record{Key: key, Owner: tc, Value: val})
			pg.Ab.Ensure(tc).Add(lsn)
		case "replace":
			if len(pg.Recs) > 0 {
				r := pg.Recs[rnd.IntN(len(pg.Recs))]
				r.Value, r.TS = val, base.TS(step)
				pg.Replace(pg.Get(r.Key), r)
			}
		case "versioned":
			// A versioned write: the head it replaces becomes the before
			// version, over the history the horizon leaves, and the new
			// head's value is 160 bytes, a two-byte length.
			if len(pg.Recs) > 0 {
				r := pg.Recs[rnd.IntN(len(pg.Recs))]
				r.Stage(base.TS(step+1), base.TS(step/2))
				r.Owner, r.Value = tc, bytes.Repeat(val, 4)
				pg.Replace(pg.Get(r.Key), r)
			}
		case "remove":
			if len(pg.Recs) > 0 {
				pg.Remove(pg.Recs[rnd.IntN(len(pg.Recs))].Key)
			}
		case "table":
			pg.Ab.Ensure(tc).Add(lsn)
			pg.Ab.Ensure(tc).Advance(lsn/2, lsn)
		case "header":
			pg.DLSN, pg.Next = base.DLSN(step), base.PageID(rnd.IntN(20))
		case "split":
			if len(pg.Recs) >= 2 {
				splitKey, half := pg.UpperHalf(store.AllocPageID())
				pg.CutAt(splitKey, half.ID)
				pool.MarkDirty(half, 0, 0, 0)
				install(half)
			}
		case "setcontents":
			other, err := page.Decode(want[leaves[rnd.IntN(len(leaves))]])
			if err != nil {
				t.Fatal(err)
			}
			other.Ab.Ensure(tc).Add(lsn)
			pg.SetContents(other)
		case "merged":
			// A right sibling's keys follow the left page's.
			right := page.NewLeaf(0)
			for r := 0; r < 3; r++ {
				right.Put(page.Record{Key: fmt.Sprintf("z%03d-%d", step, r), Owner: tc, Value: val})
			}
			right.Ab.Ensure(tc).Add(lsn)
			pg.SetContents(pg.Merged(right))
		case "rollback":
			pg.RollBack(tc, lsn-base.LSN(rnd.IntN(20)))
		case "branch":
			if len(pg.Keys) > 1 && rnd.IntN(2) == 0 {
				pg.RemoveSep(rnd.IntN(len(pg.Keys)))
			} else {
				pg.InsertSep(rnd.IntN(len(pg.Keys)+1), key, leaves[rnd.IntN(len(leaves))])
			}
		}
		pool.MarkDirty(pg, tc, lsn, 0)
		want[id] = pg.Encode()
		pg.L.Unlock()
		switch op {
		case "flush":
			if err := pool.FlushPage(id, false); err != nil {
				t.Fatal(err)
			}
		case "flushall":
			if err := pool.FlushAll(false, nil); err != nil {
				t.Fatal(err)
			}
		}
		pool.Unpin(id)
		check(step, op)
	}
	if err := pool.FlushAll(false, nil); err != nil {
		t.Fatal(err)
	}
	check(steps, "the last flush")
	return deltas, images
}
