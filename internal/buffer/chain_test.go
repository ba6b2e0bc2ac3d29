package buffer

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
)

// TestWriteBackFollowsThePage is a seeded walk over every page mutator —
// Put, Replace, Remove, versioned writes (Stage) that leave a before version
// over history, versioned deletes, keys and values long enough to take
// two-byte lengths, the abstract-LSN table, the dLSN and sibling link,
// InsertSep and RemoveSep on a branch — and every whole-page operation — a
// split (UpperHalf, CutAt, Install), SetContents, Merged and a RollBack —
// through a pool of four frames over a dozen pages, so that most write-backs
// are evictions and most of those write delta frames, under a GC horizon that
// trails the walk's timestamps. After every step, each page whose stable chain
// changed must decode to the page as it was written back, abstract-LSN table
// included, but for what the write-back may collect: a record whose head is
// stamped at or below the horizon may have lost its history and before
// version, and, in a full image, a tombstone so stamped the whole record. The
// cached page keeps its Size. Every write-back follows the rule unabridged
// (followsTheRule) and builds no whole frame it does not write.
func TestWriteBackFollowsThePage(t *testing.T) {
	var deltas, images, collected, discarded int
	discardedFrame = func(*page.Page) { discarded++ }
	t.Cleanup(func() { discardedFrame = nil })
	for seed := uint64(1); seed <= 8; seed++ {
		d, i, c := chainWalk(t, seed, 600)
		deltas, images, collected = deltas+d, images+i, collected+c
	}
	t.Logf("%d delta frames, %d full images, %d records collected", deltas, images, collected)
	// The walk must exercise both halves of the rule, and the collection.
	if deltas < images || images == 0 {
		t.Fatalf("%d delta frames and %d full images: the walk does not exercise chains", deltas, images)
	}
	if collected == 0 {
		t.Fatal("no write-back collected a version: the walk does not exercise the collection")
	}
	if discarded != 0 {
		t.Fatalf("%d delta frames built whole and thrown away", discarded)
	}
}

// followsTheRule watches every write-back to store until the test ends and
// fails it unless the write-back wrote a delta frame exactly when one is
// due: the page was built from the chain the store holds, and its frame,
// built with no limit and collected down to the write-back's horizon, takes
// no more than the room half the base leaves. Then the chain must have grown
// by that frame's bytes, where it was; else it must have been replaced by a
// full image. AppendDelta must give a room one byte short of the frame up,
// writing nothing, and yield the frame into a room of its length. So a
// write-back that skips a frame it should have written fails, as does a
// give-up at the wrong length and a chain that moved. The hook collects the
// page as the write-back does: collecting it again changes nothing.
func followsTheRule(t *testing.T, store *storage.PageStore) {
	watchWriteBack = func(pg *page.Page, horizon base.TS) func() {
		chain, base := pg.Chain()
		var frame []byte
		due := false
		if chain != nil && store.Holds(pg.ID, chain) {
			frame, _, _ = pg.AppendDelta(nil, horizon, math.MaxInt)
			due = len(frame) <= base/2-(len(chain)-base)
			short, _, gaveUp := pg.AppendDelta(nil, horizon, len(frame)-1)
			exact, _, fits := pg.AppendDelta(nil, horizon, len(frame))
			if gaveUp || len(short) != 0 || !fits || !bytes.Equal(exact, frame) {
				t.Errorf("page %d: a frame of %d bytes went into a room one byte short (%v, %d bytes) or not into its own length (%v)",
					pg.ID, len(frame), gaveUp, len(short), fits)
			}
		}
		return func() {
			got, _ := store.Read(pg.ID)
			extends := chain != nil && len(got) > len(chain) && bytes.Equal(got[:len(chain)], chain)
			switch {
			case due && (!extends || !bytes.Equal(got[len(chain):], frame) || &got[0] != &chain[0]):
				t.Errorf("page %d: a frame of %d bytes was due onto a chain of %d over a base of %d; the chain is now %d bytes, moved %v",
					pg.ID, len(frame), len(chain), base, len(got), &got[0] != &chain[0])
			case !due && extends:
				t.Errorf("page %d: no frame was due (a frame of %d bytes onto a chain of %d over a base of %d), and one was written",
					pg.ID, len(frame), len(chain), base)
			}
		}
	}
	t.Cleanup(func() { watchWriteBack = nil })
}

// walkOps are the walk's steps, the record mutators weighted as a DC's
// writes outnumber its structure changes.
var walkOps = []string{"put", "put", "put", "replace", "replace", "replace", "versioned", "versioned", "remove",
	"table", "header", "split", "setcontents", "merged", "rollback", "branch", "flush", "flushall"}

// chainWalk runs one seeded walk of steps steps and returns how many delta
// frames and full images its write-backs wrote and how many records they
// collected.
func chainWalk(t *testing.T, seed uint64, steps int) (deltas, images, collected int) {
	rnd := rand.New(rand.NewPCG(seed, 0))
	store := storage.NewPageStore()
	var lsn base.LSN
	open := func(base.TCID) base.LSN { return 1 << 62 }
	// The low-water mark trails the LSNs handed out, so the tables keep
	// {LSNin} sets for the write-backs to carry; the GC horizon trails the
	// timestamps of the versioned writes (step+1) as their own horizon does.
	lwm := func(base.TCID) base.LSN { return lsn / 2 }
	horizon := func() base.TS { return base.TS(lsn / 2) }
	pool := New(Config{Capacity: 4}, store, Gates{EOSL: open, LWM: lwm, Horizon: horizon})
	followsTheRule(t, store)

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
			// And it may have collected what lies at or below the horizon.
			for _, r := range slices.Clone(flushed.Recs) {
				dead := r.TS != 0 && r.TS <= horizon()
				w := got.Get(r.Key)
				switch {
				case w == nil && dead && r.Tombstone():
					flushed.Remove(r.Key)
					collected++
				case w != nil && dead && r.Hist != nil && w.Hist == nil && !w.HasBefore():
					r.Hist, r.Flags = nil, r.Flags&^page.FlagHasBefore
					flushed.Put(r)
					collected++
				}
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
		if err := pg.CheckSize(); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
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
			// head's value is 160 bytes, a two-byte length; or a versioned
			// delete, a tombstone.
			if len(pg.Recs) > 0 {
				r := pg.Recs[rnd.IntN(len(pg.Recs))]
				r.Stage(base.TS(step+1), horizon())
				r.Owner, r.Value = tc, bytes.Repeat(val, 4)
				r.Flags &^= page.FlagTombstone
				if rnd.IntN(4) == 0 {
					r.Value, r.Flags = nil, r.Flags|page.FlagTombstone
				}
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
	return deltas, images, collected
}
