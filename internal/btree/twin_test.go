package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
)

// A twin schedule is bytes, two per stamped record operation, so the seeded
// test and the fuzz target drive the same decoder: byte 0 holds the table
// (bit 0), the TC (bit 1), delete-or-put (bit 2) and the key's high nibble
// (bits 4-7), byte 1 the key's low byte. Each TC stamps its operations with
// its own ascending LSNs.
var twinTables = [2]string{"big", "small"}

func twinKey(b0, b1 byte) string { return fmt.Sprintf("k%04d", int(b0>>4)<<8|int(b1)) }

func twinOpBytes(table int, tc base.TCID, del bool, key int) []byte {
	b0 := byte(table) | byte(tc-1)<<1 | byte(key>>8)<<4
	if del {
		b0 |= 1 << 2
	}
	return []byte{b0, byte(key)}
}

// twinSchedule is the seeded churn: "big" grows through leaf, branch and
// root splits, shrinks through consolidations and grows again; "small" goes
// through one root split and back through a root collapse. The two tables'
// operations are interleaved at random, each table's own order kept.
func twinSchedule(seed int64) []byte {
	rnd := rand.New(rand.NewSource(seed))
	var perTable [2][][]byte
	add := func(table int, del bool, key int) {
		perTable[table] = append(perTable[table], twinOpBytes(table, base.TCID(1+rnd.Intn(2)), del, key))
	}
	for table, n := range [2]int{600, 12} {
		for _, i := range rnd.Perm(n) {
			add(table, false, i)
		}
		for _, i := range rnd.Perm(n) {
			if i%97 != 0 {
				add(table, true, i)
			}
		}
	}
	for _, i := range rnd.Perm(300) {
		add(0, false, 2*i)
	}
	var out []byte
	for len(perTable[0])+len(perTable[1]) > 0 {
		table := 0
		if rnd.Intn(len(perTable[0])+len(perTable[1])) >= len(perTable[0]) {
			table = 1
		}
		out = append(out, perTable[table][0]...)
		perTable[table] = perTable[table][1:]
	}
	return out
}

// twinMutate is one stamped record operation on the leaf that covers its
// key: the record change, the abstract-LSN entry, and a low-water mark
// trailing the TC's LSNs by four so the {LSNin} sets stay small.
func twinMutate(leaf *page.Page, b0, b1 byte, lsns *[2]base.LSN) (tc base.TCID, lsn base.LSN) {
	tc = base.TCID(1 + b0>>1&1)
	lsns[tc-1]++
	lsn = lsns[tc-1]
	key := twinKey(b0, b1)
	if b0>>2&1 != 0 {
		leaf.Remove(key)
	} else {
		leaf.Put(page.Record{Key: key, Owner: tc, Value: []byte{b1}})
	}
	leaf.Ab.Ensure(tc).Add(lsn)
	if lsn > 4 {
		leaf.Ab.Advance(tc, lsn-4)
	}
	return tc, lsn
}

// twinLeaf routes key through the twin's own pages, catalog first: the twin
// has no Tree, only what Redo made of the records.
func twinLeaf(t *testing.T, e *redoEnv, table, key string) *page.Page {
	t.Helper()
	cat, err := e.pool.Fetch(CatalogPageID)
	if err != nil || cat == nil {
		t.Fatalf("twin catalog: %v %v", cat, err)
	}
	defer e.pool.Unpin(CatalogPageID)
	rec := cat.Get(table)
	if rec == nil {
		t.Fatalf("twin catalog has no table %q", table)
	}
	id, err := catalogRoot(rec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		pg, err := e.pool.Fetch(id)
		if err != nil || pg == nil {
			t.Fatalf("twin page %d: %v %v", id, pg, err)
		}
		e.pool.Unpin(id)
		if pg.Leaf {
			return pg
		}
		id = pg.ChildFor(key)
	}
}

// pageIDs is every page a pool and its store hold between them.
func (e *redoEnv) pageIDs() []base.PageID {
	seen := map[base.PageID]bool{}
	for _, id := range e.store.IDs() {
		seen[id] = true
	}
	e.pool.Pages(func(pg *page.Page) { seen[pg.ID] = true })
	ids := make([]base.PageID, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// twinStats is what a schedule drove the live forest through.
type twinStats struct {
	leafSplits, branchSplits, rootSplits, consolidates, rootCollapses int
}

// runTwin plays schedule on a live forest and, beside it, on a twin that
// never runs a forward system transaction: each record operation is applied
// straight to the twin's covering leaf, with no structure maintenance, and
// every DC-log record the live forest wrote for it is replayed on the twin
// through Redo. At checkpoints evenly spaced points and at the end the two
// must hold the same page IDs, agree page for page under page.Equal
// (abstract LSNs, dLSN and the catalog page included) and both pass
// CheckInvariants: the forward telling of every system transaction and its
// redo are the same function of the record.
func runTwin(t *testing.T, schedule []byte, checkpoints int) twinStats {
	t.Helper()
	live, twin := newRedoEnv(t), newRedoEnv(t)
	live.open(t) // creates both tables: two CreateTree records

	var stats twinStats
	var replayed base.LSN
	replay := func() {
		live.dlog.Force()
		for _, rec := range live.dlog.Scan(replayed + 1) {
			if err := Redo(twin.pool, rec.Kind, rec.Payload, base.DLSN(rec.LSN)); err != nil {
				t.Fatalf("twin redo of dLSN %d: %v", rec.LSN, err)
			}
			replayed = rec.LSN
			switch rec.Kind {
			case dclog.KindSplit:
				sp, err := dclog.DecodeSplit(rec.Payload)
				if err != nil {
					t.Fatal(err)
				}
				if sp.Leaf {
					stats.leafSplits++
				} else {
					stats.branchSplits++
				}
				if sp.NewRootID != 0 {
					stats.rootSplits++
				}
			case dclog.KindConsolidate:
				stats.consolidates++
			case dclog.KindRootCollapse:
				stats.rootCollapses++
			}
		}
	}
	compare := func(at int) {
		t.Helper()
		ids, twinIDs := live.pageIDs(), twin.pageIDs()
		if fmt.Sprint(ids) != fmt.Sprint(twinIDs) {
			t.Fatalf("after %d ops: live holds pages %v, twin %v", at, ids, twinIDs)
		}
		for _, id := range ids {
			lp, err := live.pool.Fetch(id)
			if err != nil || lp == nil {
				t.Fatalf("live page %d: %v %v", id, lp, err)
			}
			tp, err := twin.pool.Fetch(id)
			if err != nil || tp == nil {
				t.Fatalf("twin page %d: %v %v", id, tp, err)
			}
			if !lp.Equal(tp) {
				t.Fatalf("after %d ops page %d differs:\nlive %+v\ntwin %+v", at, id, lp, tp)
			}
			live.pool.Unpin(id)
			twin.pool.Unpin(id)
		}
		twinForest, err := Open(Config{MaxPageBytes: 160}, twin.pool, twin.store.AllocPageID, twin)
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range twinTables {
			if err := live.f.Tree(table).CheckInvariants(); err != nil {
				t.Fatalf("after %d ops live %s: %v", at, table, err)
			}
			if err := twinForest.Tree(table).CheckInvariants(); err != nil {
				t.Fatalf("after %d ops twin %s: %v", at, table, err)
			}
		}
	}

	replay()
	nops := len(schedule) / 2
	var liveLSNs, twinLSNs [2]base.LSN
	for i := 0; i < nops; i++ {
		b0, b1 := schedule[2*i], schedule[2*i+1]
		table := twinTables[b0&1]
		key := twinKey(b0, b1)

		leaf := twinLeaf(t, twin, table, key)
		leaf.L.Lock()
		tc, lsn := twinMutate(leaf, b0, b1, &twinLSNs)
		twin.pool.MarkDirty(leaf, tc, lsn, 0)
		leaf.L.Unlock()

		_, _, err := live.f.Tree(table).Apply(key, func(leaf *page.Page) bool {
			tc, lsn := twinMutate(leaf, b0, b1, &liveLSNs)
			live.pool.MarkDirty(leaf, tc, lsn, 0)
			return false
		})
		if err != nil {
			t.Fatalf("op %d (%s %s): %v", i, table, key, err)
		}
		replay()
		if checkpoints > 0 && (i+1)%(nops/checkpoints+1) == 0 {
			compare(i + 1)
		}
	}
	compare(nops)
	return stats
}

var twinSeeds = []int64{1, 2, 3, 25}

// TestForwardMatchesRedo is the twin test over the seeded schedules, each of
// which must have driven every kind of system transaction.
func TestForwardMatchesRedo(t *testing.T) {
	for _, seed := range twinSeeds {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			stats := runTwin(t, twinSchedule(seed), 12)
			if stats.leafSplits == 0 || stats.branchSplits == 0 || stats.rootSplits < 2 ||
				stats.consolidates == 0 || stats.rootCollapses == 0 {
				t.Fatalf("schedule too tame: %+v", stats)
			}
		})
	}
}

// FuzzForwardMatchesRedo lets the fuzzer pick the interleaving of stamped
// puts and deletes on the two tables; the seeded schedules are its corpus.
func FuzzForwardMatchesRedo(f *testing.F) {
	for _, seed := range twinSeeds {
		f.Add(twinSchedule(seed))
	}
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 1<<13 {
			schedule = schedule[:1<<13]
		}
		runTwin(t, schedule, 4)
	})
}
