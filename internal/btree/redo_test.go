package btree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/storage"
	"github.com/cidr09/unbundled/internal/wal"
)

// redoEnv is a forest over a store, a pool large enough that nothing reaches
// the store unless the test flushes it, and a DC-log of its own.
type redoEnv struct {
	store *storage.PageStore
	dlog  *wal.Log
	pool  *buffer.Pool
	f     *Forest
}

func (e *redoEnv) AppendSMO(kind uint8, payload []byte) base.DLSN {
	return base.DLSN(e.dlog.AppendAssign(&wal.Record{Kind: kind, Payload: payload}))
}
func (e *redoEnv) ForceSMO(d base.DLSN) { e.dlog.ForceTo(base.LSN(d)) }

// newRedoEnv formats a store and puts a pool and an empty DC-log over it.
func newRedoEnv(t *testing.T) *redoEnv {
	t.Helper()
	e := &redoEnv{store: storage.NewPageStore()}
	var err error
	if e.dlog, err = wal.New(storage.NewLogStore()); err != nil {
		t.Fatal(err)
	}
	Format(e.store)
	e.newPool()
	return e
}

func (e *redoEnv) newPool() {
	open := func(base.TCID) base.LSN { return 1 << 60 }
	e.pool = buffer.New(buffer.Config{Capacity: 1 << 20}, e.store,
		buffer.Gates{LWM: open, ForceDCLog: e.ForceSMO})
}

func (e *redoEnv) open(t *testing.T) {
	t.Helper()
	f, err := Open(Config{MaxPageBytes: 160}, e.pool, e.store.AllocPageID, e, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"big", "small"} {
		if err := f.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}
	e.f = f
}

// redoOp is one blind record operation: replaying the whole history in
// order converges on the final state whatever the pages held, so the test
// needs no abstract LSNs to play the TC's part of recovery.
type redoOp struct {
	table, key string
	del        bool
}

func (e *redoEnv) apply(t *testing.T, ops []redoOp) {
	t.Helper()
	for _, op := range ops {
		err := e.f.Tree(op.table).ApplyRun(1, func(int) string { return op.key }, func(_ int, leaf *page.Page) {
			if op.del {
				leaf.Remove(op.key)
			} else {
				leaf.Put(page.Record{Key: op.key, Value: []byte("v")})
			}
			e.pool.MarkDirty(leaf, 0, 0, 0)
		})
		if err != nil {
			t.Fatalf("apply %+v: %v", op, err)
		}
	}
}

// keys checks every tree's invariants and returns every key, by table.
func (e *redoEnv) keys(t *testing.T) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, table := range e.f.Tables() {
		if err := e.f.Tree(table).CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		keys, err := e.f.Tree(table).Keys()
		if err != nil {
			t.Fatalf("%s: %v", table, err)
		}
		out[table] = keys
	}
	return out
}

// TestRedoIsIdempotentOverAnyStableState grows one tree through leaf, branch
// and root splits and shrinks it through consolidations, takes a second,
// two-level one through a root split and back through a root collapse
// (branch pages are never merged, so only a root directly over leaves can
// collapse), and then recovers both from the SMO log over three stable
// states: nothing flushed, everything flushed, a random subset flushed. Each time the whole
// log is replayed twice through Redo. Replay must be idempotent and tolerate
// any mix of stale and current pages on the page dLSN alone: the structure
// is sound after each pass, the second pass changes nothing, and once the
// record operations are repeated the tree holds what the live one held.
func TestRedoIsIdempotentOverAnyStableState(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	var ops []redoOp
	for _, tb := range []struct {
		table string
		n     int
	}{{"big", 600}, {"small", 12}} {
		table, n := tb.table, tb.n
		for _, i := range rnd.Perm(n) {
			ops = append(ops, redoOp{table: table, key: fmt.Sprintf("key%04d", i)})
		}
		for _, i := range rnd.Perm(n) {
			if i%97 != 0 {
				ops = append(ops, redoOp{table: table, key: fmt.Sprintf("key%04d", i), del: true})
			}
		}
	}
	states := []struct {
		name  string
		flush func(*redoEnv)
	}{
		{"nothing flushed", func(*redoEnv) {}},
		{"everything flushed", func(e *redoEnv) { _ = e.pool.FlushAll(true, nil) }},
		{"a subset flushed", func(e *redoEnv) {
			var ids []base.PageID
			e.pool.Pages(func(pg *page.Page) { ids = append(ids, pg.ID) })
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				if rnd.Intn(2) == 0 {
					_ = e.pool.FlushPage(id)
				}
			}
		}},
	}
	for _, state := range states {
		t.Run(state.name, func(t *testing.T) {
			e := newRedoEnv(t)
			e.open(t)
			e.apply(t, ops)
			live := e.keys(t)
			e.dlog.Force()
			smos := e.dlog.Scan(0)
			kinds := map[uint8]int{}
			branchSplits := 0
			for _, rec := range smos {
				kinds[rec.Kind]++
				if rec.Kind == dclog.KindSplit {
					if sp, _ := dclog.DecodeSplit(rec.Payload); sp != nil && !sp.Leaf {
						branchSplits++
					}
				}
			}
			if kinds[dclog.KindSplit] == 0 || branchSplits == 0 || kinds[dclog.KindConsolidate] == 0 ||
				kinds[dclog.KindRootCollapse] == 0 {
				t.Fatalf("history too tame to test redo: %v, %d branch splits", kinds, branchSplits)
			}
			state.flush(e)

			e.newPool() // the crash: the cache is gone, the store is what it is
			var once map[string][]string
			for pass := 1; pass <= 2; pass++ {
				for _, rec := range smos {
					if err := Redo(e.pool, rec.Kind, rec.Payload, base.DLSN(rec.LSN)); err != nil {
						t.Fatalf("pass %d, dLSN %d: %v", pass, rec.LSN, err)
					}
				}
				e.open(t)
				if got := e.keys(t); pass == 1 {
					once = got
				} else if !reflect.DeepEqual(got, once) {
					t.Fatalf("second replay changed the trees: %v, then %v", once, got)
				}
			}
			e.apply(t, ops)
			if got := e.keys(t); !reflect.DeepEqual(got, live) {
				t.Fatalf("recovered trees hold %v, the live ones held %v", got, live)
			}
		})
	}
}

// TestRedoAnswersAsForwardDoes pins the two places where redo and the forward
// path used to answer differently. A parent older than the system transaction
// that does not hold the page the record says it holds is corrupt (page IDs
// are never reused), not a step to skip; and so is a page the record names
// that is nowhere to be found, since no page leaves the store while a
// retained record names it (TruncateLog).
func TestRedoAnswersAsForwardDoes(t *testing.T) {
	leaf := page.NewLeaf(30)
	for _, k := range []string{"a", "b", "c", "d"} {
		leaf.Put(page.Record{Key: k, Value: []byte("v")})
	}
	splitKey, right := leaf.UpperHalf(31)
	split := func(left, parent base.PageID) []byte {
		return (&dclog.Split{Table: "t", Leaf: true, LeftID: left, RightID: 31, SplitKey: splitKey,
			RightImage: right.Encode(), ParentID: parent}).Encode()
	}
	consolidate := (&dclog.Consolidate{Table: "t", LeftID: 30, RightID: 31, ParentID: 10,
		LeftImage: leaf.Encode()}).Encode()
	for _, tc := range []struct {
		name    string
		kind    uint8
		payload []byte
		want    []string
	}{
		{"split parent without the left page", dclog.KindSplit, split(30, 10),
			[]string{"split parent page 10", "does not hold left page 30"}},
		{"consolidate parent without the right page", dclog.KindConsolidate, consolidate,
			[]string{"consolidate parent page 10", "does not hold right page 31"}},
		{"split left page missing", dclog.KindSplit, split(99, 10),
			[]string{"split left page 99 is missing: the store is corrupt"}},
		{"split parent page missing", dclog.KindSplit, split(30, 98),
			[]string{"split parent page 98 is missing: the store is corrupt"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newRedoEnv(t)
			for _, pg := range []*page.Page{leaf.Clone(),
				page.NewBranch(10, []string{"m"}, []base.PageID{20, 21})} {
				e.pool.Install(pg)
				e.pool.Unpin(pg.ID)
			}
			err := Redo(e.pool, tc.kind, tc.payload, 5)
			if err == nil {
				t.Fatal("redo went through")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not say %q", err, want)
				}
			}
		})
	}
}

// leaves returns table's leaves in chain order, each with its keys.
func (e *redoEnv) leaves(t *testing.T, table string) (ids []base.PageID, keys [][]string) {
	t.Helper()
	err := e.f.Tree(table).Scan("", func(leaf *page.Page) bool {
		ids = append(ids, leaf.ID)
		var ks []string
		for i := range leaf.Recs {
			ks = append(ks, leaf.Recs[i].Key)
		}
		keys = append(keys, ks)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids, keys
}

// TestRedoFindsAConsolidatedPage is family 1: after a flush and a DC-log
// truncation a leaf P is split and then consolidated into its left sibling, so
// the retained log holds Split{LeftID: P} before Consolidate{RightID: P}.
// Replaying it over the stable pages needs P in the store: a consolidation
// that freed P at once left the Split naming a page that was gone.
func TestRedoFindsAConsolidatedPage(t *testing.T) {
	e := newRedoEnv(t)
	e.open(t)
	// Five digits make a record 17 bytes, so a leaf of eight (Size 168) is
	// over MaxPageBytes: the odd keys split P before they run out.
	key := func(i int) string { return fmt.Sprintf("key%05d", i) }
	var ops []redoOp
	for i := 0; i < 60; i += 2 {
		ops = append(ops, redoOp{table: "big", key: key(i)})
	}
	e.apply(t, ops)
	if err := e.pool.FlushAll(true, nil); err != nil {
		t.Fatal(err)
	}
	e.dlog.Force()
	e.dlog.Truncate(e.dlog.LastLSN() + 1)

	ids, keys := e.leaves(t, "big")
	if len(ids) < 3 {
		t.Fatalf("only %d leaves", len(ids))
	}
	p := ids[1] // a non-first leaf: its left sibling absorbs it
	var lo, hi int
	fmt.Sscanf(keys[1][0], "key%d", &lo)
	fmt.Sscanf(keys[2][0], "key%d", &hi)
	splits, _ := e.f.Tree("big").Stats()
	for i := lo + 1; ; i += 2 {
		if i >= hi {
			t.Fatalf("leaf %d took keys %d..%d without a split", p, lo, hi)
		}
		e.apply(t, []redoOp{{table: "big", key: key(i)}})
		if now, _ := e.f.Tree("big").Stats(); now > splits {
			break
		}
	}
	// Empty P, then its left sibling, until one absorbs the other.
	for gone := false; !gone; {
		ids, keys = e.leaves(t, "big")
		gone = true
		for i, id := range ids {
			if id == p {
				gone = false
				del := keys[i]
				if len(del) == 0 {
					del = keys[i-1]
				}
				e.apply(t, []redoOp{{table: "big", key: del[0], del: true}})
			}
		}
	}

	e.dlog.Force()
	smos := e.dlog.Scan(0)
	var split, consolidate bool
	for _, rec := range smos {
		switch rec.Kind {
		case dclog.KindSplit:
			sp, _ := dclog.DecodeSplit(rec.Payload)
			split = split || sp.LeftID == p
		case dclog.KindConsolidate:
			co, _ := dclog.DecodeConsolidate(rec.Payload)
			consolidate = consolidate || (split && co.RightID == p)
		}
	}
	if !consolidate {
		t.Fatalf("the retained log does not split leaf %d and then consolidate it away", p)
	}
	e.newPool()
	for _, rec := range smos {
		if err := Redo(e.pool, rec.Kind, rec.Payload, base.DLSN(rec.LSN)); err != nil {
			t.Fatalf("dLSN %d: %v", rec.LSN, err)
		}
	}
	e.open(t)
	e.keys(t) // CheckInvariants on every tree
}
