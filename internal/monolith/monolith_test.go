package monolith

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
)

func newEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	return e
}

// checkpointTwice runs the two checkpoints that leave every page stable
// and the log truncated below everything logged before the first: that one
// takes its candidate, the second proposes it.
func checkpointTwice(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBasicTxn(t *testing.T) {
	e := newEngine(t, Config{})
	if err := e.RunTxn(func(x *Txn) error {
		if err := x.Insert("t", "a", []byte("1")); err != nil {
			return err
		}
		if err := x.Insert("t", "a", nil); !errors.Is(err, ErrDuplicate) {
			return fmt.Errorf("dup: %v", err)
		}
		if err := x.Update("t", "missing", nil); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("missing: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunTxn(func(x *Txn) error {
		v, ok, err := x.Read("t", "a")
		if err != nil || !ok || string(v) != "1" {
			return fmt.Errorf("read: %q %v %v", v, ok, err)
		}
		return x.Delete("t", "a")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRestores(t *testing.T) {
	e := newEngine(t, Config{})
	if err := e.RunTxn(func(x *Txn) error {
		return x.Insert("t", "k", []byte("orig"))
	}); err != nil {
		t.Fatal(err)
	}
	x := e.Begin()
	if err := x.Update("t", "k", []byte("scratch")); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert("t", "new", []byte("n")); err != nil {
		t.Fatal(err)
	}
	x.Abort()
	if err := e.RunTxn(func(y *Txn) error {
		if v, ok, _ := y.Read("t", "k"); !ok || string(v) != "orig" {
			return fmt.Errorf("rollback failed: %q %v", v, ok)
		}
		if _, ok, _ := y.Read("t", "new"); ok {
			return fmt.Errorf("inserted key survived abort")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryCommittedSurvivesLoserVanishes(t *testing.T) {
	e := newEngine(t, Config{PageBytes: 256})
	for i := 0; i < 120; i++ {
		if err := e.RunTxn(func(x *Txn) error {
			return x.Insert("t", fmt.Sprintf("k%04d", i), []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A forced loser (ops stable, no commit).
	loser := e.Begin()
	if err := loser.Update("t", "k0000", []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	if err := loser.Insert("t", "ghost", []byte("x")); err != nil {
		t.Fatal(err)
	}
	e.Log().Force()

	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := e.RunTxn(func(x *Txn) error {
		for i := 0; i < 120; i++ {
			v, ok, _ := x.Read("t", fmt.Sprintf("k%04d", i))
			if !ok || string(v) != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("key %d: %q %v", i, v, ok)
			}
		}
		if _, ok, _ := x.Read("t", "ghost"); ok {
			return fmt.Errorf("loser insert survived")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if e.Stats().UndoOps == 0 {
		t.Fatal("expected restart undo")
	}
}

func TestCheckpointBoundsRedo(t *testing.T) {
	e := newEngine(t, Config{PageBytes: 256})
	for i := 0; i < 100; i++ {
		if err := e.RunTxn(func(x *Txn) error {
			return x.Insert("t", fmt.Sprintf("k%04d", i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	checkpointTwice(t, e)
	e.Crash()
	if err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().RedoOps; got != 0 {
		t.Fatalf("redo after checkpoint should be empty: %d", got)
	}
	if err := e.RunTxn(func(x *Txn) error {
		for i := 0; i < 100; i++ {
			if _, ok, _ := x.Read("t", fmt.Sprintf("k%04d", i)); !ok {
				return fmt.Errorf("key %d lost", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestScan(t *testing.T) {
	e := newEngine(t, Config{PageBytes: 256})
	if err := e.RunTxn(func(x *Txn) error {
		for i := 0; i < 60; i++ {
			if err := x.Insert("t", fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RunTxn(func(x *Txn) error {
		keys, _, err := x.Scan("t", "k010", "k020", 0)
		if err != nil {
			return err
		}
		if len(keys) != 10 || keys[0] != "k010" {
			return fmt.Errorf("scan = %v", keys)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedCrashConvergence(t *testing.T) {
	e := newEngine(t, Config{PageBytes: 256})
	model := map[string]string{}
	rnd := rand.New(rand.NewSource(21))
	for round := 0; round < 5; round++ {
		for i := 0; i < 100; i++ {
			k := fmt.Sprintf("k%03d", rnd.Intn(100))
			v := fmt.Sprintf("r%d-%d", round, i)
			del := rnd.Intn(4) == 0
			if err := e.RunTxn(func(x *Txn) error {
				if del {
					if _, ok, _ := x.Read("t", k); !ok {
						return nil
					}
					return x.Delete("t", k)
				}
				return x.Upsert("t", k, []byte(v))
			}); err != nil {
				t.Fatal(err)
			}
			if del {
				delete(model, k)
			} else {
				model[k] = v
			}
		}
		if rnd.Intn(2) == 0 {
			checkpointTwice(t, e)
		}
		e.Crash()
		if err := e.Recover(); err != nil {
			t.Fatal(err)
		}
		if err := e.RunTxn(func(x *Txn) error {
			for k, want := range model {
				v, ok, _ := x.Read("t", k)
				if !ok || string(v) != want {
					return fmt.Errorf("round %d %s: %q,%v want %q", round, k, v, ok, want)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentTxns(t *testing.T) {
	e := newEngine(t, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				_ = e.RunTxn(func(x *Txn) error {
					return x.Upsert("t", fmt.Sprintf("hot%d", i%7), []byte(fmt.Sprintf("g%d", g)))
				})
			}
		}(g)
	}
	wg.Wait()
	if e.Stats().Commits == 0 {
		t.Fatal("nothing committed")
	}
}

// leafIDs returns the leaves of table t in chain order.
func leafIDs(t *testing.T, e *Engine) []base.PageID {
	t.Helper()
	var ids []base.PageID
	if err := e.tree("t").Scan("", func(leaf *page.Page) bool {
		ids = append(ids, leaf.ID)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestConsolidatedPageFreedByTruncation: a leaf consolidated away stays in the
// store while the log holds the Consolidate record that deleted it, and is
// freed by the checkpoint whose truncation discards that record: the second
// after it, which proposes what the first took.
func TestConsolidatedPageFreedByTruncation(t *testing.T) {
	e := newEngine(t, Config{PageBytes: 256})
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }
	n := 0
	for ; len(leafIDs(t, e)) < 2; n++ {
		if err := e.RunTxn(func(x *Txn) error { return x.Insert("t", key(n), []byte("v")) }); err != nil {
			t.Fatal(err)
		}
	}
	checkpointTwice(t, e)
	right := leafIDs(t, e)[1]
	for len(leafIDs(t, e)) > 1 {
		n--
		if err := e.RunTxn(func(x *Txn) error { return x.Delete("t", key(n)) }); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.store.Read(right); !ok {
		t.Fatalf("page %d, consolidated away, must stay in the store until its record is truncated", right)
	}
	// The first of the pair proposes the candidate taken before the deletes,
	// the second the one taken after the consolidation's record.
	checkpointTwice(t, e)
	if _, ok := e.store.Read(right); ok {
		t.Fatalf("page %d outlived the truncation of the record that deleted it", right)
	}
}

// TestCheckpointProposesThePreviousCandidate: the engine checkpoints as a TC
// does. With the pool holding every page, a leaf re-dirtied right after
// checkpoint k is left dirty by k+1, which proposes the log end k took, and
// written back by k+2; each proposal is the RSSP the call returns.
func TestCheckpointProposesThePreviousCandidate(t *testing.T) {
	e := newEngine(t, Config{})
	write := func(v string) {
		t.Helper()
		if err := e.RunTxn(func(x *Txn) error { return x.Upsert("t", "hot", []byte(v)) }); err != nil {
			t.Fatal(err)
		}
	}
	write("v0")
	checkpointTwice(t, e)
	var flushes []uint64
	var rssps []base.LSN
	var ends []base.LSN
	for k := 1; k <= 4; k++ {
		ends = append(ends, e.log.LastLSN()+1)
		before := e.pool.Stats().Flushes
		rssp, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		flushes, rssps = append(flushes, e.pool.Stats().Flushes-before), append(rssps, rssp)
		write(fmt.Sprintf("v%d", k))
	}
	if want := "[0 0 1 0]"; fmt.Sprint(flushes) != want {
		t.Fatalf("write-backs per checkpoint %v, want %s", flushes, want)
	}
	for k := 1; k < len(rssps); k++ {
		if rssps[k] != ends[k-1] {
			t.Fatalf("checkpoint %d moved the RSSP to %d, want the log end %d its predecessor took", k+1, rssps[k], ends[k-1])
		}
	}
	if ev := e.pool.Stats().Evictions; ev != 0 {
		t.Fatalf("the pool evicted %d pages; test vacuous", ev)
	}
}
