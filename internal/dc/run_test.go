package dc

import (
	"context"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// runKey is the i-th of the ascending keys the run tests write.
func runKey(i int) string { return fmt.Sprintf("r%05d", i) }

// batch builds n writes of kind on runKey(from), runKey(from+1), ..., taking
// the helper's next LSNs, with val(i) the value of the i-th.
func (h *opHelper) batch(kind base.OpKind, from, n int, val func(i int) string) []*base.Op {
	ops := make([]*base.Op, n)
	for i := range ops {
		ops[i] = &base.Op{TC: h.tc, Epoch: h.epoch, LSN: h.next, Kind: kind, Table: "t",
			Key: runKey(from + i), Value: []byte(val(i))}
		h.next++
	}
	return ops
}

// checkRun fails unless every result of a batch has code.
func checkRun(t *testing.T, what string, res []*base.Result, code base.Code) {
	t.Helper()
	for i, r := range res {
		if r.Code != code {
			t.Fatalf("%s: op %d answered %v, want %v", what, i, r.Code, code)
		}
	}
}

// TestResentRunSkipsEveryOp: a 64-op ascending batch, applied once and then
// resent whole, is recognised op by op as applied — the abstract-LSN test
// runs for each operation of a run under the one latch — and the first
// send's values stay.
func TestResentRunSkipsEveryOp(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	ctx := context.Background()
	ops := h.batch(base.OpInsert, 0, 64, func(i int) string { return fmt.Sprintf("first%d", i) })
	checkRun(t, "first send", d.PerformBatch(ctx, ops), base.CodeOK)
	resent := make([]*base.Op, len(ops))
	for i, op := range ops {
		again := *op
		again.Value = []byte("resent")
		resent[i] = &again
	}
	before := d.Stats().DupSkips
	res := d.PerformBatch(ctx, resent)
	checkRun(t, "resend", res, base.CodeOK)
	for i, r := range res {
		if !r.Applied {
			t.Fatalf("resent op %d was not recognised as applied", i)
		}
	}
	if got := d.Stats().DupSkips - before; got != 64 {
		t.Fatalf("the resend skipped %d duplicates, want 64", got)
	}
	for i := range ops {
		if r := h.read(runKey(i)); !r.Found || string(r.Value) != fmt.Sprintf("first%d", i) {
			t.Fatalf("%s reads %q (found %v), want the first send's value", runKey(i), r.Value, r.Found)
		}
	}
}

// TestRunSplitsItsLeafMidBatch: a run that fills its leaf past the page size
// lets the latch go, splits the leaf and descends again for the rest, so
// every operation of the batch is applied exactly once — an insert applied
// twice would answer CodeDuplicate — and the tree stays sound.
func TestRunSplitsItsLeafMidBatch(t *testing.T) {
	d := newDC(t, Config{PageBytes: 512})
	h := newOpHelper(d, 1)
	ops := h.batch(base.OpInsert, 0, 64, func(i int) string { return fmt.Sprintf("value-%02d", i) })
	checkRun(t, "batch", d.PerformBatch(context.Background(), ops), base.CodeOK)
	if splits(d) == 0 {
		t.Fatal("the batch split no leaf")
	}
	if d.Stats().DupSkips != 0 {
		t.Fatalf("%d operations were skipped as duplicates, want none", d.Stats().DupSkips)
	}
	if err := d.Tree("t").CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys, err := d.Tree("t").Keys()
	if err != nil || len(keys) != 64 {
		t.Fatalf("the tree holds %d keys (%v), want 64", len(keys), err)
	}
	for i := range ops {
		if r := h.read(runKey(i)); !r.Found || string(r.Value) != fmt.Sprintf("value-%02d", i) {
			t.Fatalf("%s reads %q (found %v)", runKey(i), r.Value, r.Found)
		}
	}
}

// TestRunRefusalEndsTheRun: an operation refused by its checks — here a
// versioned write without its commit timestamp — is answered alone, and the
// writes on either side of it are applied.
func TestRunRefusalEndsTheRun(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	ops := h.batch(base.OpInsert, 0, 9, func(int) string { return "v" })
	ops[4].Versioned = true
	res := d.PerformBatch(context.Background(), ops)
	for i, r := range res {
		want := base.CodeOK
		if i == 4 {
			want = base.CodeBadRequest
		}
		if r.Code != want {
			t.Fatalf("op %d answered %v, want %v", i, r.Code, want)
		}
		if found := h.read(runKey(i)).Found; found != (i != 4) {
			t.Fatalf("%s found = %v after the batch", runKey(i), found)
		}
	}
}

// TestRunMatesAreNoConflict: a batch may write one key twice (a transaction's
// insert and its later update); its operations run one after the other, so
// the conflict checker counts none between them.
func TestRunMatesAreNoConflict(t *testing.T) {
	d := newDC(t, Config{CheckConflicts: true})
	h := newOpHelper(d, 1)
	ops := h.batch(base.OpInsert, 0, 2, func(int) string { return "v" })
	ops[1].Kind, ops[1].Key = base.OpUpdate, ops[0].Key
	checkRun(t, "batch", d.PerformBatch(context.Background(), ops), base.CodeOK)
	if n := d.Stats().ConflictViols; n != 0 {
		t.Fatalf("%d conflicts counted between a batch's own operations", n)
	}
}

// TestRunDescendsOncePerLeaf: in a warm tree, a 64-op ascending batch costs
// one descent per leaf it touches, not one per operation: at most (leaves
// touched x tree depth) pool fetches. The batch updates values in place, so
// no leaf splits or consolidates.
func TestRunDescendsOncePerLeaf(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	ctx := context.Background()
	for from := 0; from < 2000; from += 64 {
		checkRun(t, "load", d.PerformBatch(ctx, h.batch(base.OpInsert, from, 64, func(int) string { return "loaded" })), base.CodeOK)
	}
	fetches := func() uint64 { st := d.Pool().Stats(); return st.Hits + st.Misses }
	f0 := fetches()
	h.read(runKey(1000))
	depth := fetches() - f0
	leaves := map[uint64]bool{}
	for i := 1000; i < 1064; i++ {
		if r := h.read(runKey(i)); !r.Found {
			t.Fatalf("%s not loaded", runKey(i))
		}
		leaves[uint64(leafOf(t, d, runKey(i)).ID)] = true
	}
	if depth < 2 || len(leaves) < 2 {
		t.Fatalf("depth %d, %d leaves: the test wants a run over several leaves of a branching tree", depth, len(leaves))
	}
	ops := h.batch(base.OpUpdate, 1000, 64, func(int) string { return "update" })
	f0 = fetches()
	checkRun(t, "batch", d.PerformBatch(ctx, ops), base.CodeOK)
	if got, bound := fetches()-f0, uint64(len(leaves))*depth; got > bound {
		t.Fatalf("a 64-op batch over %d leaves of a depth-%d tree fetched %d pages, want at most %d",
			len(leaves), depth, got, bound)
	} else {
		t.Logf("a 64-op batch over %d leaves of a depth-%d tree fetched %d pages", len(leaves), depth, got)
	}
}
