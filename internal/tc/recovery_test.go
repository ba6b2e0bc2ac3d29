package tc

import (
	"context"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// upsertMany commits one transaction of n upserts into table "t".
func upsertMany(t *testing.T, tcx *TC, n int) {
	t.Helper()
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < n; i++ {
			if err := x.Upsert("t", fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRedoShipsInWindows: a restart resends a DC's redo stream in
// windows of maxBatch, never one operation per call, and sends nothing to a
// DC that holds none of it. The first window goes twice: unstamped, answered
// CodeStaleDC naming the DC incarnation the bracket binds to, then stamped.
func TestRestartRedoShipsInWindows(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	const n = 2*maxBatch + 3
	upsertMany(t, tcx, n)
	tcx.Crash()
	for _, s := range stubs {
		s.take()
	}
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"[64w 64w 64w 3w]", "[]"} {
		if single, reads, batches := stubs[i].take(); single != 0 || reads != 0 || fmt.Sprint(batches) != want {
			t.Fatalf("DC %d heard %d single sends, %d single reads and batches %v from the restart, want 0, 0 and %v",
				i, single, reads, batches, want)
		}
	}
	if got := tcx.Stats().RedoOps; got != n {
		t.Fatalf("the restart redid %d operations, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if _, ok := dirty(dcs[0], "t", fmt.Sprintf("k%04d", i)); !ok {
			t.Fatalf("k%04d missing after the restart", i)
		}
	}
}

// windowLog wraps a DC and records the first LSN of every window of a resend
// it receives (a PerformBatch stamped with a DC incarnation); restart runs
// before the at-th of them is passed on.
type windowLog struct {
	base.Service
	firsts  []base.LSN
	at      int
	restart func()
}

func (w *windowLog) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if ops[0].DCInc != 0 {
		if w.firsts = append(w.firsts, ops[0].LSN); len(w.firsts) == w.at {
			w.restart()
		}
	}
	return w.Service.PerformBatch(ctx, ops)
}

// TestDCRestartUnderAWindowedResend: a DC that restarts between two windows
// of a resend answers the second CodeStaleDC, naming its new incarnation. The
// resend starts over from the redo scan start point — the restart lost the
// first window from the DC's cache — every operation lands, and the bracket
// closes: the DC takes the TC's checkpoint, which it refuses while a resend
// is owed or open.
func TestDCRestartUnderAWindowedResend(t *testing.T) {
	d, err := dc.New(dc.Config{Name: "dc0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	stub := &windowLog{Service: d, at: 2, restart: func() {
		d.Crash()
		if err := d.Recover(); err != nil {
			t.Error(err)
		}
	}}
	tcx, err := New(Config{ID: 1}, []base.Service{stub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	const n = 2*maxBatch + 3
	upsertMany(t, tcx, n) // unstamped: no window of a resend
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if len(stub.firsts) < 2 {
		t.Fatalf("the resend sent windows %v: the DC never restarted under its second", stub.firsts)
	}
	f := stub.firsts[0]
	want := fmt.Sprint([]base.LSN{f, f + maxBatch, f, f + maxBatch, f + 2*maxBatch})
	if got := fmt.Sprint(stub.firsts); got != want {
		t.Fatalf("windows began at %v, want %v: the second refused, then the whole stream again", got, want)
	}
	for i := 0; i < n; i++ {
		if _, ok := dirty(d, "t", fmt.Sprintf("k%04d", i)); !ok {
			t.Fatalf("k%04d missing after the resend", i)
		}
	}
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		t.Fatalf("checkpoint after the resend: %v", err)
	}
}

// TestRestartAbortsNoWinner: restart takes no committed transaction for a
// loser: it appends nothing but its epoch record, and its redo delivers the
// committed versioned writes again.
func TestRestartAbortsNoWinner(t *testing.T) {
	tcx, d := newPair(t, Config{})
	for _, k := range []string{"a", "b"} {
		if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
			return x.Upsert("t", k, []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	logEnd := tcx.log.LastLSN()
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	tcx.log.Force()
	var appended []uint8
	for _, rec := range tcx.log.Scan(logEnd + 1) {
		appended = append(appended, rec.Kind)
	}
	if want := fmt.Sprint([]uint8{recEpoch}); fmt.Sprint(appended) != want {
		t.Fatalf("restart appended records of kinds %v, want %v", appended, want)
	}
	for _, k := range []string{"a", "b"} {
		if v, ok := dirty(d, "t", k); !ok || v != "v" {
			t.Fatalf("%s = %q %v after the restart", k, v, ok)
		}
	}
}
