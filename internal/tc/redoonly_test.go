package tc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/wal"
)

// Commit logs its writes redo-only, in one batch with the commit record, and
// forces it before it ships them: no undo image, so no pre-read. These tests
// pin the two ways a crash can decide such a commit, and what restart does
// with an op record that has no commit record beside it.

// TestRedoOnlyCommitCrash: the TC crashes after its commit batch is
// appended. Lost: the crash lands in the batch's force, so restart finds no
// record of the transaction, and no DC saw any of it — a key that existed
// reads its prior value, one that did not is absent. Forced: the crash lands
// in the ship — DC 0 has applied the writes, DC 1 is applying them — so the
// transaction is a winner, and redo delivers its writes to both DCs again.
func TestRedoOnlyCommitCrash(t *testing.T) {
	for _, forced := range []bool{false, true} {
		t.Run(map[bool]string{false: "lost", true: "forced"}[forced], func(t *testing.T) {
			cfg := Config{ID: 1}
			if !forced {
				cfg.ForceDelay = 50 * time.Millisecond // the crash lands in it
			}
			tcx, dcs, stubs := newCountedPairCfg(t, cfg)
			if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
				if err := x.Insert("t", "old", []byte("p0")); err != nil {
					return err
				}
				return x.Insert("u", "old", []byte("p0"))
			}); err != nil {
				t.Fatal(err)
			}
			for _, s := range stubs {
				s.take()
			}
			crashed := false
			stubs[1].setHook(func(call string) {
				if call != "write" || crashed || !forced {
					return
				}
				crashed = true
				tcx.Crash() // DC 1 still applies the batch: no fence is up yet
			})
			x := tcx.Begin(context.Background(), TxnOptions{})
			for _, table := range []string{"t", "u"} {
				for _, key := range []string{"old", "new"} {
					if err := x.Upsert(table, key, []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
			}
			commitLSN := tcx.log.LastLSN() + 5 // four writes and the commit record
			done := make(chan error, 1)
			go func() { done <- x.Commit() }()
			if !forced {
				for tcx.log.LastLSN() < commitLSN {
					runtime.Gosched()
				}
				if eosl := tcx.log.EOSL(); eosl >= commitLSN {
					t.Fatalf("the batch was stable (EOSL %d, commit @%d) before the crash; test vacuous", eosl, commitLSN)
				}
				crashed = true
				tcx.Crash()
			}
			if err := <-done; !crashed || !errors.Is(err, ErrCommitAmbiguous) || !errors.Is(err, ErrTCStopped) {
				t.Fatalf("commit under the crash (crashed %v) = %v, want an ambiguous ErrTCStopped", crashed, err)
			}
			stubs[1].setHook(nil)
			want := map[string]string{"old": "p0", "new": ""}
			if forced {
				want = map[string]string{"old": "v", "new": "v"}
			}
			for i, s := range stubs {
				// The writes alone, once forced: no pre-read precedes a
				// commit batch.
				if single, reads, batches := s.take(); single != 0 || reads != 0 || (len(batches) != 0) != forced {
					t.Fatalf("DC %d: %d single sends, %d single reads and batches %v before the restart", i, single, reads, batches)
				}
				for key, w := range want {
					if v, ok := dirty(dcs[i], []string{"t", "u"}[i], key); v != w || ok != (w != "") {
						t.Fatalf("DC %d holds %s = %q %v before the restart, want %q", i, key, v, ok, w)
					}
				}
			}
			if err := tcx.Recover(); err != nil {
				t.Fatal(err)
			}
			if ops := txnRecords(tcx, x.id); forced != (len(ops) == 4) {
				t.Fatalf("the restarted log holds %d op records of the transaction", len(ops))
			}
			for i, table := range []string{"t", "u"} {
				for key, w := range want {
					if v, ok := dirty(dcs[i], table, key); v != w || ok != (w != "") {
						t.Fatalf("%s/%s = %q %v after the restart, want %q", table, key, v, ok, w)
					}
				}
			}
		})
	}
}

// TestRedoOnlyCommitCrashBetweenWindows: a commit batch longer than maxBatch
// is forced and ships in windows, and the TC crashes once its first window is
// applied, as its second is sent. The third never leaves, and the DC holds
// two windows of a winner: redo delivers the whole batch, the DC finding the
// two windows applied and applying the third.
func TestRedoOnlyCommitCrashBetweenWindows(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "k0000", []byte("p0"))
	}); err != nil {
		t.Fatal(err)
	}
	stubs[0].take()
	windows := 0
	stubs[0].setHook(func(call string) {
		if call == "write" {
			if windows++; windows == 2 {
				tcx.Crash() // the first window is applied, and the second still lands
			}
		}
	})
	const n = 2*maxBatch + 22
	x := tcx.Begin(context.Background(), TxnOptions{})
	for i := 0; i < n; i++ {
		if err := x.Upsert("t", fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Commit(); !errors.Is(err, ErrCommitAmbiguous) || !errors.Is(err, ErrTCStopped) {
		t.Fatalf("commit under the crash = %v, want an ambiguous ErrTCStopped", err)
	}
	stubs[0].setHook(nil)
	if _, _, batches := stubs[0].take(); fmt.Sprint(batches) != "[64w 64w]" {
		t.Fatalf("the commit shipped batches %v before the crash stopped it, want [64w 64w]", batches)
	}
	for i := 0; i < n; i++ {
		if v, ok := dirty(dcs[0], "t", fmt.Sprintf("k%04d", i)); ok != (i < 2*maxBatch) || ok && v != "v" {
			t.Fatalf("k%04d = %q %v before the restart, want the shipped windows only", i, v, ok)
		}
	}
	skips := dcs[0].Stats().DupSkips
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if ops := txnRecords(tcx, x.id); len(ops) != n {
		t.Fatalf("the restarted log holds %d op records of the transaction, want %d", len(ops), n)
	}
	// The first commit's insert and the two windows were there already.
	if got := dcs[0].Stats().DupSkips - skips; got != 1+2*maxBatch {
		t.Fatalf("the redo found %d operations applied, want %d", got, 1+2*maxBatch)
	}
	for i := 0; i < n; i++ {
		if v, ok := dirty(dcs[0], "t", fmt.Sprintf("k%04d", i)); !ok || v != "v" {
			t.Fatalf("k%04d = %q %v after the restart, want v", i, v, ok)
		}
	}
}

// TestRedoOnlyRecordIsNeverUndone: an op record is stable only in a run of op
// records that its transaction's commit record closes, so one without it — a
// run at the log's end, or one that a record of another kind cuts short even
// if a committed batch follows — or a compensation or abort record of a TC
// that logged undo is in a log this TC did not write. Recover inverts nothing
// of it and redoes nothing: it fails with an error, mints no epoch, and the
// TC stays down, however often it is asked.
func TestRedoOnlyRecordIsNeverUndone(t *testing.T) {
	for _, c := range []struct {
		name  string
		kinds []uint8
	}{
		{"op-without-commit", []uint8{recOp}},
		{"run-without-commit", []uint8{recOp, recCommit, recOp, recOp}},
		{"run-cut-by-epoch", []uint8{recOp, recOp, recEpoch, recOp, recCommit}},
		{"compensation", []uint8{2}},
		{"abort", []uint8{4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tcx, dcs, _ := newCountedPair(t)
			op := &base.Op{TC: 1, Kind: base.OpUpsert, Table: "t", Key: "k", Value: []byte("v")}
			for _, kind := range c.kinds {
				rec := &wal.Record{Kind: kind, Payload: base.AppendOpPayload(nil, op)}
				switch kind {
				case recCommit:
					rec.Txn, rec.Payload = 77, appendCommit(nil, 0)
				case recEpoch:
					rec.Payload = encodeEpoch(9)
				}
				tcx.log.AppendAssign(rec)
			}
			tcx.log.Force()
			tcx.Crash()
			logEnd := tcx.log.LastLSN()
			for i := 0; i < 2; i++ {
				if err := tcx.Recover(); err == nil || !tcx.NeedsRecovery() {
					t.Fatalf("recover over records of kinds %v = %v, down %v; want an error and the TC down", c.kinds, err, tcx.NeedsRecovery())
				}
			}
			if next := tcx.log.LastLSN(); next != logEnd {
				t.Fatalf("the refused recoveries appended LSNs %d..%d", logEnd+1, next)
			}
			if v, ok := dirty(dcs[0], "t", "k"); ok {
				t.Fatalf("the refused record's write reached the DC: %q", v)
			}
		})
	}
}

// stampRecorder passes every call on to its DC and records the timestamp of
// every logged operation it delivers, by LSN.
type stampRecorder struct {
	base.Service
	mu     sync.Mutex
	stamps map[base.LSN][]base.TS
	before func() // when set, runs once before a delivery is passed on
}

func (s *stampRecorder) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	s.mu.Lock()
	for _, op := range ops {
		if op.LSN != 0 {
			s.stamps[op.LSN] = append(s.stamps[op.LSN], op.TS)
		}
	}
	before := s.before
	s.before = nil
	s.mu.Unlock()
	if before != nil {
		before()
	}
	return s.Service.PerformBatch(ctx, ops)
}

// TestRedoStampsVersionedWritesFromTheirCommit: a versioned op record holds no
// timestamp, so redo stamps each write with its batch's commit record's. Three
// transactions — versioned, unversioned, versioned — commit, the last one
// crashing as its writes ship, after its force; Recover resends all three,
// and every write reaches the DC
// with exactly the timestamp its commit shipped it with: each versioned
// transaction's own, and none on the unversioned one's.
func TestRedoStampsVersionedWritesFromTheirCommit(t *testing.T) {
	d, err := dc.New(dc.Config{Name: "dc0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	rec := &stampRecorder{Service: d, stamps: map[base.LSN][]base.TS{}}
	tcx, err := New(Config{ID: 1}, []base.Service{rec}, placement.MustParse("t: dc=0"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	var xs []*Txn
	var firsts []base.LSN // each transaction's first op record
	for i, versioned := range []bool{true, false, true} {
		if i == 2 {
			rec.mu.Lock()
			rec.before = func() {
				tcx.Crash()
			}
			rec.mu.Unlock()
		}
		firsts = append(firsts, tcx.log.LastLSN()+1)
		x := tcx.Begin(context.Background(), TxnOptions{Versioned: versioned})
		for _, key := range []string{"a", "b"} {
			if err := x.Upsert("t", key, []byte(fmt.Sprint("v", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Commit(); (i == 2) != errors.Is(err, ErrCommitAmbiguous) {
			t.Fatalf("commit %d = %v", i, err)
		}
		xs = append(xs, x)
	}
	if xs[0].commitTS == 0 || xs[2].commitTS <= xs[0].commitTS || xs[1].commitTS != 0 {
		t.Fatalf("commit timestamps %d, %d, %d", xs[0].commitTS, xs[1].commitTS, xs[2].commitTS)
	}
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, x := range xs {
		for j := range 2 {
			lsn := firsts[i] + base.LSN(j)
			got := rec.stamps[lsn]
			if len(got) < 2 || slices.ContainsFunc(got, func(ts base.TS) bool { return ts != x.commitTS }) {
				t.Fatalf("transaction %d's write @%d was delivered stamped %v, want its commit's %d at the ship and the redo",
					i, lsn, got, x.commitTS)
			}
		}
	}
}

// refuseOnce answers the first batch of logged operations it is sent with
// CodeStaleEpoch — the fence of an incarnation its TC never met — without
// passing it on.
type refuseOnce struct {
	base.Service
	armed atomic.Bool
}

func (s *refuseOnce) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if !ops[0].Kind.IsWrite() || !s.armed.CompareAndSwap(true, false) {
		return s.Service.PerformBatch(ctx, ops)
	}
	results := make([]*base.Result, len(ops))
	for i := range results {
		results[i] = &base.Result{Code: base.CodeStaleEpoch}
	}
	return results
}

// TestFailedShipEndsTheIncarnation: a commit whose ship fails while its
// incarnation lives — DC 1 refuses the writes, DC 0 applied them — is
// ambiguous to its caller, and it ends the incarnation: the TC is down until
// Recover, which decides the outcome from the log. The batch was forced
// before the ship, so the transaction is a winner, and redo delivers the
// writes DC 1 refused, which the live TC never could.
func TestFailedShipEndsTheIncarnation(t *testing.T) {
	var dcs []*dc.DC
	for i, table := range []string{"t", "u"} {
		d, err := dc.New(dc.Config{Name: fmt.Sprintf("dc%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable(table); err != nil {
			t.Fatal(err)
		}
		dcs = append(dcs, d)
	}
	refuser := &refuseOnce{Service: dcs[1]}
	tcx, err := New(Config{ID: 1}, []base.Service{dcs[0], refuser}, placement.MustParse("t: dc=0; u: dc=1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	refuser.armed.Store(true)
	x := tcx.Begin(context.Background(), TxnOptions{})
	for _, table := range []string{"t", "u"} {
		for _, key := range []string{"a", "b"} {
			if err := x.Upsert(table, key, []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := x.Commit(); !errors.Is(err, ErrCommitAmbiguous) || !errors.Is(err, base.ErrStaleEpoch) {
		t.Fatalf("commit refused at DC 1 = %v, want an ambiguous ErrStaleEpoch", err)
	}
	if !tcx.NeedsRecovery() || x.inc.log.Live() {
		t.Fatal("the incarnation outlived its failed commit")
	}
	if err := tcx.RunTxnOnce(context.Background(), TxnOptions{}, func(*Txn) error { return nil }); !errors.Is(err, base.ErrUnavailable) {
		t.Fatalf("a transaction on the ended TC = %v, want ErrUnavailable", err)
	}
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, table := range []string{"t", "u"} {
		for _, key := range []string{"a", "b"} {
			if v, ok := dirty(dcs[i], table, key); !ok || v != "v" {
				t.Fatalf("%s/%s = %q %v after the restart, want v", table, key, v, ok)
			}
		}
	}
}
