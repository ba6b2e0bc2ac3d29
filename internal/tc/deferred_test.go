package tc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/lockmgr"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/wal"
)

// frame is one PerformBatch call: its size, and whether it carried point
// reads (a barrier's pre-read) or logged operations (writes, finalizes,
// CLRs) — every batch this TC builds is all one or all the other. It prints
// as "4r" or "4w".
type frame struct {
	n    int
	read bool
}

func (f frame) String() string {
	if f.read {
		return fmt.Sprint(f.n, "r")
	}
	return fmt.Sprint(f.n, "w")
}

// countingService counts the calls one DC receives from a TC's transactions:
// how many frames a transaction costs, and of what. Probes and range reads
// pass through uncounted.
type countingService struct {
	base.Service
	mu      sync.Mutex
	single  int      // Perform calls carrying a logged operation
	reads   int      // Perform calls carrying a point read
	batches []frame  // PerformBatch calls in arrival order
	marks   []string // watermark calls in arrival order: "eosl 7", "lwm 7", "safe"
	// hook, when set, runs before a batch of reads ("read"), a delivery of
	// logged operations ("write", whether it came as a Perform or a
	// PerformBatch), a single unlogged operation ("point-read", "probe",
	// "range-read") or a restart control call ("begin-restart",
	// "end-restart") is passed on.
	hook func(call string)
}

func (s *countingService) setHook(h func(call string)) {
	s.mu.Lock()
	s.hook = h
	s.mu.Unlock()
}

func (s *countingService) runHook(call string) {
	s.mu.Lock()
	h := s.hook
	s.mu.Unlock()
	if h != nil {
		h(call)
	}
}

func (s *countingService) BeginRestart(ctx context.Context, tc base.TCID, epoch base.Epoch, stable base.LSN) error {
	s.runHook("begin-restart")
	return s.Service.BeginRestart(ctx, tc, epoch, stable)
}

func (s *countingService) EndRestart(ctx context.Context, tc base.TCID, epoch base.Epoch) error {
	s.runHook("end-restart")
	return s.Service.EndRestart(ctx, tc, epoch)
}

func (s *countingService) mark(m string) {
	s.mu.Lock()
	s.marks = append(s.marks, m)
	s.mu.Unlock()
}

func (s *countingService) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	s.mark(fmt.Sprint("eosl ", eosl))
	s.Service.EndOfStableLog(tc, epoch, eosl)
}

func (s *countingService) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	s.mark(fmt.Sprint("lwm ", lwm))
	s.Service.LowWaterMark(tc, epoch, lwm)
}

func (s *countingService) SafeTS(tc base.TCID, epoch base.Epoch, safe, horizon base.TS) {
	s.mark("safe")
	s.Service.SafeTS(tc, epoch, safe, horizon)
}

// takeMarks returns and resets the watermark calls seen.
func (s *countingService) takeMarks() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	marks := s.marks
	s.marks = nil
	return marks
}

func (s *countingService) Perform(ctx context.Context, op *base.Op) *base.Result {
	s.mu.Lock()
	switch {
	case op.Kind.IsWrite():
		s.single++
	case op.Kind == base.OpRead:
		s.reads++
	}
	s.mu.Unlock()
	switch {
	case op.Kind.IsWrite():
		s.runHook("write")
	case op.Kind == base.OpRead:
		s.runHook("point-read")
	case op.Kind == base.OpScanProbe:
		s.runHook("probe")
	case op.Kind == base.OpRangeRead:
		s.runHook("range-read")
	}
	return s.Service.Perform(ctx, op)
}

func (s *countingService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	f := frame{n: len(ops), read: ops[0].Kind == base.OpRead}
	s.mu.Lock()
	s.batches = append(s.batches, f)
	s.mu.Unlock()
	if f.read {
		s.runHook("read")
	} else {
		s.runHook("write")
	}
	return s.Service.PerformBatch(ctx, ops)
}

// take returns and resets the counts.
func (s *countingService) take() (single, reads int, batches []frame) {
	s.mu.Lock()
	defer s.mu.Unlock()
	single, reads, batches = s.single, s.reads, s.batches
	s.single, s.reads, s.batches = 0, 0, nil
	return single, reads, batches
}

// only returns the read frames, or the others, in order.
func only(batches []frame, read bool) []frame {
	var out []frame
	for _, f := range batches {
		if f.read == read {
			out = append(out, f)
		}
	}
	return out
}

// ops returns the number of logged operations delivered, and resets.
func (s *countingService) ops() int {
	n, _, batches := s.take()
	for _, f := range only(batches, false) {
		n += f.n
	}
	return n
}

// quiet fails the test if the DC behind s has heard anything at all.
func (s *countingService) quiet(t *testing.T, when string) {
	t.Helper()
	if single, reads, batches := s.take(); single != 0 || reads != 0 || len(batches) != 0 {
		t.Fatalf("%s: %d single sends, %d single reads and batches %v reached a DC", when, single, reads, batches)
	}
}

// txnRecords returns the op and compensation records transaction id has in
// the log, forcing it first.
func txnRecords(tcx *TC, id base.TxnID) (ops, clrs []*wal.Record) {
	tcx.log.Force()
	for _, rec := range tcx.log.Scan(0) {
		if rec.Txn != id {
			continue
		}
		switch rec.Kind {
		case recOp:
			ops = append(ops, rec)
		case recCLR:
			clrs = append(clrs, rec)
		}
	}
	return ops, clrs
}

// newCountedPair wires one TC to two DCs through counting stubs: table "t"
// lives on DC 0, table "u" on DC 1.
func newCountedPair(t *testing.T) (*TC, []*dc.DC, []*countingService) {
	t.Helper()
	return newCountedPairCfg(t, Config{ID: 1})
}

func newCountedPairCfg(t *testing.T, cfg Config) (*TC, []*dc.DC, []*countingService) {
	t.Helper()
	var dcs []*dc.DC
	var stubs []*countingService
	var svcs []base.Service
	for i, table := range []string{"t", "u"} {
		d, err := dc.New(dc.Config{Name: fmt.Sprintf("dc%d", i), CheckConflicts: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable(table); err != nil {
			t.Fatal(err)
		}
		stub := &countingService{Service: d}
		dcs, stubs, svcs = append(dcs, d), append(stubs, stub), append(svcs, stub)
	}
	tcx, err := New(cfg, svcs, placement.MustParse("t: dc=0; u: dc=1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	return tcx, dcs, stubs
}

// dirty reads key at the DC itself, bypassing every TC.
func dirty(d *dc.DC, table, key string) (string, bool) {
	r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: table, Key: key,
		Flavor: base.ReadDirty})
	return string(r.Value), r.Found
}

func TestCommitShipsOneBatchPerDC(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	const n = 4
	for _, versioned := range []bool{false, true} {
		logEnd := tcx.log.NextLSN()
		x := tcx.Begin(context.Background(), TxnOptions{Versioned: versioned})
		for i := 0; i < n; i++ {
			for _, table := range []string{"t", "u"} {
				if err := x.Upsert(table, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%v", versioned))); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Before the barrier the transaction is a queue and a cache: no DC
		// has heard of it, it holds no LSN — logged or reserved — and so
		// the low-water mark is not waiting for it.
		for _, s := range stubs {
			s.quiet(t, fmt.Sprintf("versioned=%v, before any barrier", versioned))
		}
		if next := tcx.log.NextLSN(); next != logEnd || x.lastLSN != 0 {
			t.Fatalf("versioned=%v: LSNs %d..%d taken before any barrier (last logged %d)", versioned, logEnd, next-1, x.lastLSN)
		}
		if lwm := tcx.inc.Load().acks.LWM(); lwm != logEnd-1 {
			t.Fatalf("versioned=%v: low-water mark %d trails an idle writer (log ends at %d)", versioned, lwm, logEnd-1)
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		if lwm := tcx.inc.Load().acks.LWM(); lwm < x.lastLSN {
			t.Fatalf("versioned=%v: low-water mark %d below the committed transaction's last LSN %d", versioned, lwm, x.lastLSN)
		}
		want := "[4r 4w]" // the priors, then the writes
		if versioned {
			want = "[4w 4w]" // the writes, then their finalizes
		}
		for i, s := range stubs {
			if single, reads, batches := s.take(); single != 0 || reads != 0 || fmt.Sprint(batches) != want {
				t.Fatalf("versioned=%v DC %d: %d single sends, %d single reads and batches %v, want 0, 0 and %v",
					versioned, i, single, reads, batches, want)
			}
		}
		for i, table := range []string{"t", "u"} {
			for k := 0; k < n; k++ {
				if v, ok := dirty(dcs[i], table, fmt.Sprintf("k%d", k)); !ok || v != fmt.Sprintf("v%v", versioned) {
					t.Fatalf("versioned=%v %s/k%d at the DC after commit: %q %v", versioned, table, k, v, ok)
				}
			}
		}
	}
}

// TestCommitPublishesTwoMarksPerDC: a commit tells every DC what its force
// and its acks moved — the end of the stable log and the low-water mark, both
// at its commit record — and nothing else; the safe timestamp is the tick's.
// A checkpoint, whose control call needs the marks at the DC, still makes all
// three calls, the safe timestamp (the one a transport sends on) last.
func TestCommitPublishesTwoMarksPerDC(t *testing.T) {
	tcx, _, stubs := newCountedPair(t)
	// Stop the tick (and only it), so that every call counted is the
	// commit's own.
	tcx.stopOnce.Do(func() { close(tcx.stopCh) })
	tcx.wg.Wait()
	for _, s := range stubs {
		s.takeMarks()
	}
	x := tcx.Begin(context.Background(), TxnOptions{})
	for i := 0; i < 4; i++ {
		if err := x.Upsert("t", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	cLSN := tcx.log.NextLSN() - 1
	want := fmt.Sprintf("[eosl %d lwm %d]", cLSN, cLSN)
	for i, s := range stubs {
		if got := fmt.Sprint(s.takeMarks()); got != want {
			t.Fatalf("DC %d heard %v from the commit, want %v", i, got, want)
		}
	}
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	want = fmt.Sprintf("[eosl %d lwm %d safe]", cLSN, cLSN)
	for i, s := range stubs {
		if got := fmt.Sprint(s.takeMarks()); got != want {
			t.Fatalf("DC %d heard %v from the checkpoint, want %v", i, got, want)
		}
	}
}

// TestSameKeyPriors: a key written more than once between barriers is
// pre-read once, for its first write; each op record carries the value its
// own write replaced, so rollback walks back to the original.
func TestSameKeyPriors(t *testing.T) {
	for _, original := range []string{"", "orig"} {
		tcx, dcs, stubs := newCountedPair(t)
		if original != "" {
			if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
				return x.Insert("t", "k", []byte(original))
			}); err != nil {
				t.Fatal(err)
			}
			stubs[0].take()
		}
		x := tcx.Begin(context.Background(), TxnOptions{})
		for _, v := range []string{"v1", "v2"} {
			if err := x.Upsert("t", "k", []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.flush(); err != nil {
			t.Fatal(err)
		}
		if single, reads, batches := stubs[0].take(); single != 0 || reads != 0 || fmt.Sprint(batches) != "[1r 2w]" {
			t.Fatalf("original=%q: %d single sends, %d single reads and batches %v, want one pre-read and one batch of 2", original, single, reads, batches)
		}
		ops, _ := txnRecords(tcx, x.id)
		if len(ops) != 2 {
			t.Fatalf("original=%q: %d op records, want 2", original, len(ops))
		}
		for i, want := range []string{original, "v1"} {
			_, prior, found, err := decodeOpPayload(ops[i].Payload)
			if err != nil {
				t.Fatal(err)
			}
			if string(prior) != want || found != (want != "") {
				t.Fatalf("original=%q: op record %d logs prior %q %v, want %q", original, i, prior, found, want)
			}
		}
		if err := x.Abort(); err != nil {
			t.Fatal(err)
		}
		if v, ok := dirty(dcs[0], "t", "k"); v != original || ok != (original != "") {
			t.Fatalf("original=%q: abort left %q %v at the DC", original, v, ok)
		}
	}
}

// TestCacheAnswersThePrior: a key the transaction has read needs no pre-read.
func TestCacheAnswersThePrior(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "k", []byte("orig"))
	}); err != nil {
		t.Fatal(err)
	}
	stubs[0].take()
	x := tcx.Begin(context.Background(), TxnOptions{})
	if v, ok, err := x.Read("t", "k"); err != nil || !ok || string(v) != "orig" {
		t.Fatalf("read: %q %v %v", v, ok, err)
	}
	if err := x.Upsert("t", "k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := x.flush(); err != nil {
		t.Fatal(err)
	}
	if single, reads, batches := stubs[0].take(); single != 1 || reads != 1 || len(batches) != 0 {
		t.Fatalf("%d single sends, %d single reads and batches %v, want the read, the write and no pre-read", single, reads, batches)
	}
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	if v, ok := dirty(dcs[0], "t", "k"); !ok || v != "orig" {
		t.Fatalf("abort left %q %v at the DC", v, ok)
	}
}

// TestExistenceAnswersComeFromTheCall: Insert, Update and Delete report
// ErrDuplicate/ErrNotFound when they are called — against the DC, and
// against this transaction's own queued writes — and a refused write is not
// queued.
func TestExistenceAnswersComeFromTheCall(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "there", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	stubs[0].take()
	x := tcx.Begin(context.Background(), TxnOptions{})
	if err := x.Insert("t", "there", []byte("again")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("insert of a committed key: %v", err)
	}
	if err := x.Update("t", "missing", []byte("v")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update of an absent key: %v", err)
	}
	if err := x.Delete("t", "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete of an absent key: %v", err)
	}
	if len(x.queue) != 0 {
		t.Fatalf("%d refused writes were queued", len(x.queue))
	}
	if err := x.Upsert("t", "queued", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := x.Insert("t", "queued", []byte("again")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("insert over a queued upsert: %v", err)
	}
	if err := x.Delete("t", "there"); err != nil {
		t.Fatal(err)
	}
	if err := x.Update("t", "there", []byte("v")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update over a queued delete: %v", err)
	}
	if got := stubs[0].ops(); got != 0 || x.lastLSN != 0 {
		t.Fatalf("%d logged ops delivered and LSN %d logged before any barrier", got, x.lastLSN)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := dirty(dcs[0], "t", "there"); ok {
		t.Fatal("deleted key survived the commit")
	}
	if v, ok := dirty(dcs[0], "t", "queued"); !ok || v != "v" {
		t.Fatalf("upserted key after the commit: %q %v", v, ok)
	}
}

func TestSameKeyWritesLandInOrder(t *testing.T) {
	tcx, dcs, _ := newCountedPair(t)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "gone", []byte("old"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		// Every pre-check after the first write is answered by the cache:
		// the DC has seen none of these yet.
		if err := x.Upsert("t", "k", []byte("v1")); err != nil {
			return err
		}
		if err := x.Delete("t", "k"); err != nil {
			return err
		}
		if err := x.Insert("t", "k", []byte("v3")); err != nil {
			return fmt.Errorf("insert after own unsent delete: %w", err)
		}
		if err := x.Update("t", "gone", []byte("new")); err != nil {
			return err
		}
		if err := x.Delete("t", "gone"); err != nil {
			return err
		}
		if err := x.Delete("t", "gone"); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("second delete of an unsent delete: %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v, ok := dirty(dcs[0], "t", "k"); !ok || v != "v3" {
		t.Fatalf("upsert, delete, insert of one key left %q %v at the DC", v, ok)
	}
	if v, ok := dirty(dcs[0], "t", "gone"); ok {
		t.Fatalf("update, delete of one key left %q at the DC", v)
	}
}

func TestScanReadsUnsentWrites(t *testing.T) {
	tcx, _, stubs := newCountedPair(t)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		for i := 0; i < 8; i++ {
			if err := x.Insert("t", fmt.Sprintf("s%03d", i), []byte("v")); err != nil {
				return err
			}
		}
		if err := x.Delete("t", "s003"); err != nil {
			return err
		}
		keys, _, err := x.Scan("t", "s000", "s999", 0)
		if err != nil {
			return err
		}
		if len(keys) != 7 {
			return fmt.Errorf("scan sees %d keys, want 7 own writes: %v", len(keys), keys)
		}
		if _, _, batches := stubs[0].take(); fmt.Sprint(batches) != "[9w]" {
			return fmt.Errorf("the scan's barrier shipped batches %v, want one of 9", batches)
		}
		// ...and so does an unlocked read, which bypasses the cache.
		if err := x.Upsert("t", "s003", []byte("back")); err != nil {
			return err
		}
		if v, ok, err := x.ReadDirty("t", "s003"); err != nil || !ok || string(v) != "back" {
			return fmt.Errorf("ReadDirty of an unsent write: %q %v %v", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAbortWithUnsentWrites: writes that never crossed a barrier are dropped
// by Abort — nothing shipped, nothing inverted, nothing logged, not even an
// abort record — while writes that did cross one are rolled back through
// the compensation chain.
func TestAbortWithUnsentWrites(t *testing.T) {
	for _, barrier := range []bool{false, true} {
		tcx, dcs, stubs := newCountedPair(t)
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", "base", []byte("committed"))
		}); err != nil {
			t.Fatal(err)
		}
		for _, s := range stubs {
			s.take()
		}
		x := tcx.Begin(context.Background(), TxnOptions{})
		if err := x.Update("t", "base", []byte("scribble")); err != nil {
			t.Fatal(err)
		}
		if err := x.Insert("u", "tmp", []byte("temp")); err != nil {
			t.Fatal(err)
		}
		if err := x.Insert("t", "tmp", []byte("temp")); err != nil {
			t.Fatal(err)
		}
		wantOps, wantCLRs := 0, 0
		if barrier {
			if keys, _, err := x.Scan("t", "a", "z", 0); err != nil || len(keys) != 2 {
				t.Fatalf("scan past the barrier: %v %v", keys, err)
			}
			// Queued behind the barrier: dropped with the abort.
			if err := x.Insert("t", "late", []byte("temp")); err != nil {
				t.Fatal(err)
			}
			wantOps, wantCLRs = 3, 3
		}
		logEnd := tcx.log.NextLSN()
		for _, s := range stubs {
			s.take()
		}
		if err := x.Abort(); err != nil {
			t.Fatal(err)
		}
		if !barrier {
			for i, s := range stubs {
				s.quiet(t, fmt.Sprintf("DC %d, abort before any barrier", i))
			}
			if next := tcx.log.NextLSN(); next != logEnd {
				t.Fatalf("abort before any barrier took LSNs %d..%d", logEnd, next-1)
			}
			if got := len(tcx.inc.Load().locks.Held(x.id)); got != 0 {
				t.Fatalf("abort left %d locks held", got)
			}
		}
		if v, ok := dirty(dcs[0], "t", "base"); !ok || v != "committed" {
			t.Fatalf("barrier=%v: aborted update left %q %v at the DC", barrier, v, ok)
		}
		for _, at := range []struct {
			dc         int
			table, key string
		}{{0, "t", "tmp"}, {1, "u", "tmp"}, {0, "t", "late"}} {
			if v, ok := dirty(dcs[at.dc], at.table, at.key); ok {
				t.Fatalf("barrier=%v: aborted insert left %s/%s=%q at the DC", barrier, at.table, at.key, v)
			}
		}
		// One CLR per forward record, each pointing past the record it
		// compensates, newest first.
		ops, clrs := txnRecords(tcx, x.id)
		if len(ops) != wantOps || len(clrs) != wantCLRs || tcx.Stats().UndoOps != uint64(wantCLRs) {
			t.Fatalf("barrier=%v: %d op records, %d CLRs, %d undo ops; want %d, %d, %d",
				barrier, len(ops), len(clrs), tcx.Stats().UndoOps, wantOps, wantCLRs, wantCLRs)
		}
		for i, clr := range clrs {
			undone := ops[len(ops)-1-i]
			if clr.NextUndo != undone.Prev {
				t.Fatalf("CLR %d: NextUndo %d, want %d (the record before op @%d)", i, clr.NextUndo, undone.Prev, undone.LSN)
			}
		}
	}
}

// TestTCCrashWithUnsentOps: a logged operation that never left the TC is
// the state "crash between append and ship" inside a barrier. Restart
// delivers it when its record is stable — and then inverts it unless a
// commit record is stable too — and never hears of it when it is not. A
// crash earlier in the barrier, between the pre-read and the append, leaves
// restart nothing of the transaction at all.
func TestTCCrashWithUnsentOps(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "base", []byte("committed"))
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range stubs {
		s.take()
	}
	// write runs a transaction's barrier up to and including the append:
	// the records are in the log and queued for their DCs, not shipped.
	write := func(tag string) *Txn {
		x := tcx.Begin(context.Background(), TxnOptions{})
		if err := x.Upsert("t", tag, []byte(tag)); err != nil {
			t.Fatal(err)
		}
		if err := x.Upsert("u", tag, []byte(tag)); err != nil {
			t.Fatal(err)
		}
		if err := x.fetchPriors(); err != nil {
			t.Fatal(err)
		}
		if tag != "never-logged" {
			_ = x.appendQueued()
		}
		return x
	}
	// The winner's commit record is appended by hand: Commit itself would
	// ship the writes first.
	winner := write("winner")
	tcx.log.AppendAssign(&wal.Record{Kind: recCommit, Txn: winner.id, Prev: winner.lastLSN,
		Payload: appendCommit(nil, nil, 0)})
	stableLoser := write("stable-loser")
	neverLogged := write("never-logged")
	tcx.log.Force()
	write("lost-loser") // records in the unforced tail
	for i, s := range stubs {
		if got := s.ops(); got != 0 {
			t.Fatalf("%d logged ops reached DC %d before the crash", got, i)
		}
	}
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	for i, table := range []string{"t", "u"} {
		if v, ok := dirty(dcs[i], table, "winner"); !ok || v != "winner" {
			t.Fatalf("%s/winner after restart: %q %v", table, v, ok)
		}
		for _, tag := range []string{"stable-loser", "never-logged", "lost-loser"} {
			if v, ok := dirty(dcs[i], table, tag); ok {
				t.Fatalf("%s/%s survived restart as %q", table, tag, v)
			}
		}
	}
	if ops, clrs := txnRecords(tcx, neverLogged.id); len(ops) != 0 || len(clrs) != 0 {
		t.Fatalf("a transaction that crashed between pre-read and append has %d op records and %d CLRs", len(ops), len(clrs))
	}
	// An orphan that reaches a barrier after the restart dies there: nothing
	// of its queue, logged or not, leaves.
	for _, s := range stubs {
		s.take()
	}
	for _, orphan := range []*Txn{stableLoser, neverLogged} {
		if err := orphan.Commit(); !errors.Is(err, ErrTCStopped) {
			t.Fatalf("orphan's commit = %v, want ErrTCStopped", err)
		}
	}
	for i, s := range stubs {
		s.quiet(t, fmt.Sprintf("DC %d, orphans' commits", i))
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		if v, ok, err := x.Read("t", "base"); err != nil || !ok || string(v) != "committed" {
			return fmt.Errorf("committed data after restart: %q %v %v", v, ok, err)
		}
		return x.Insert("t", "after", []byte("ok"))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOrphanDiesAtEveryBarrier: a transaction begun before a TC crash that
// reaches Commit, Abort or a scan after the restart holds locks that died
// with the old lock table and an id the new incarnation may hand out again.
// It must not read, log or ship anything more — whatever it logged is
// restart's to undo — and reports ErrTCStopped. The same holds when the crash
// and the restart land inside the commit barrier itself: the straddler takes
// no LSN of its successor's log, and a successor transaction — handed the
// straddler's id again wherever the stable log allows it — keeps its lock and
// its table entry when the straddler finishes.
func TestOrphanDiesAtEveryBarrier(t *testing.T) {
	ends := []struct {
		name string
		call func(*Txn) error
	}{
		{"commit", (*Txn).Commit},
		{"abort", (*Txn).Abort},
		{"scan", func(x *Txn) error {
			_, _, err := x.Scan("t", "a", "z", 0)
			return err
		}},
	}
	for _, end := range ends {
		for _, acked := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/acked=%v", end.name, acked), func(t *testing.T) {
				tcx, dcs, stubs := newCountedPair(t)
				x := tcx.Begin(context.Background(), TxnOptions{})
				if err := x.Upsert("t", "k", []byte("v")); err != nil {
					t.Fatal(err)
				}
				if err := x.Upsert("u", "k", []byte("v")); err != nil {
					t.Fatal(err)
				}
				if acked {
					// Logged, shipped, acknowledged and stable: restart
					// finds a loser and rolls it back itself.
					if err := x.flush(); err != nil {
						t.Fatal(err)
					}
					tcx.log.Force()
				}
				tcx.Crash()
				if err := tcx.Recover(); err != nil {
					t.Fatal(err)
				}
				logEnd := tcx.log.NextLSN()
				for _, s := range stubs {
					s.take()
				}
				if err := end.call(x); !errors.Is(err, ErrTCStopped) {
					t.Fatalf("orphan's %s = %v, want ErrTCStopped", end.name, err)
				}
				if next := tcx.log.NextLSN(); next != logEnd {
					t.Fatalf("orphan's %s took LSNs %d..%d of the new incarnation's log", end.name, logEnd, next-1)
				}
				for i, s := range stubs {
					s.quiet(t, fmt.Sprintf("DC %d, orphan's %s", i, end.name))
				}
				if err := x.Abort(); err != nil {
					t.Fatalf("abort of a dead orphan = %v, want nil", err)
				}
				for i, table := range []string{"t", "u"} {
					if v, ok := dirty(dcs[i], table, "k"); ok {
						t.Fatalf("%s/k = %q after the restart rolled the orphan back", table, v)
					}
				}
			})
		}
	}

	// A locked read, a scan's probe or its range read that is at the DC when
	// the TC crashes and restarts comes back refused by the epoch fence; one
	// that starts after the crash is never sent. Either way the transaction
	// dies a transient death, and not of the fence's permanent ErrStaleEpoch.
	reads := []struct {
		name, at string // the stub call the crash and restart land in
		call     func(*Txn) error
	}{
		{"read", "point-read", func(x *Txn) error {
			_, _, err := x.Read("t", "other")
			return err
		}},
		{"scan-probe", "probe", ends[2].call},
		{"scan-range", "range-read", ends[2].call},
		{"read-dirty", "point-read", func(x *Txn) error {
			_, _, err := x.ReadDirty("t", "other")
			return err
		}},
	}
	for _, r := range reads {
		t.Run("straddle/"+r.name, func(t *testing.T) {
			tcx, _, stubs := newCountedPair(t)
			if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
				return x.Insert("t", "k", []byte("v")) // something for the scan to lock
			}); err != nil {
				t.Fatal(err)
			}
			x := tcx.Begin(context.Background(), TxnOptions{})
			restarts := 0
			stubs[0].setHook(func(call string) {
				if call == r.at && restarts == 0 {
					restarts++
					tcx.Crash()
					if err := tcx.Recover(); err != nil {
						t.Error(err)
					}
				}
			})
			err := r.call(x)
			if restarts != 1 {
				t.Fatalf("the TC was never restarted under the %s", r.name)
			}
			if !errors.Is(err, ErrTCStopped) || errors.Is(err, base.ErrStaleEpoch) || !base.IsTransient(err) {
				t.Fatalf("straddling %s = %v, want a transient ErrTCStopped", r.name, err)
			}
			logEnd := tcx.log.NextLSN()
			if err := r.call(x); !errors.Is(err, ErrTCStopped) {
				t.Fatalf("dead orphan's %s = %v, want ErrTCStopped", r.name, err)
			}
			if next := tcx.log.NextLSN(); next != logEnd {
				t.Fatalf("the dead orphan took LSNs %d..%d of the new incarnation's log", logEnd, next-1)
			}
			if err := x.Abort(); err != nil {
				t.Fatalf("abort of a dead orphan = %v, want nil", err)
			}
		})
	}

	// A barrier's pre-read is an unlogged operation like those, one batch per
	// DC: DC 0 has answered its batch and DC 1's is at the DC when the TC
	// crashes and restarts. Nothing was logged, so the commit fails plainly,
	// and nothing of the orphan — record, logged operation, lock — is left.
	t.Run("straddle/pre-read", func(t *testing.T) {
		tcx, dcs, stubs := newCountedPair(t)
		x := tcx.Begin(context.Background(), TxnOptions{})
		for _, table := range []string{"t", "u"} {
			if err := x.Upsert(table, "k", []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		var logEnd base.LSN
		restarts := 0
		stubs[1].setHook(func(call string) {
			if call == "read" && restarts == 0 {
				restarts++
				tcx.Crash()
				if err := tcx.Recover(); err != nil {
					t.Error(err)
				}
				logEnd = tcx.log.NextLSN()
			}
		})
		err := x.Commit()
		if restarts != 1 {
			t.Fatal("the TC was never restarted under the pre-read")
		}
		if !errors.Is(err, ErrTCStopped) || errors.Is(err, ErrCommitAmbiguous) || errors.Is(err, base.ErrStaleEpoch) {
			t.Fatalf("commit straddling its pre-read = %v, want a plain ErrTCStopped", err)
		}
		if next := tcx.log.NextLSN(); next != logEnd {
			t.Fatalf("the straddler took LSNs %d..%d of the new incarnation's log", logEnd, next-1)
		}
		if ops, clrs := txnRecords(tcx, x.id); len(ops) != 0 || len(clrs) != 0 {
			t.Fatalf("the successor's log holds %d op records and %d CLRs of the orphan", len(ops), len(clrs))
		}
		for i, s := range stubs {
			// Each DC heard its pre-read, DC 0 to the end, and nothing else.
			if single, reads, batches := s.take(); single != 0 || reads != 0 || fmt.Sprint(batches) != "[1r]" {
				t.Fatalf("DC %d: %d single sends, %d single reads and batches %v, want 0, 0 and [1r]", i, single, reads, batches)
			}
		}
		if held := tcx.inc.Load().locks.Held(x.id); len(held) != 0 {
			t.Fatalf("the orphan holds %v in its successor's lock table", held)
		}
		if err := x.Abort(); err != nil {
			t.Fatalf("abort of a dead orphan = %v, want nil", err)
		}
		for i, table := range []string{"t", "u"} {
			if v, ok := dirty(dcs[i], table, "k"); ok {
				t.Fatalf("%s/k = %q: a write of the orphan reached the DC", table, v)
			}
		}
	})

	straddles := []struct {
		name      string
		cfg       Config
		versioned bool
		// The TC crashes and restarts from inside the nth delivery of logged
		// operations to DC dc; nth 0: from the test's goroutine, once that DC
		// has the writes and the commit record is appended behind them.
		dc, nth int
		// appended: the commit record was, so the outcome is ambiguous;
		// winner: it was stable too, so restart finishes the commit.
		appended, winner bool
	}{
		// DC 0 has acknowledged the write batch, DC 1's is on its way.
		{name: "write-batch", cfg: Config{ID: 1}, dc: 1, nth: 1},
		// The commit record is stable, the first finalize is on its way.
		{name: "finalize-batch", cfg: Config{ID: 1}, versioned: true, dc: 0, nth: 2, appended: true, winner: true},
		// The commit record is appended and its force asleep: the parent's
		// "ForceTo beyond fully-stable log end" panic.
		{name: "force", cfg: Config{ID: 1, ForceDelay: 50 * time.Millisecond}, dc: 1, appended: true},
	}
	for _, s := range straddles {
		t.Run("straddle/"+s.name, func(t *testing.T) {
			tcx, dcs, stubs := newCountedPairCfg(t, s.cfg)
			x := tcx.Begin(context.Background(), TxnOptions{Versioned: s.versioned})
			for _, table := range []string{"t", "u"} {
				if err := x.Upsert(table, "k", []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			// restart crashes the TC under x, restarts it, and leaves a
			// successor transaction y in flight on the new incarnation.
			var y *Txn
			var logEnd base.LSN
			restart := func() {
				tcx.Crash()
				if err := tcx.Recover(); err != nil {
					t.Error(err)
					return
				}
				y = tcx.Begin(context.Background(), TxnOptions{})
				if err := y.Upsert("t", "successor", []byte("y")); err != nil {
					t.Error(err)
				}
				logEnd = tcx.log.NextLSN()
			}
			deliveries := 0
			shipped := make(chan base.LSN, 1)
			stubs[s.dc].setHook(func(call string) {
				if call != "write" {
					return
				}
				switch deliveries++; {
				case deliveries == s.nth:
					restart()
				case deliveries == 1 && s.nth == 0:
					shipped <- tcx.log.LastLSN()
				}
			})
			done := make(chan error, 1)
			go func() { done <- x.Commit() }()
			if s.nth == 0 {
				for opEnd := <-shipped; tcx.log.LastLSN() <= opEnd; {
					runtime.Gosched()
				}
				restart()
			}
			err := <-done
			if !errors.Is(err, ErrTCStopped) || errors.Is(err, ErrCommitAmbiguous) != s.appended {
				t.Fatalf("straddling commit = %v, want ErrTCStopped, ambiguous %v", err, s.appended)
			}
			if y == nil {
				t.Fatal("the TC was never restarted under the commit")
			}
			if next := tcx.log.NextLSN(); next != logEnd {
				t.Fatalf("the straddler took LSNs %d..%d of the new incarnation's log", logEnd, next-1)
			}
			// With nothing of x in the stable log, restart hands its id out again.
			if !s.winner && y.id != x.id {
				t.Fatalf("successor has id %d, straddler %d; test vacuous", y.id, x.id)
			}
			inc := tcx.inc.Load()
			if got := inc.locks.Held(y.id)[lockmgr.KeyRes("t", "successor")]; got != lockmgr.X {
				t.Fatalf("the straddler's finish left successor %d holding %v on its key, want X", y.id, got)
			}
			inc.mu.Lock()
			entry := inc.txns[y.id]
			inc.mu.Unlock()
			if entry != y {
				t.Fatalf("the straddler's finish dropped successor %d from the transaction table", y.id)
			}
			if err := y.Commit(); err != nil {
				t.Fatal(err)
			}
			for i, table := range []string{"t", "u"} {
				if v, ok := dirty(dcs[i], table, "k"); ok != s.winner || (ok && v != "v") {
					t.Fatalf("%s/k = %q %v after the restart, want found=%v", table, v, ok, s.winner)
				}
			}
		})
	}
}

// TestCancelledPreReadIsACleanAbort: the barrier's pre-read is the last
// cancellation point of a write transaction. Cancelled there, nothing has
// been logged: the commit fails plainly (not ambiguously), the locks are
// released, and the barrier took no LSN, so checkpoints have nothing of it to
// wait for.
func TestCancelledPreReadIsACleanAbort(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	stubs[1].setHook(func(call string) { // DC 0 answers its pre-read, DC 1's is abandoned
		if call == "read" {
			cancel()
		}
	})
	x := tcx.Begin(ctx, TxnOptions{})
	for _, table := range []string{"t", "u"} {
		for i := 0; i < 3; i++ {
			if err := x.Upsert(table, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	logEnd := tcx.log.NextLSN()
	err := x.Commit()
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("commit error %v does not carry ErrCancelled + context.Canceled", err)
	}
	if errors.Is(err, ErrCommitAmbiguous) {
		t.Fatalf("commit error %v is ambiguous though nothing was logged", err)
	}
	if ops, clrs := txnRecords(tcx, x.id); len(ops) != 0 || len(clrs) != 0 || x.lastLSN != 0 {
		t.Fatalf("cancelled before the append, yet %d op records, %d CLRs, last LSN %d", len(ops), len(clrs), x.lastLSN)
	}
	for i, s := range stubs {
		if got := s.ops(); got != 0 {
			t.Fatalf("%d logged ops reached DC %d", got, i)
		}
	}
	if got := len(tcx.inc.Load().locks.Held(x.id)); got != 0 {
		t.Fatalf("clean abort left %d locks held", got)
	}
	// The cancelled barrier took no LSN, answered or abandoned.
	if next := tcx.log.NextLSN(); next != logEnd {
		t.Fatalf("the cancelled barrier took LSNs %d..%d", logEnd, next-1)
	}
	before := tcx.RSSP()
	if rssp, err := tcx.Checkpoint(context.Background()); err != nil || rssp <= before {
		t.Fatalf("checkpoint after the cancelled barrier: rssp %d -> %d, %v", before, rssp, err)
	}
	if _, ok := dirty(dcs[0], "t", "k0"); ok {
		t.Fatal("a write of the cancelled transaction reached the DC")
	}
}

// TestOnlyRecordsTakeLSNs: an LSN is the request ID of a logged operation and
// nothing else. Whatever a transaction reads on the way — under a lock, in a
// scan's probe and range read, unlocked, for an existence check, for the undo
// images of a barrier, answered, cancelled or refused — the TC-log's LSN space
// stays dense in its records, and the low-water mark, which no read ever holds
// back, ends at the last of them.
func TestOnlyRecordsTakeLSNs(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	bg := context.Background()
	if err := tcx.RunTxn(bg, TxnOptions{}, func(x *Txn) error {
		if err := x.Upsert("t", "a", []byte("v")); err != nil {
			return err
		}
		return x.Upsert("t", "b", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	x := tcx.Begin(bg, TxnOptions{})
	if _, ok, err := x.Read("t", "a"); err != nil || !ok { // locked read
		t.Fatalf("read: %v %v", ok, err)
	}
	if err := x.Insert("t", "cold", []byte("v")); err != nil { // existence read
		t.Fatal(err)
	}
	if keys, _, err := x.Scan("t", "a", "z", 0); err != nil || len(keys) != 3 { // barrier, probe, range read
		t.Fatalf("scan: %v %v", keys, err)
	}
	if _, ok, err := x.ReadCommitted("t", "b"); err != nil || !ok {
		t.Fatalf("read committed: %v %v", ok, err)
	}
	for _, table := range []string{"t", "u"} { // pre-read at the commit barrier, one per DC
		if err := x.Upsert(table, "upserted", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Refused: DC 1 is down.
	dcs[1].Crash()
	if _, _, err := x.Read("u", "k"); !errors.Is(err, base.ErrUnavailable) {
		t.Fatalf("read at a DC that is down = %v, want ErrUnavailable", err)
	}
	if err := dcs[1].Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RecoverDC(1); err != nil {
		t.Fatal(err)
	}
	// Cancelled mid-call: a transaction of its own, whose context that ends.
	ctx, cancel := context.WithCancel(bg)
	stubs[0].setHook(func(call string) {
		if call == "point-read" {
			cancel()
		}
	})
	y := tcx.Begin(ctx, TxnOptions{})
	if _, _, err := y.Read("t", "b"); !errors.Is(err, base.ErrCancelled) {
		t.Fatalf("read cancelled at the DC = %v, want ErrCancelled", err)
	}
	stubs[0].setHook(nil)
	if err := y.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	for lsn := base.LSN(1); lsn < tcx.log.NextLSN(); lsn++ {
		if tcx.log.Get(lsn) == nil {
			t.Fatalf("LSN %d of 1..%d has no record: something other than a record took it", lsn, tcx.log.NextLSN()-1)
		}
	}
	if lwm, last := tcx.inc.Load().acks.LWM(), tcx.log.LastLSN(); lwm != last {
		t.Fatalf("low-water mark %d, last record %d, with nothing in flight", lwm, last)
	}
}

func TestMoreThanMaxBatchWritesSplit(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	const n = 2*maxBatch + 22
	for _, versioned := range []bool{true, false} {
		if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: versioned}, func(x *Txn) error {
			for i := 0; i < n; i++ {
				if err := x.Upsert("t", fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		single, reads, batches := stubs[0].take()
		// Versioned: the queue leaves in three barriers, then the
		// finalizes in three lists. Unversioned: each barrier pre-reads
		// what it is about to log.
		want := "[64w 64w 22w 64w 64w 22w]"
		if !versioned {
			want = "[64r 64w 64r 64w 22r 22w]"
		}
		if single != 0 || reads != 0 || fmt.Sprint(batches) != want {
			t.Fatalf("versioned=%v: %d single sends, %d single reads and batches %v, want 0, 0 and %v",
				versioned, single, reads, batches, want)
		}
		r := dcs[0].Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRangeRead, Table: "t",
			Key: "k", EndKey: "l", Flavor: base.ReadCommitted})
		if len(r.Keys) != n {
			t.Fatalf("versioned=%v: %d of %d keys committed at the DC", versioned, len(r.Keys), n)
		}
	}
}

// TestCheckpointBesideWriters: Checkpoint reads every active transaction's
// first LSN to bound truncation while the transactions' own goroutines set
// it. Run with -race.
func TestCheckpointBesideWriters(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
					for k := 0; k < 3; k++ {
						if err := x.Upsert("t", fmt.Sprintf("c%d-%d", c, (i+k)%16), []byte("v")); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	for i := 0; i < 200 && !t.Failed(); i++ {
		if _, err := tcx.Checkpoint(context.Background()); err != nil {
			t.Errorf("checkpoint %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
