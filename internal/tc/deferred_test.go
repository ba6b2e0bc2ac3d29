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
// reads or logged operations — every batch this TC builds is all one or all
// the other, and it builds no batch of reads, so a read frame is a defect
// to show. It prints as "4r" or "4w".
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
	single  int      // calls carrying one logged operation
	reads   int      // calls carrying one point read
	batches []frame  // the other calls, in arrival order
	marks   []string // watermark calls in arrival order: "eosl 7", "lwm 7", "safe"
	// hook, when set, runs before a batch of reads ("read"), a delivery of
	// logged operations ("write", of one operation or more), a single
	// unlogged operation ("point-read", "probe", "range-read"), a restart
	// control call ("begin-restart", "end-restart") or an end of stable log
	// ("eosl") is passed on.
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
	s.runHook("eosl")
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

// PerformBatch counts a batch of one as the lone call it stands for: a logged
// operation delivered by itself, or an operation a transaction sent by itself
// (Txn.sendOne, whose batch has no room for a second).
func (s *countingService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if len(ops) == 1 && (ops[0].Kind.IsWrite() || cap(ops) == 1) {
		s.one(ops[0])
		return s.Service.PerformBatch(ctx, ops)
	}
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

// one counts and hooks an operation sent alone.
func (s *countingService) one(op *base.Op) {
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

// txnRecords returns the op records transaction id has in the log, forcing
// it first: the run of op records that its commit record closes, since an op
// record names no transaction.
func txnRecords(tcx *TC, id base.TxnID) (ops []*wal.Record) {
	tcx.log.Force()
	var run []*wal.Record
	for _, rec := range tcx.log.Scan(0) {
		switch {
		case rec.Kind == recOp:
			run = append(run, rec)
		case rec.Kind == recCommit && rec.Txn == id:
			return run
		default:
			run = nil
		}
	}
	return nil
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
		first := tcx.log.LastLSN() + 1
		x := tcx.Begin(context.Background(), TxnOptions{Versioned: versioned})
		for i := 0; i < n; i++ {
			for _, table := range []string{"t", "u"} {
				if err := x.Upsert(table, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%v", versioned))); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Before its commit the transaction is a queue and a cache: no DC
		// has heard of it, it holds no LSN — logged or reserved — and so
		// the low-water mark is not waiting for it.
		for _, s := range stubs {
			s.quiet(t, fmt.Sprintf("versioned=%v, before the commit", versioned))
		}
		if last := tcx.log.LastLSN(); last != first-1 {
			t.Fatalf("versioned=%v: LSNs %d..%d taken before the commit", versioned, first, last)
		}
		if lwm := tcx.inc.Load().acks.LWM(); lwm != first-1 {
			t.Fatalf("versioned=%v: low-water mark %d trails an idle writer (log ends at %d)", versioned, lwm, first-1)
		}
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		cLSN := first + 2*n
		if lwm := tcx.inc.Load().acks.LWM(); lwm < cLSN {
			t.Fatalf("versioned=%v: low-water mark %d below the committed transaction's commit record %d", versioned, lwm, cLSN)
		}
		// The writes alone: logged with the commit record, they need no
		// priors; a versioned transaction's are stamped with its commit
		// timestamp.
		const want = "[4w]"
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
		// One batch in the log: the op records, each its operation alone —
		// no transaction id, no chain, no timestamp — then the commit record,
		// which holds the transaction id and the commit timestamp.
		ops := txnRecords(tcx, x.id)
		if len(ops) != 2*n || ops[0].LSN != first {
			t.Fatalf("versioned=%v: %d op records from LSN %d; want %d from %d", versioned, len(ops), ops[0].LSN, 2*n, first)
		}
		for i, rec := range ops {
			op, err := base.DecodeOpPayload(rec.Payload)
			if err != nil || op.Versioned != versioned || op.TS != 0 || rec.LSN != first+base.LSN(i) || rec.Txn != 0 || rec.Prev != 0 {
				t.Fatalf("versioned=%v: op record %+v logs %v (%v), want a write at %d and nothing else", versioned, rec, op, err, first+base.LSN(i))
			}
		}
		c := tcx.log.Get(cLSN)
		if c == nil || c.Kind != recCommit || c.Txn != x.id || c.Prev != 0 {
			t.Fatalf("versioned=%v: the batch ends in %+v, want the commit record", versioned, c)
		}
		if ts, err := decodeCommit(c.Payload); err != nil || ts != x.commitTS || (ts != 0) != versioned {
			t.Fatalf("versioned=%v: the commit record holds %d (%v), want the commit timestamp %d", versioned, ts, err, x.commitTS)
		}
	}
}

// TestCommitPublishesTwoMarksPerDC: a commit tells every DC, between its
// force and its ship, the end of the stable log, at its commit record, and
// the low-water mark, which its writes, not yet acknowledged, hold below
// them — and nothing else; the safe timestamp is the tick's. A checkpoint
// that proposes an RSSP — the second one: the first only takes its
// candidate, and sends nothing — and whose control call needs the marks at
// the DC, still makes all three calls, the safe timestamp (the one a
// transport sends on) last, with the mark now at the commit record.
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
	cLSN := tcx.log.LastLSN()
	want := fmt.Sprintf("[eosl %d lwm %d]", cLSN, cLSN-5) // four writes and the commit record
	for i, s := range stubs {
		if got := fmt.Sprint(s.takeMarks()); got != want {
			t.Fatalf("DC %d heard %v from the commit, want %v", i, got, want)
		}
	}
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, s := range stubs {
		if got := s.takeMarks(); len(got) != 0 {
			t.Fatalf("DC %d heard %v from a checkpoint that proposes nothing", i, got)
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

// TestCacheAnswersThePrior: the value a key held before a write — what an
// Update's existence check reads — comes from the cache once the
// transaction has read the key, and the write then costs nothing before the
// commit ships it.
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
	if err := x.Update("t", "k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if single, reads, batches := stubs[0].take(); single != 0 || reads != 1 || len(batches) != 0 {
		t.Fatalf("%d single sends, %d single reads and batches %v, want the read alone", single, reads, batches)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if single, reads, batches := stubs[0].take(); single != 1 || reads != 0 || len(batches) != 0 {
		t.Fatalf("the commit sent %d single writes, %d single reads and batches %v, want the write alone", single, reads, batches)
	}
	if v, ok := dirty(dcs[0], "t", "k"); !ok || v != "new" {
		t.Fatalf("after the commit the DC holds %q %v", v, ok)
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
	if got := stubs[0].ops(); got != 0 || len(txnRecords(tcx, x.id)) != 0 {
		t.Fatalf("%d logged ops delivered, or records logged, before the commit", got)
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

// TestScanReadsUnsentWrites: a scan and an unlocked read answer over the
// transaction's own writes, which stay queued: nothing reaches the DC before
// the commit.
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
		// ...and so does an unlocked read, which bypasses the cache for
		// every key but the transaction's own.
		if err := x.Upsert("t", "s003", []byte("back")); err != nil {
			return err
		}
		if v, ok, err := x.ReadDirty("t", "s003"); err != nil || !ok || string(v) != "back" {
			return fmt.Errorf("ReadDirty of an unsent write: %q %v %v", v, ok, err)
		}
		if single, _, batches := stubs[0].take(); single != 0 || len(batches) != 0 {
			return fmt.Errorf("before the commit %d single writes and batches %v left", single, batches)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, batches := stubs[0].take(); fmt.Sprint(batches) != "[10w]" {
		t.Fatalf("the commit shipped batches %v, want one of 10", batches)
	}
}

// TestAbortWithUnsentWrites: Abort drops a transaction's writes, however
// many there are, whether or not a scan read over them — nothing shipped,
// nothing logged, not even an abort record — and releases its locks.
func TestAbortWithUnsentWrites(t *testing.T) {
	for _, scanned := range []bool{false, true} {
		tcx, dcs, stubs := newCountedPair(t)
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Insert("t", "base", []byte("committed"))
		}); err != nil {
			t.Fatal(err)
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
		if scanned {
			if keys, _, err := x.Scan("t", "a", "z", 0); err != nil || len(keys) != 2 {
				t.Fatalf("scan over the writes: %v %v", keys, err)
			}
		}
		logEnd := tcx.log.LastLSN()
		for _, s := range stubs {
			s.take()
		}
		// More than maxBatch more of them: dropped with the abort.
		const late = 2*maxBatch + 22
		for i := 0; i < late; i++ {
			if err := x.Upsert("t", fmt.Sprintf("late%03d", i), []byte("temp")); err != nil {
				t.Fatal(err)
			}
		}
		if err := x.Abort(); err != nil {
			t.Fatal(err)
		}
		for i, s := range stubs {
			s.quiet(t, fmt.Sprintf("scanned=%v DC %d, abort", scanned, i))
		}
		if next := tcx.log.LastLSN(); next != logEnd {
			t.Fatalf("scanned=%v: abort took LSNs %d..%d", scanned, logEnd+1, next)
		}
		if got := len(tcx.inc.Load().locks.Held(x.id)); got != 0 {
			t.Fatalf("scanned=%v: abort left %d locks held", scanned, got)
		}
		if v, ok := dirty(dcs[0], "t", "base"); !ok || v != "committed" {
			t.Fatalf("scanned=%v: aborted update left %q %v at the DC", scanned, v, ok)
		}
		for _, at := range []struct {
			dc         int
			table, key string
		}{{0, "t", "tmp"}, {1, "u", "tmp"}} {
			if v, ok := dirty(dcs[at.dc], at.table, at.key); ok {
				t.Fatalf("scanned=%v: aborted insert left %s/%s=%q at the DC", scanned, at.table, at.key, v)
			}
		}
		for i := 0; i < late; i++ {
			if v, ok := dirty(dcs[0], "t", fmt.Sprintf("late%03d", i)); ok {
				t.Fatalf("scanned=%v: aborted upsert left late%03d=%q at the DC", scanned, i, v)
			}
		}
		if ops := txnRecords(tcx, x.id); len(ops) != 0 || tcx.Stats().Aborts != 1 {
			t.Fatalf("scanned=%v: %d op records, %d aborts; want 0 and 1", scanned, len(ops), tcx.Stats().Aborts)
		}
	}
}

// TestTCCrashWithUnsentOps: a logged operation that never left the TC is
// the state "crash between append and ship" inside a commit. Restart
// delivers it when its batch is stable and never hears of it when it is not;
// a transaction whose writes were only queued leaves restart nothing at all.
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
	// write runs a transaction's commit up to and including the append: the
	// records are in the log and queued for their DCs, not shipped.
	write := func(tag string) *Txn {
		x := tcx.Begin(context.Background(), TxnOptions{})
		if err := x.Upsert("t", tag, []byte(tag)); err != nil {
			t.Fatal(err)
		}
		if err := x.Upsert("u", tag, []byte(tag)); err != nil {
			t.Fatal(err)
		}
		if tag != "never-logged" {
			if _, err := x.appendQueued(); err != nil {
				t.Fatal(err)
			}
		}
		return x
	}
	write("winner")
	neverLogged := write("never-logged")
	tcx.log.Force()
	lost := write("lost") // records in the unforced tail
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
		for _, tag := range []string{"never-logged", "lost"} {
			if v, ok := dirty(dcs[i], table, tag); ok {
				t.Fatalf("%s/%s survived restart as %q", table, tag, v)
			}
		}
	}
	for _, x := range []*Txn{neverLogged, lost} {
		if ops := txnRecords(tcx, x.id); len(ops) != 0 {
			t.Fatalf("txn %d left %d op records in the restarted log", x.id, len(ops))
		}
	}
	// An orphan that reaches its commit after the restart dies there: nothing
	// of its queue, logged or not, leaves.
	for _, s := range stubs {
		s.take()
	}
	for _, orphan := range []*Txn{neverLogged, lost} {
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
// It must not read, log or ship anything more — it logged nothing, however
// much it read before the crash — and reports ErrTCStopped. The same holds
// when the crash and the restart land inside a read or the commit itself: the
// straddler takes no LSN of its successor's log, and a successor transaction
// — handed the straddler's id again wherever the stable log allows it —
// keeps its lock and its table entry when the straddler finishes.
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
					// Reads over the writes, answered by the DCs, and a
					// forced log: still nothing of the transaction is at a
					// DC or in the log for restart to find.
					if keys, _, err := x.Scan("t", "a", "z", 0); err != nil || len(keys) != 1 {
						t.Fatalf("scan: %v %v", keys, err)
					}
					if _, ok, err := x.ReadDirty("u", "k"); err != nil || !ok {
						t.Fatalf("read dirty: %v %v", ok, err)
					}
					tcx.log.Force()
				}
				tcx.Crash()
				if err := tcx.Recover(); err != nil {
					t.Fatal(err)
				}
				logEnd := tcx.log.LastLSN()
				for _, s := range stubs {
					s.take()
				}
				if err := end.call(x); !errors.Is(err, ErrTCStopped) {
					t.Fatalf("orphan's %s = %v, want ErrTCStopped", end.name, err)
				}
				if next := tcx.log.LastLSN(); next != logEnd {
					t.Fatalf("orphan's %s took LSNs %d..%d of the new incarnation's log", end.name, logEnd+1, next)
				}
				for i, s := range stubs {
					s.quiet(t, fmt.Sprintf("DC %d, orphan's %s", i, end.name))
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
			logEnd := tcx.log.LastLSN()
			if err := r.call(x); !errors.Is(err, ErrTCStopped) {
				t.Fatalf("dead orphan's %s = %v, want ErrTCStopped", r.name, err)
			}
			if next := tcx.log.LastLSN(); next != logEnd {
				t.Fatalf("the dead orphan took LSNs %d..%d of the new incarnation's log", logEnd+1, next)
			}
			if err := x.Abort(); err != nil {
				t.Fatalf("abort of a dead orphan = %v, want nil", err)
			}
		})
	}

	// The read a write makes before it is queued — an Insert's existence
	// check — is an unlogged operation like those: the transaction has
	// writes queued for both DCs, and the crash and restart land in the
	// existence check at DC 1. Nothing was logged, so the insert fails
	// plainly, and nothing of the orphan — record, logged operation, lock —
	// is left.
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
			if call == "point-read" && restarts == 0 {
				restarts++
				tcx.Crash()
				if err := tcx.Recover(); err != nil {
					t.Error(err)
				}
				logEnd = tcx.log.LastLSN()
			}
		})
		err := x.Insert("u", "cold", []byte("v"))
		if restarts != 1 {
			t.Fatal("the TC was never restarted under the existence check")
		}
		if !errors.Is(err, ErrTCStopped) || errors.Is(err, base.ErrStaleEpoch) {
			t.Fatalf("insert straddling its existence check = %v, want a plain ErrTCStopped", err)
		}
		if next := tcx.log.LastLSN(); next != logEnd {
			t.Fatalf("the straddler took LSNs %d..%d of the new incarnation's log", logEnd+1, next)
		}
		if ops := txnRecords(tcx, x.id); len(ops) != 0 {
			t.Fatalf("the successor's log holds %d op records of the orphan", len(ops))
		}
		for i, s := range stubs {
			// DC 1 heard the existence check, and nothing else did.
			if single, reads, batches := s.take(); single != 0 || reads != i || len(batches) != 0 {
				t.Fatalf("DC %d: %d single sends, %d single reads and batches %v, want 0, %d and none", i, single, reads, batches, i)
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

	// The commit barrier appends its writes and its commit record as one
	// batch, forces it and only then ships, so a crash anywhere after the
	// append leaves an ambiguous commit, which restart decides by whether the
	// batch is stable: before the force nothing of it is at a DC, and after
	// it restart's redo delivers the writes.
	straddles := []struct {
		name      string
		cfg       Config
		versioned bool
		// The TC crashes and restarts from inside the first delivery of
		// logged operations to DC 1, or, with inForce, from the test's
		// goroutine, once the batch is appended and its force asleep.
		inForce bool
		// winner: the batch was stable, so restart finishes the commit.
		winner bool
	}{
		// The batch is forced, DC 0 has acknowledged its write and DC 1's is
		// on its way: a winner, whose writes redo delivers, to DC 0 again.
		{name: "write-batch", cfg: Config{ID: 1}, winner: true},
		// The same with the writes stamped with the commit timestamp.
		{name: "stamped-write-batch", cfg: Config{ID: 1}, versioned: true, winner: true},
		// The batch dies with the unforced tail, and no DC saw any of it.
		{name: "force", cfg: Config{ID: 1, ForceDelay: 50 * time.Millisecond}, inForce: true},
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
				logEnd = tcx.log.LastLSN()
			}
			restarts := 0
			stubs[1].setHook(func(call string) {
				if call == "write" && !s.inForce && restarts == 0 {
					restarts++
					restart()
				}
			})
			commitLSN := tcx.log.LastLSN() + 3 // two writes and the commit record
			done := make(chan error, 1)
			go func() { done <- x.Commit() }()
			if s.inForce {
				for tcx.log.LastLSN() < commitLSN {
					select {
					case err := <-done:
						t.Fatalf("commit returned %v before the crash", err)
					default:
						runtime.Gosched()
					}
				}
				if eosl := tcx.log.EOSL(); eosl >= commitLSN {
					t.Fatalf("the commit batch was stable (EOSL %d, commit @%d) before the crash; test vacuous", eosl, commitLSN)
				}
				for i, table := range []string{"t", "u"} {
					if v, ok := dirty(dcs[i], table, "k"); ok {
						t.Fatalf("%s/k = %q before the force: a write was shipped first", table, v)
					}
				}
				restart()
			}
			err := <-done
			if !errors.Is(err, ErrTCStopped) || !errors.Is(err, ErrCommitAmbiguous) {
				t.Fatalf("straddling commit = %v, want an ambiguous ErrTCStopped", err)
			}
			if y == nil {
				t.Fatal("the TC was never restarted under the commit")
			}
			if next := tcx.log.LastLSN(); next != logEnd {
				t.Fatalf("the straddler took LSNs %d..%d of the new incarnation's log", logEnd+1, next)
			}
			// With nothing of x in the stable log, restart hands its id out again.
			if !s.winner && y.id != x.id {
				t.Fatalf("successor has id %d, straddler %d; test vacuous", y.id, x.id)
			}
			inc := tcx.inc.Load()
			if got := inc.locks.Held(y.id)[lockmgr.KeyRes("t", "successor")]; got != lockmgr.X {
				t.Fatalf("the straddler's finish left successor %d holding %v on its key, want X", y.id, got)
			}
			if n := tcx.ActiveTxns(); n != 1 {
				t.Fatalf("the serving incarnation counts %d active transactions after the straddler's finish, want 1: successor %d", n, y.id)
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

// TestCancelledPreReadIsACleanAbort: the read a write makes before it is
// queued — here an Insert's existence check at DC 1, with writes already
// queued for both DCs — is a cancellation point like any read, and nothing is
// logged before the commit. Cancelled there, the insert fails plainly, and
// the commit that follows under the cancelled context is refused before its
// append — a clean abort that sends and logs nothing and releases the locks.
// Nothing took an LSN, so checkpoints have nothing of it to wait for.
func TestCancelledPreReadIsACleanAbort(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	stubs[1].setHook(func(call string) {
		if call == "point-read" {
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
	logEnd := tcx.log.LastLSN()
	err := x.Insert("u", "cold", []byte("v"))
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("insert error %v does not carry ErrCancelled + context.Canceled", err)
	}
	stubs[1].setHook(nil)
	if err := x.Commit(); !errors.Is(err, base.ErrCancelled) || errors.Is(err, ErrCommitAmbiguous) {
		t.Fatalf("commit under the cancelled context = %v, want a plain ErrCancelled", err)
	}
	if ops := txnRecords(tcx, x.id); len(ops) != 0 {
		t.Fatalf("cancelled before the append, yet %d op records", len(ops))
	}
	for i, s := range stubs {
		if got := s.ops(); got != 0 {
			t.Fatalf("%d logged ops reached DC %d", got, i)
		}
	}
	if got := len(tcx.inc.Load().locks.Held(x.id)); got != 0 {
		t.Fatalf("clean abort left %d locks held", got)
	}
	if next := tcx.log.LastLSN(); next != logEnd {
		t.Fatalf("the cancelled transaction took LSNs %d..%d", logEnd+1, next)
	}
	// The first checkpoint takes its candidate, the second proposes it.
	before := tcx.RSSP()
	if _, err := tcx.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rssp, err := tcx.Checkpoint(context.Background()); err != nil || rssp <= before {
		t.Fatalf("checkpoints after the cancelled transaction: rssp %d -> %d, %v", before, rssp, err)
	}
	if _, ok := dirty(dcs[0], "t", "k0"); ok {
		t.Fatal("a write of the cancelled transaction reached the DC")
	}
}

// TestOnlyRecordsTakeLSNs: an LSN is the request ID of a logged operation and
// nothing else. Whatever a transaction reads on the way — under a lock, in a
// scan's probe and range read, unlocked, for an existence check, answered,
// cancelled or refused — the TC-log's LSN space stays dense in its records,
// and the low-water mark, which no read ever holds back, ends at the last of
// them.
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
	if keys, _, err := x.Scan("t", "a", "z", 0); err != nil || len(keys) != 3 { // probe, range read
		t.Fatalf("scan: %v %v", keys, err)
	}
	if _, ok, err := x.ReadCommitted("t", "b"); err != nil || !ok {
		t.Fatalf("read committed: %v %v", ok, err)
	}
	for _, table := range []string{"t", "u"} { // blind: no read at all
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
	for lsn := base.LSN(1); lsn <= tcx.log.LastLSN(); lsn++ {
		if tcx.log.Get(lsn) == nil {
			t.Fatalf("LSN %d of 1..%d has no record: something other than a record took it", lsn, tcx.log.LastLSN())
		}
	}
	if lwm, last := tcx.inc.Load().acks.LWM(), tcx.log.LastLSN(); lwm != last {
		t.Fatalf("low-water mark %d, last record %d, with nothing in flight", lwm, last)
	}
}

// TestManyWritesLeaveAtCommit: a queue longer than maxBatch waits for its
// commit like any other. There its writes are logged in one batch with the
// commit record and shipped in windows of maxBatch, versioned or not: no
// pre-read, and no write sent twice.
func TestManyWritesLeaveAtCommit(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	const n = 2*maxBatch + 22
	for _, versioned := range []bool{true, false} {
		x := tcx.Begin(context.Background(), TxnOptions{Versioned: versioned})
		for i := 0; i < n; i++ {
			if err := x.Upsert("t", fmt.Sprintf("k%04d", i), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		stubs[0].quiet(t, fmt.Sprintf("versioned=%v, %d writes before the commit", versioned, n))
		if err := x.Commit(); err != nil {
			t.Fatal(err)
		}
		const want = "[64w 64w 22w]"
		if single, reads, batches := stubs[0].take(); single != 0 || reads != 0 || fmt.Sprint(batches) != want {
			t.Fatalf("versioned=%v: %d single sends, %d single reads and batches %v, want 0, 0 and %v",
				versioned, single, reads, batches, want)
		}
		if ops := txnRecords(tcx, x.id); len(ops) != n {
			t.Fatalf("versioned=%v: %d op records, want %d", versioned, len(ops), n)
		}
		safeTick(tcx)
		r := dcs[0].Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRangeRead, Table: "t",
			Key: "k", EndKey: "l", Flavor: base.ReadCommitted})
		if len(r.Keys) != n {
			t.Fatalf("versioned=%v: %d of %d keys committed at the DC", versioned, len(r.Keys), n)
		}
	}
}

// TestCheckpointBesideWriters: checkpoints run beside committing writers
// (run with -race), and truncate the log only where restart still finds every
// op record beside its commit record: a cut that splits a commit batch keeps
// the batch's end, its commit record.
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
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
}
