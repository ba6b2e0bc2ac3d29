package dc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
)

func newDC(t *testing.T, cfg Config) *DC {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-dc"
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	return d
}

// opHelper issues operations with an incrementing LSN for one TC and
// mirrors the TC's watermark duties. epoch is the incarnation stamp
// (zero until a test simulates a TC restart).
type opHelper struct {
	d     *DC
	tc    base.TCID
	epoch base.Epoch
	next  base.LSN
	// stamp is the commit timestamp do puts on a write (zero: none).
	stamp base.TS
	// ops issued so far, for replay in recovery tests.
	issued []*base.Op
}

func newOpHelper(d *DC, tc base.TCID) *opHelper {
	return &opHelper{d: d, tc: tc, next: 1}
}

func (h *opHelper) do(kind base.OpKind, key string, val []byte, versioned bool) *base.Result {
	op := &base.Op{TC: h.tc, Epoch: h.epoch, LSN: h.next, Kind: kind, Table: "t", Key: key,
		Value: val, Versioned: versioned, TS: h.stamp}
	h.next++
	h.issued = append(h.issued, op)
	return h.d.Perform(context.Background(), op)
}

func (h *opHelper) insert(key, val string) *base.Result {
	return h.do(base.OpInsert, key, []byte(val), false)
}
func (h *opHelper) update(key, val string) *base.Result {
	return h.do(base.OpUpdate, key, []byte(val), false)
}
func (h *opHelper) del(key string) *base.Result { return h.do(base.OpDelete, key, nil, false) }
func (h *opHelper) read(key string) *base.Result {
	return h.d.Perform(context.Background(), &base.Op{TC: h.tc, Epoch: h.epoch, LSN: 0, Kind: base.OpRead, Table: "t", Key: key})
}

// ack tells the DC everything issued so far is stable and acknowledged.
func (h *opHelper) ack() {
	h.d.EndOfStableLog(h.tc, h.epoch, h.next-1)
	h.d.LowWaterMark(h.tc, h.epoch, h.next-1)
}

func TestBasicCRUD(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	if res := h.insert("a", "1"); res.Code != base.CodeOK {
		t.Fatalf("insert: %+v", res)
	}
	if res := h.read("a"); !res.Found || string(res.Value) != "1" {
		t.Fatalf("read: %+v", res)
	}
	if res := h.insert("a", "2"); res.Code != base.CodeDuplicate {
		t.Fatalf("dup insert: %+v", res)
	}
	if res := h.update("a", "2"); res.Code != base.CodeOK {
		t.Fatalf("update: %+v", res)
	}
	if res := h.update("missing", "x"); res.Code != base.CodeNotFound {
		t.Fatalf("update missing: %+v", res)
	}
	if res := h.del("a"); res.Code != base.CodeOK {
		t.Fatalf("delete: %+v", res)
	}
	if res := h.read("a"); res.Code != base.CodeNotFound {
		t.Fatalf("read after delete: %+v", res)
	}
	if res := h.del("a"); res.Code != base.CodeNotFound {
		t.Fatalf("double delete: %+v", res)
	}
}

func TestResendIdempotence(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	res := h.insert("k", "v")
	if res.Code != base.CodeOK || res.Applied {
		t.Fatalf("first: %+v", res)
	}
	// Resend with the same request ID: recognized, skipped, acknowledged.
	op := h.issued[len(h.issued)-1]
	res2 := d.Perform(context.Background(), op)
	if res2.Code != base.CodeOK || !res2.Applied {
		t.Fatalf("resend: %+v", res2)
	}
	if d.Stats().DupSkips != 1 {
		t.Fatalf("stats: %+v", d.Stats())
	}
	// The update resend must not re-apply either.
	up := &base.Op{TC: 1, LSN: h.next, Kind: base.OpUpdate, Table: "t", Key: "k", Value: []byte("v2")}
	h.next++
	if r := d.Perform(context.Background(), up); r.Code != base.CodeOK {
		t.Fatalf("update: %+v", r)
	}
	if r := d.Perform(context.Background(), up); !r.Applied {
		t.Fatalf("update resend not skipped: %+v", r)
	}
	if r := h.read("k"); string(r.Value) != "v2" {
		t.Fatalf("final value: %+v", r)
	}
}

func TestOutOfOrderArrival(t *testing.T) {
	// §5.1: a later operation (higher LSN) reaches the page before an
	// earlier one. Both must apply; neither may be misclassified.
	d := newDC(t, Config{})
	late := &base.Op{TC: 1, LSN: 7, Kind: base.OpInsert, Table: "t", Key: "b", Value: []byte("late")}
	early := &base.Op{TC: 1, LSN: 3, Kind: base.OpInsert, Table: "t", Key: "a", Value: []byte("early")}
	if r := d.Perform(context.Background(), late); r.Code != base.CodeOK {
		t.Fatalf("late: %+v", r)
	}
	// The traditional page-LSN test would now claim LSN 3 applied.
	if r := d.Perform(context.Background(), early); r.Code != base.CodeOK || r.Applied {
		t.Fatalf("early treated as applied: %+v", r)
	}
	// Resends of both are recognized.
	if r := d.Perform(context.Background(), late); !r.Applied {
		t.Fatalf("late resend: %+v", r)
	}
	if r := d.Perform(context.Background(), early); !r.Applied {
		t.Fatalf("early resend: %+v", r)
	}
}

func TestVersionedSharing(t *testing.T) {
	// §6.2.2: TC 1 updates its partition with versioning; TC 2 reads
	// committed data without blocking and without 2PC. A commit is TC 1's
	// write stamped with the commit timestamp, committed once TC 1's safe
	// timestamp passes it.
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	commit := func(ts base.TS) { d.SafeTS(1, 0, ts, 0) }
	h.stamp = 10
	h.do(base.OpInsert, "user1", []byte("profile-v1"), true)
	commit(10)

	rc := func() *base.Result {
		return d.Perform(context.Background(), &base.Op{TC: 2, Kind: base.OpRead, Table: "t", Key: "user1",
			Flavor: base.ReadCommitted})
	}
	if r := rc(); !r.Found || string(r.Value) != "profile-v1" {
		t.Fatalf("committed read: %+v", r)
	}
	// Uncommitted update: committed readers still see v1; dirty sees v2.
	h.stamp = 20
	h.do(base.OpUpdate, "user1", []byte("profile-v2"), true)
	if r := rc(); !r.Found || string(r.Value) != "profile-v1" {
		t.Fatalf("committed read during update: %+v", r)
	}
	dirty := d.Perform(context.Background(), &base.Op{TC: 2, Kind: base.OpRead, Table: "t", Key: "user1",
		Flavor: base.ReadDirty})
	if !dirty.Found || string(dirty.Value) != "profile-v2" {
		t.Fatalf("dirty read: %+v", dirty)
	}
	commit(20)
	if r := rc(); string(r.Value) != "profile-v2" {
		t.Fatalf("after commit: %+v", r)
	}
	// The next update: readers switch to v3 once its stamp is safe.
	h.stamp = 30
	h.do(base.OpUpdate, "user1", []byte("profile-v3"), true)
	if r := rc(); string(r.Value) != "profile-v2" {
		t.Fatalf("stamped, not yet safe: %+v", r)
	}
	commit(30)
	if r := rc(); string(r.Value) != "profile-v3" {
		t.Fatalf("after commit: %+v", r)
	}
	// Versioned delete: committed readers see the before version until
	// commit, nothing after.
	h.stamp = 40
	h.do(base.OpDelete, "user1", nil, true)
	if r := rc(); !r.Found || string(r.Value) != "profile-v3" {
		t.Fatalf("committed read during delete: %+v", r)
	}
	commit(40)
	if r := rc(); r.Found {
		t.Fatalf("after committed delete: %+v", r)
	}
}

// TestUnstampedVersionedWriteIsRefused: a versioned write leaves its TC at
// commit, stamped with the commit timestamp, so one without a timestamp is
// malformed. Every write kind is answered CodeBadRequest, over a pending
// versioned head and over no record, and the leaf keeps its records and its
// abstract LSNs as they were.
func TestUnstampedVersionedWriteIsRefused(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	h.stamp = 10
	h.do(base.OpInsert, "k", []byte("v1"), true)
	h.stamp = 0
	h.insert("plain", "p")
	leaf := leafOf(t, d, "k")
	was := leaf.Clone()
	for _, kind := range []base.OpKind{base.OpInsert, base.OpUpdate, base.OpUpsert, base.OpDelete} {
		for _, key := range []string{"k", "plain", "absent"} {
			if r := h.do(kind, key, []byte("v2"), true); r.Code != base.CodeBadRequest {
				t.Fatalf("unstamped versioned %v of %q: %+v, want CodeBadRequest", kind, key, r)
			}
		}
	}
	if leaf := leafOf(t, d, "k"); !leaf.Equal(was) {
		t.Fatal("a refused write changed the leaf")
	}
}

func TestScanProbeAndRangeRead(t *testing.T) {
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	for i := 0; i < 50; i++ {
		h.insert(fmt.Sprintf("k%03d", i), "v")
	}
	probe := d.Perform(context.Background(), &base.Op{TC: 1, Kind: base.OpScanProbe, Table: "t", Key: "k010", Limit: 5})
	if len(probe.Keys) != 5 || probe.Keys[0] != "k010" || probe.Keys[4] != "k014" {
		t.Fatalf("probe: %v", probe.Keys)
	}
	rr := d.Perform(context.Background(), &base.Op{TC: 1, Kind: base.OpRangeRead, Table: "t", Key: "k010", EndKey: "k015"})
	if len(rr.Keys) != 5 || len(rr.Values) != 5 {
		t.Fatalf("range: %v", rr.Keys)
	}
}

// TestRangeReadStopsAtEndKey bounds a range read by its end key alone (no
// Limit) over a tree of many leaves: it must return exactly the in-range
// keys and fetch no more pages than the same read bounded by a Limit, plus
// at most the one leaf whose first key is the end key — not every
// remaining leaf of the table.
func TestRangeReadStopsAtEndKey(t *testing.T) {
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	const n = 300
	for i := 0; i < n; i++ {
		h.insert(fmt.Sprintf("k%03d", i), "v")
	}
	leaves := 0
	if err := d.Tree("t").Scan("", func(*page.Page) bool { leaves++; return true }); err != nil {
		t.Fatal(err)
	}
	fetches := func(op *base.Op) (*base.Result, uint64) {
		before := d.Pool().Stats()
		res := d.Perform(context.Background(), op)
		after := d.Pool().Stats()
		return res, after.Hits + after.Misses - before.Hits - before.Misses
	}
	const lo, hi, want = 20, 60, 40
	byLimit, limitFetches := fetches(&base.Op{TC: 1, Kind: base.OpRangeRead, Table: "t",
		Key: fmt.Sprintf("k%03d", lo), Limit: want})
	byEnd, endFetches := fetches(&base.Op{TC: 1, Kind: base.OpRangeRead, Table: "t",
		Key: fmt.Sprintf("k%03d", lo), EndKey: fmt.Sprintf("k%03d", hi)})
	if len(byEnd.Keys) != want || fmt.Sprint(byEnd.Keys) != fmt.Sprint(byLimit.Keys) {
		t.Fatalf("range [k%03d,k%03d) = %v, want the %d keys %v", lo, hi, byEnd.Keys, want, byLimit.Keys)
	}
	if uint64(leaves) < 4*limitFetches {
		t.Fatalf("tree too small to tell: %d leaves, %d fetches for the range", leaves, limitFetches)
	}
	if endFetches > limitFetches+1 {
		t.Fatalf("end-key range read fetched %d pages, limit-bounded read %d (table has %d leaves)",
			endFetches, limitFetches, leaves)
	}
}

func TestDCCrashRecoveryWithSplits(t *testing.T) {
	// Build a tree big enough to split many times, checkpoint part of it,
	// crash, recover, then replay the op stream as the TC would. All data
	// must survive and the structure must be well-formed before redo.
	ctx := context.Background()
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	h.epoch = 1 // a TC the fences name: the recovered DC waits for its resend
	const n = 300
	for i := 0; i < n; i++ {
		if r := h.insert(fmt.Sprintf("key%05d", i), fmt.Sprintf("v%d", i)); r.Code != base.CodeOK {
			t.Fatalf("insert %d: %+v", i, r)
		}
	}
	h.ack()
	// Checkpoint half the LSN space: pages with earlier ops are forced.
	mid := base.LSN(n / 2)
	if err := d.Checkpoint(ctx, 1, h.epoch, mid); err != nil {
		t.Fatal(err)
	}

	d.Crash()
	// While down: unavailable.
	if r := d.Perform(context.Background(), &base.Op{TC: 1, LSN: 9999, Kind: base.OpRead, Table: "t", Key: "key00000"}); r.Code != base.CodeUnavailable {
		t.Fatalf("down DC answered: %+v", r)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	// The search structure must be well-formed immediately after DC-log
	// recovery, before any TC redo (§4.2 Recovery).
	if err := d.Tree("t").CheckInvariants(); err != nil {
		t.Fatalf("structure not well-formed before redo: %v", err)
	}

	// TC redo: resend everything from the redo scan start point (we use 0
	// = everything; abstract LSNs skip what survived), inside the TC's
	// bracket and stamped with the incarnation, as a TC resends.
	if err := d.BeginRestart(ctx, 1, h.epoch, 0); err != nil {
		t.Fatal(err)
	}
	for _, op := range h.issued {
		op.DCInc = d.inc.Load().n
		if r := d.Perform(ctx, op); r.Code != base.CodeOK {
			t.Fatalf("redo %v: %+v", op, r)
		}
	}
	if err := d.EndRestart(ctx, 1, h.epoch); err != nil {
		t.Fatal(err)
	}
	h.ack()
	for i := 0; i < n; i++ {
		r := h.read(fmt.Sprintf("key%05d", i))
		if !r.Found || string(r.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key %d lost after recovery: %+v", i, r)
		}
	}
	if err := d.Tree("t").CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDCCrashRecoveryWithConsolidates(t *testing.T) {
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	const n = 300
	for i := 0; i < n; i++ {
		h.insert(fmt.Sprintf("key%05d", i), "v")
	}
	for i := 0; i < n; i++ {
		if i%7 != 0 {
			h.del(fmt.Sprintf("key%05d", i))
		}
	}
	h.ack()
	if _, cons := d.Tree("t").Stats(); cons == 0 {
		t.Fatal("expected consolidations")
	}
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := d.Tree("t").CheckInvariants(); err != nil {
		t.Fatalf("structure after consolidate redo: %v", err)
	}
	for _, op := range h.issued {
		r := d.Perform(context.Background(), op)
		if r.Code != base.CodeOK && r.Code != base.CodeDuplicate && r.Code != base.CodeNotFound {
			t.Fatalf("redo %v: %+v", op, r)
		}
	}
	for i := 0; i < n; i++ {
		r := h.read(fmt.Sprintf("key%05d", i))
		if i%7 == 0 && !r.Found {
			t.Fatalf("surviving key %d lost", i)
		}
		if i%7 != 0 && r.Found {
			t.Fatalf("deleted key %d resurrected", i)
		}
	}
}

// TestTCRestartRollsNothingBack: a TC sends an operation only once it is
// stable in its log, so a TC restart takes back nothing a DC holds. TC 1 and
// TC 2 write the same leaf until TC 1's inserts split it; TC 1 restarts, and
// BeginRestart, whatever stable end it is told, leaves every record of both
// TCs as it was. The dead incarnation is fenced, and the new one's operations
// execute.
func TestTCRestartRollsNothingBack(t *testing.T) {
	ctx := context.Background()
	d := newDC(t, Config{PageBytes: 256})
	h1, h2 := newOpHelper(d, 1), newOpHelper(d, 2)
	h1.insert("tc1-a", "v1")
	h2.insert("tc2-a", "v2")
	h1.update("tc1-a", "v1'")
	want := map[string]string{"tc1-a": "v1'", "tc2-a": "v2"}
	for i := 0; splits(d) == 0; i++ {
		k := fmt.Sprintf("tc1-k%02d", i)
		h1.insert(k, "v")
		want[k] = "v"
	}
	if err := d.BeginRestart(ctx, 1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRestart(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if r := h2.read(k); !r.Found || string(r.Value) != v {
			t.Errorf("%s after TC 1's restart: %+v, want %q", k, r, v)
		}
	}
	if r := h1.update("tc1-a", "zombie"); r.Code != base.CodeStaleEpoch {
		t.Fatalf("the dead incarnation's update: %+v, want CodeStaleEpoch", r)
	}
	h1.epoch = 2
	if r := h1.insert("tc1-new", "n"); r.Code != base.CodeOK || r.Applied {
		t.Fatalf("the new incarnation's insert: %+v", r)
	}
}

func splits(d *DC) uint64       { s, _ := d.Tree("t").Stats(); return s }
func consolidates(d *DC) uint64 { _, c := d.Tree("t").Stats(); return c }

func TestCheckpointFlushesAndTruncates(t *testing.T) {
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	for i := 0; i < 100; i++ {
		h.insert(fmt.Sprintf("key%04d", i), "v")
	}
	h.ack()
	if n := len(d.DCLog().Scan(0)); n == 0 && d.DCLog().LastLSN() > 0 {
		// Splits happened but nothing is forced yet; that is fine.
		t.Logf("pre-checkpoint stable DC-log records: %d", n)
	}
	if err := d.Checkpoint(context.Background(), 1, h.epoch, h.next); err != nil {
		t.Fatal(err)
	}
	// All dirty pages stable; the DC-log contract is released entirely, and
	// only the incarnation's fence snapshot is kept.
	if recs := d.DCLog().Scan(0); len(recs) != 1 || recs[0].Kind != dclog.KindEpochs {
		t.Fatalf("DC-log not truncated: %d stable records remain", len(recs))
	}
	// Everything survives a crash with no redo needed.
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if r := h.read(fmt.Sprintf("key%04d", i)); !r.Found {
			t.Fatalf("key %d lost after checkpointed crash", i)
		}
	}
}

func TestConflictCheckerCatchesViolation(t *testing.T) {
	d := newDC(t, Config{CheckConflicts: true})
	// Two conflicting writes with different LSNs in flight concurrently:
	// the checker must notice. We simulate by entering via the table
	// directly (Perform is too fast to overlap reliably).
	op1 := &base.Op{TC: 1, LSN: 1, Kind: base.OpUpdate, Table: "t", Key: "k"}
	op2 := &base.Op{TC: 1, LSN: 2, Kind: base.OpUpdate, Table: "t", Key: "k"}
	inflight := d.inc.Load().inflight
	inflight.enter(op1)
	if n := inflight.enter(op2); n != 1 {
		t.Fatalf("conflict not detected: %d", n)
	}
	inflight.exit(op1)
	inflight.exit(op2)
	// Duplicate resends of the same request never count as conflicts.
	inflight.enter(op1)
	dup := *op1
	if n := inflight.enter(&dup); n != 0 {
		t.Fatalf("resend miscounted as conflict: %d", n)
	}
}

// TestConflictTableReadsShareLSNZero: a TC's reads carry no request ID, so
// all of them are (TC, 0) to the duplicate test. That must cost the checker
// nothing it is there to see: reads beside reads were never conflicts, and a
// write — which always has an LSN of its own — still counts every read of
// its key, once, however often the write itself is resent.
func TestConflictTableReadsShareLSNZero(t *testing.T) {
	c := newConflictTable()
	read1 := &base.Op{TC: 1, Kind: base.OpRead, Table: "t", Key: "k"}
	read2 := &base.Op{TC: 1, Kind: base.OpRead, Table: "t", Key: "k"}
	if n := c.enter(read1) + c.enter(read2); n != 0 {
		t.Fatalf("two reads of one key count %d conflicts", n)
	}
	write := &base.Op{TC: 1, LSN: 7, Kind: base.OpUpdate, Table: "t", Key: "k"}
	if n := c.enter(write); n != 2 {
		t.Fatalf("a write beside two LSN-0 reads of its key counts %d conflicts, want 2", n)
	}
	resend := *write
	if n := c.enter(&resend); n != 2 {
		t.Fatalf("the write's resend counts %d conflicts, want the same 2 reads and not itself", n)
	}
}

func TestRandomizedCrashReplayConvergence(t *testing.T) {
	// Repeatedly: random ops, random acks, random crash+recover+full
	// replay; final state must match a model applied in LSN order.
	rnd := rand.New(rand.NewSource(11))
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	model := map[string]string{}
	for round := 0; round < 5; round++ {
		for i := 0; i < 150; i++ {
			k := fmt.Sprintf("k%03d", rnd.Intn(120))
			switch rnd.Intn(3) {
			case 0:
				v := fmt.Sprintf("v%d", h.next)
				if r := h.do(base.OpUpsert, k, []byte(v), false); r.Code == base.CodeOK {
					model[k] = v
				}
			case 1:
				if r := h.del(k); r.Code == base.CodeOK {
					delete(model, k)
				}
			case 2:
				want, ok := model[k]
				r := h.read(k)
				if ok != r.Found || (ok && want != string(r.Value)) {
					t.Fatalf("round %d: read %q = %+v want %q,%v", round, k, r, want, ok)
				}
			}
		}
		h.ack()
		if rnd.Intn(2) == 0 {
			if err := d.Checkpoint(context.Background(), 1, h.epoch, h.next); err != nil {
				t.Fatal(err)
			}
		}
		d.Crash()
		if err := d.Recover(); err != nil {
			t.Fatal(err)
		}
		// Full redo from LSN 0 (superset of any RSSP; idempotence filters).
		for _, op := range h.issued {
			d.Perform(context.Background(), op)
		}
		h.ack()
		for k, want := range model {
			r := h.read(k)
			if !r.Found || string(r.Value) != want {
				t.Fatalf("round %d: after recovery %q = %+v want %q", round, k, r, want)
			}
		}
		if err := d.Tree("t").CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchResultsBelongToTheirCall: PerformBatch draws its results from one
// slab, and that slab is the call's alone — handed to the caller with the
// slice, never pooled. The results of an earlier call stay exactly what they
// were through a later one, no result or value of one call shares memory with
// another's, and scribbling over everything a call returned changes neither
// the next call's answers nor the pages.
func TestBatchResultsBelongToTheirCall(t *testing.T) {
	d := newDC(t, Config{})
	h := newOpHelper(d, 1)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		if res := h.insert(k, "value-of-"+k); res.Code != base.CodeOK {
			t.Fatalf("insert %s: %+v", k, res)
		}
	}
	batch := func() []*base.Result {
		ops := make([]*base.Op, 0, len(keys)+1)
		for _, k := range keys {
			ops = append(ops, &base.Op{TC: 1, Kind: base.OpRead, Table: "t", Key: k})
		}
		ops = append(ops, &base.Op{TC: 1, Kind: base.OpRangeRead, Table: "t", Key: "a", EndKey: "z"})
		return d.PerformBatch(context.Background(), ops)
	}
	check := func(when string, rs []*base.Result) {
		t.Helper()
		for i, k := range keys {
			if r := rs[i]; r.Code != base.CodeOK || !r.Found || string(r.Value) != "value-of-"+k {
				t.Fatalf("%s: read %s = %+v", when, k, r)
			}
		}
		if r := rs[len(keys)]; len(r.Keys) != len(keys) || string(r.Values[1]) != "value-of-b" {
			t.Fatalf("%s: range read = %+v", when, r)
		}
	}
	first := batch()
	check("first call", first)
	second := batch()
	check("second call", second)
	check("first call, after the second", first)

	owned := map[*byte]string{}
	claim := func(call string, b []byte) {
		t.Helper()
		if len(b) == 0 {
			return
		}
		if other, ok := owned[&b[0]]; ok {
			t.Fatalf("a value of the %s call shares memory with one of the %s call", call, other)
		}
		owned[&b[0]] = call
	}
	for call, rs := range map[string][]*base.Result{"first": first, "second": second} {
		for _, r := range rs {
			claim(call, r.Value)
			for _, v := range r.Values {
				claim(call, v)
			}
		}
	}
	for i := range first {
		for j := range second {
			if first[i] == second[j] {
				t.Fatalf("result %d of the first call is result %d of the second", i, j)
			}
		}
	}

	for _, r := range first {
		for i := range r.Value {
			r.Value[i] = 'X'
		}
		for _, v := range r.Values {
			for i := range v {
				v[i] = 'X'
			}
		}
		*r = base.Result{Code: base.CodeBadRequest}
	}
	check("second call, after the first was scribbled over", second)
	check("a third call", batch())
}
