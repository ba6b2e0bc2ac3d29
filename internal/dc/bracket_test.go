package dc

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dclog"
)

// The resend bracket: a TC's claims about a DC's contents hold for the DC
// incarnation it resent its redo stream to (§5.3.1). Each test plays TC 1 by
// hand against one DC: it opens and closes its bracket once at epoch 1, as a
// TC's first resend does, then the DC crashes and recovers, and the TC's
// traffic meets the new incarnation.

// bracketTC is TC 1, epoch 1, as the tests drive it.
type bracketTC struct {
	t *testing.T
	d *DC
}

func newBracketTC(t *testing.T, d *DC) *bracketTC {
	tc := &bracketTC{t, d}
	tc.begin()
	tc.end()
	return tc
}

func (c *bracketTC) begin() {
	c.t.Helper()
	if err := c.d.BeginRestart(context.Background(), 1, 1, 0); err != nil {
		c.t.Fatalf("begin-restart: %v", err)
	}
}

func (c *bracketTC) end() {
	c.t.Helper()
	if err := c.d.EndRestart(context.Background(), 1, 1); err != nil {
		c.t.Fatalf("end-restart: %v", err)
	}
}

// send performs op as TC 1 sends it: epoch 1, stamped with inc (zero outside
// a resend).
func (c *bracketTC) send(op base.Op, inc base.DCInc) *base.Result {
	op.TC, op.Epoch, op.Table, op.DCInc = 1, 1, "t", inc
	return c.d.Perform(context.Background(), &op)
}

func upsert(lsn base.LSN, key, val string) base.Op {
	return base.Op{LSN: lsn, Kind: base.OpUpsert, Key: key, Value: []byte(val)}
}

// restart crashes and recovers the DC.
func restart(t *testing.T, d *DC) {
	t.Helper()
	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
}

// resend is TC 1's resend to the incarnation that refused its first
// operation: the bracket, and ops again, stamped with the number the refusal
// named. No resent operation may find itself already applied.
func (c *bracketTC) resend(refused *base.Result, ops ...base.Op) {
	c.t.Helper()
	if refused.Code != base.CodeStaleDC || refused.DCInc == 0 {
		c.t.Fatalf("the recovered DC took TC 1's operation before its resend: %+v", refused)
	}
	c.begin()
	for _, op := range ops {
		if r := c.send(op, refused.DCInc); r.Code != base.CodeOK || r.Applied {
			c.t.Fatalf("resent %v: %+v", &op, r)
		}
	}
	c.end()
}

// peerRead reads key as TC 2, a peer that owes the DC nothing.
func peerRead(d *DC, key string) *base.Result {
	return d.Perform(context.Background(), &base.Op{TC: 2, Epoch: 1, Kind: base.OpRead, Table: "t", Key: key})
}

func wantValue(t *testing.T, d *DC, key, val string) {
	t.Helper()
	if r := peerRead(d, key); !r.Found || string(r.Value) != val {
		t.Fatalf("%s after the resend: %+v, want %q", key, r, val)
	}
}

// TestOwedLWMClaimCannotPrunePastAResend: the TC claims LWM 3 of the
// operations the dead incarnation acknowledged, and the pool is flushed
// before the resend. Taken, the claim would stamp a page that never held
// LSNs 1 and 2 as holding them, and the resend of both would answer Applied.
func TestOwedLWMClaimCannotPrunePastAResend(t *testing.T) {
	d := newDC(t, Config{})
	tc := newBracketTC(t, d)
	for _, op := range []base.Op{upsert(1, "a", "1"), upsert(2, "b", "2")} {
		if r := tc.send(op, 0); r.Code != base.CodeOK {
			t.Fatal(r)
		}
	}
	restart(t, d)
	third := tc.send(upsert(3, "c", "3"), 0)
	d.EndOfStableLog(1, 1, 3)
	d.LowWaterMark(1, 1, 3)
	if err := d.Pool().FlushAll(false, nil); err != nil {
		t.Fatal(err)
	}
	tc.resend(third, upsert(1, "a", "1"), upsert(2, "b", "2"), upsert(3, "c", "3"))
	wantValue(t, d, "a", "1")
	wantValue(t, d, "b", "2")
	wantValue(t, d, "c", "3")
}

// TestLaterWriteCannotOvertakeTheResend: a later write of the same key
// reaches the recovered DC before the resend does. Executed, it would be
// overwritten by the resend of the older value.
func TestLaterWriteCannotOvertakeTheResend(t *testing.T) {
	d := newDC(t, Config{})
	tc := newBracketTC(t, d)
	if r := tc.send(upsert(1, "k", "v1"), 0); r.Code != base.CodeOK {
		t.Fatal(r)
	}
	restart(t, d)
	later := tc.send(upsert(2, "k", "v2"), 0)
	tc.resend(later, upsert(1, "k", "v1"), upsert(2, "k", "v2"))
	// The later write's own delivery, sent again once the resend ended.
	if r := tc.send(upsert(2, "k", "v2"), 0); r.Code != base.CodeOK || !r.Applied {
		t.Fatalf("the later write sent again: %+v", r)
	}
	wantValue(t, d, "k", "v2")
}

// TestOwedSafeTSCannotExposeALostCommit: the TC's safe-timestamp tick
// reaches the recovered DC before the resend of a write committed at TS 10.
// Taken, it would let a snapshot at TS 15 read past the lost version.
func TestOwedSafeTSCannotExposeALostCommit(t *testing.T) {
	d := newDC(t, Config{})
	tc := newBracketTC(t, d)
	write := base.Op{LSN: 1, Kind: base.OpUpsert, Key: "k", Value: []byte("v"), Versioned: true, TS: 10}
	if r := tc.send(write, 0); r.Code != base.CodeOK {
		t.Fatal(r)
	}
	d.SafeTS(1, 1, 20, 0)
	restart(t, d)
	d.SafeTS(1, 1, 20, 0)
	d.SafeTS(2, 1, 20, 0) // the reader's own
	snapshot := func(ctx context.Context) *base.Result {
		return d.Perform(ctx, &base.Op{TC: 2, Epoch: 1, Kind: base.OpRead, Table: "t", Key: "k",
			Flavor: base.ReadSnapshot, TS: 15})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if r := snapshot(ctx); r.Code != base.CodeCancelled {
		t.Fatalf("snapshot at TS 15 before the resend: %+v, want it to wait for TC 1", r)
	}
	tc.resend(tc.send(base.Op{Kind: base.OpRead, Key: "k"}, 0), write)
	d.SafeTS(1, 1, 20, 0)
	if r := snapshot(context.Background()); !r.Found || string(r.Value) != "v" {
		t.Fatalf("snapshot at TS 15 after the resend: %+v, want the TS-10 version", r)
	}
}

// TestEndRestartNeedsItsBegin: a DC that restarts between a TC's
// BeginRestart and its EndRestart refuses the EndRestart, typed, so the TC's
// resend starts over instead of ending against an incarnation that never
// saw it.
func TestEndRestartNeedsItsBegin(t *testing.T) {
	d := newDC(t, Config{})
	tc := newBracketTC(t, d)
	tc.send(upsert(1, "a", "1"), 0)
	restart(t, d)
	tc.begin()
	restart(t, d)
	if err := d.EndRestart(context.Background(), 1, 1); !errors.Is(err, base.ErrStaleDC) {
		t.Fatalf("end-restart the incarnation did not see begin: %v, want ErrStaleDC", err)
	}
	tc.resend(tc.send(upsert(1, "a", "1"), 0), upsert(1, "a", "1"))
	wantValue(t, d, "a", "1")
}

// TestStampOfADeadIncarnationIsRefused: a resend stamped for one incarnation
// never executes in its successor.
func TestStampOfADeadIncarnationIsRefused(t *testing.T) {
	d := newDC(t, Config{})
	tc := newBracketTC(t, d)
	tc.send(upsert(1, "a", "1"), 0)
	restart(t, d)
	tc.begin()
	first := tc.send(upsert(1, "a", "1"), 0)
	if first.Code != base.CodeStaleDC {
		t.Fatalf("unstamped operation inside the bracket: %+v", first)
	}
	restart(t, d)
	r := tc.send(upsert(1, "a", "1"), first.DCInc)
	if r.Code != base.CodeStaleDC || r.DCInc <= first.DCInc {
		t.Fatalf("stamped for incarnation %d, sent to its successor: %+v", first.DCInc, r)
	}
	if r := peerRead(d, "a"); r.Found {
		t.Fatalf("the refused operation executed: %+v", r)
	}
	tc.resend(r, upsert(1, "a", "1"))
	wantValue(t, d, "a", "1")
}

// TestIncarnationNumberSurvivesTruncation: the number lives in the fence
// snapshot, which a checkpoint's DC-log truncation logs again; every
// recovery takes a larger one.
func TestIncarnationNumberSurvivesTruncation(t *testing.T) {
	d := newDC(t, Config{PageBytes: 256})
	tc := newBracketTC(t, d)
	for round := 0; round < 3; round++ {
		n := d.inc.Load().n
		first := d.DCLog().Scan(0)[0].LSN
		for i := 1; i <= 100; i++ {
			if r := tc.send(upsert(base.LSN(i), fmt.Sprintf("key%04d", i), "v"), 0); r.Code != base.CodeOK {
				t.Fatal(r)
			}
		}
		d.EndOfStableLog(1, 1, 100)
		d.LowWaterMark(1, 1, 100)
		if err := d.Checkpoint(context.Background(), 1, 1, 101); err != nil {
			t.Fatal(err)
		}
		recs := d.DCLog().Scan(0)
		if len(recs) != 1 || recs[0].Kind != dclog.KindEpochs || recs[0].LSN <= first {
			t.Fatalf("round %d: after the checkpoint the DC-log holds %d records from dLSN %d; want one fresh snapshot",
				round, len(recs), recs[0].LSN)
		}
		restart(t, d)
		if got := d.inc.Load().n; got != n+1 {
			t.Fatalf("round %d: incarnation %d recovered as %d, want %d", round, n, got, n+1)
		}
		tc.begin()
		tc.end()
	}
}

// TestOwedClaimsWaitForTheResend: while TC 1 owes the recovered DC its
// resend, its low-water mark and safe timestamp are dropped and its
// checkpoint refused. After the resend everything is taken.
func TestOwedClaimsWaitForTheResend(t *testing.T) {
	d := newDC(t, Config{})
	tc := newBracketTC(t, d)
	tc.send(upsert(1, "a", "1"), 0)
	restart(t, d)
	claim := func() {
		d.EndOfStableLog(1, 1, 5)
		d.LowWaterMark(1, 1, 5)
		d.SafeTS(1, 1, 20, 10)
	}
	marks := func() [2]uint64 {
		s := d.inc.Load().tc(1)
		return [2]uint64{s.lwm.Load(), s.safe.Load()}
	}
	claim()
	if got, want := marks(), [2]uint64{0, 0}; got != want {
		t.Fatalf("owed TC's lwm, safe: %v, want %v", got, want)
	}
	if err := d.Checkpoint(context.Background(), 1, 1, 2); !errors.Is(err, base.ErrStaleDC) {
		t.Fatalf("owed TC's checkpoint: %v, want ErrStaleDC", err)
	}
	tc.resend(tc.send(upsert(1, "a", "1"), 0), upsert(1, "a", "1"))
	claim()
	if got, want := marks(), [2]uint64{5, 20}; got != want {
		t.Fatalf("lwm, safe after the resend: %v, want %v", got, want)
	}
	if err := d.Checkpoint(context.Background(), 1, 1, 2); err != nil {
		t.Fatal(err)
	}
	// Asked again, with nothing owed, the DC says so.
	if err := d.BeginRestart(context.Background(), 1, 1, 0); !errors.Is(err, base.ErrNothingOwed) {
		t.Fatalf("begin-restart with nothing owed: %v, want ErrNothingOwed", err)
	}
}
