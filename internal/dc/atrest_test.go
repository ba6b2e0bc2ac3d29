package dc

import (
	"context"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/page"
)

// What a system transaction leaves at rest must hold after any mix of TC and
// DC crashes: an operation a checkpoint released is stable in a page or in
// the DC-log image of a system transaction, and a consolidation takes the
// larger abstract LSN of two pages only when both are current (§5.2.2). Each
// test plays TC 1 by hand against one DC with small pages.

// TestCheckpointCoversWhatAConsolidationCarries: TC 1's deletes empty a leaf
// into its flushed left sibling, which TC 3 has written to since, so the page
// put in place is dirty from TC 3's operation and not from any of TC 1's: the
// deletes are held only by that page and by the Consolidate record's image.
// TC 1's checkpoint flushes neither, and TC 3's older dirty leaf of another
// table keeps the DC-log truncation from forcing the log. The checkpoint must
// make the record stable all the same: TC 1 resends nothing below it to the
// recovered DC.
func TestCheckpointCoversWhatAConsolidationCarries(t *testing.T) {
	ctx := context.Background()
	d := newDC(t, Config{PageBytes: 256})
	if err := d.CreateTable("u"); err != nil {
		t.Fatal(err)
	}
	tc := newBracketTC(t, d)
	d.EndOfStableLog(1, 1, 1<<20) // TC 1 forces before it ships
	tc3 := func(lsn base.LSN, table, key string) {
		t.Helper()
		op := upsert(lsn, key, "3")
		op.TC, op.Epoch, op.Table = 3, 1, table
		if r := d.Perform(ctx, &op); r.Code != base.CodeOK {
			t.Fatal(r)
		}
	}
	tc3(1, "u", "x") // TC 3's fence is forced now, "u"'s leaf dirty from before it
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	lsn := base.LSN(0)
	send := func(op base.Op) {
		t.Helper()
		lsn++
		op.LSN = lsn
		if r := tc.send(op, 0); r.Code != base.CodeOK {
			t.Fatalf("%v: %+v", &op, r)
		}
	}
	n := 0
	for ; splits(d) == 0; n++ {
		send(upsert(0, key(n), "v"))
	}
	d.LowWaterMark(1, 1, lsn)
	if err := d.Pool().FlushAll(false, func(pg *page.Page) bool { _, ok := pg.FirstDirty[3]; return !ok }); err != nil {
		t.Fatal(err)
	}
	tc3(2, "t", key(0))
	deleted := n
	for consolidates(d) == 0 {
		deleted--
		send(base.Op{Kind: base.OpDelete, Key: key(deleted)})
	}
	d.LowWaterMark(1, 1, lsn)
	if err := d.Checkpoint(ctx, 1, 1, lsn+1); err != nil {
		t.Fatal(err)
	}

	restart(t, d)
	tc.begin()
	tc.end()
	for i := deleted; i < n; i++ {
		if r := peerRead(d, key(i)); r.Found {
			t.Errorf("%s after the restart: its delete, below the checkpoint, is lost", key(i))
		}
	}
}

// TestRecoveredDCConsolidatesNothingBeforeTheResend: of two sibling leaves
// flushed together, B then loses all its keys and A is flushed alone, its
// abstract LSN past B's deletes; B is not. Resent to the recovered DC, the
// deletes underfill B's stale image; merged into A there, B's keys would take
// A's claim to the deletes not yet resent, and keep values they lost.
func TestRecoveredDCConsolidatesNothingBeforeTheResend(t *testing.T) {
	d := newDC(t, Config{PageBytes: 256})
	tc := newBracketTC(t, d)
	var sent []base.Op
	send := func(op base.Op) {
		t.Helper()
		op.LSN = base.LSN(len(sent) + 1)
		if r := tc.send(op, 0); r.Code != base.CodeOK {
			t.Fatalf("%v: %+v", &op, r)
		}
		sent = append(sent, op)
	}
	forced := func() { d.LowWaterMark(1, 1, base.LSN(len(sent))) }
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	n := 0
	for ; splits(d) == 0; n++ {
		send(upsert(0, key(n), "v"))
	}
	forced()
	if err := d.Pool().FlushAll(false, nil); err != nil {
		t.Fatal(err)
	}
	a := leafOf(t, d, key(0))
	var aKeys, bKeys []string
	for i := 0; i < n; i++ {
		if leafOf(t, d, key(i)) == a {
			aKeys = append(aKeys, key(i))
		} else {
			bKeys = append(bKeys, key(i))
		}
	}
	// A grows, so that here B empties beside it without fitting into it.
	for _, k := range aKeys {
		send(upsert(0, k, "vvvvvvvvvv"))
	}
	for _, k := range bKeys {
		send(base.Op{Kind: base.OpDelete, Key: k})
	}
	for _, k := range aKeys {
		send(upsert(0, k, "v"))
	}
	if splits(d) != 1 || consolidates(d) != 0 {
		t.Fatalf("%d splits and %d consolidations, want A and B as the first split left them", splits(d), consolidates(d))
	}
	forced()
	if err := d.Pool().FlushPage(a.ID); err != nil {
		t.Fatal(err)
	}

	restart(t, d)
	inc := d.inc.Load().n
	tc.begin()
	for _, op := range sent {
		if r := tc.send(op, inc); r.Code != base.CodeOK {
			t.Fatalf("resent %v: %+v", &op, r)
		}
	}
	tc.end()
	for _, k := range bKeys {
		if r := peerRead(d, k); r.Found {
			t.Errorf("%s after the resend of its delete: %q", k, r.Value)
		}
	}
	if err := d.Tree("t").CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
