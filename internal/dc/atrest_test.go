package dc

import (
	"context"
	"fmt"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dclog"
)

// What a system transaction leaves at rest must hold after any mix of TC and
// DC crashes: its DC-log image holds nothing its TCs have not forced (§4.2
// causality, §5.2.2), and it takes the larger abstract LSN of two pages only
// when both are current (§5.2.2). Each test plays TC 1 by hand against one DC
// with small pages.

// TestSplitImageHoldsNoUnforcedEffect: an upsert TC 1 has not forced splits
// the root leaf, and the new root's flush forces the Split record. After TC 1
// and then the DC crash, redo installs the record's right-page image, which
// has no undo tail for the reset to roll the upsert back from: the image must
// not hold it.
func TestSplitImageHoldsNoUnforcedEffect(t *testing.T) {
	ctx := context.Background()
	d := newDC(t, Config{PageBytes: 256})
	tc := newBracketTC(t, d)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	const n = 10
	for i := 0; i < n; i++ {
		if r := tc.send(upsert(base.LSN(i+1), key(i), "v"), 0); r.Code != base.CodeOK {
			t.Fatal(r)
		}
	}
	d.EndOfStableLog(1, 1, n)
	d.LowWaterMark(1, 1, n)
	if err := d.Pool().FlushAll(false, nil); err != nil {
		t.Fatal(err)
	}
	// The largest key, so the right page takes it.
	if r := tc.send(upsert(n+1, key(n-1), fmt.Sprintf("%0120d", 0)), 0); r.Code != base.CodeOK {
		t.Fatal(r)
	}
	if splits(d) != 1 {
		t.Fatalf("%d splits, want the unforced upsert to split the root leaf", splits(d))
	}
	_ = d.Pool().FlushAll(false, nil) // the leaves hold LSN n+1 and stay; the new root goes
	logged := false
	for _, rec := range d.DCLog().Scan(0) {
		logged = logged || rec.Kind == dclog.KindSplit
	}
	if !logged {
		t.Fatal("the new root's flush left the Split record unforced")
	}

	restart(t, d)
	if err := d.BeginRestart(ctx, 1, 2, n); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRestart(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	if r := peerRead(d, key(n-1)); !r.Found || string(r.Value) != "v" {
		t.Fatalf("%s after the reset: %d bytes (found %v), want its forced value %q", key(n-1), len(r.Value), r.Found, "v")
	}
}

// TestConsolidateImageHoldsNoUnforcedEffect: deletes TC 1 has not forced
// underfill a leaf into its sibling, and a flush forces the Consolidate
// record. After TC 1 and then the DC crash, redo installs the merged image:
// it must hold the keys the lost deletes took.
func TestConsolidateImageHoldsNoUnforcedEffect(t *testing.T) {
	ctx := context.Background()
	d := newDC(t, Config{PageBytes: 256})
	tc := newBracketTC(t, d)
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
	stable := lsn
	d.EndOfStableLog(1, 1, stable)
	d.LowWaterMark(1, 1, stable)
	if err := d.Pool().FlushAll(false, nil); err != nil {
		t.Fatal(err)
	}
	deleted := n
	for consolidates(d) == 0 {
		deleted--
		send(base.Op{Kind: base.OpDelete, Key: key(deleted)})
	}
	_ = d.Pool().FlushAll(false, nil) // the merged leaf holds the deletes and stays
	logged := false
	for _, rec := range d.DCLog().Scan(0) {
		logged = logged || rec.Kind == dclog.KindConsolidate
	}
	if !logged {
		t.Fatal("no flush forced the Consolidate record")
	}

	restart(t, d)
	if err := d.BeginRestart(ctx, 1, 2, stable); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRestart(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	for i := deleted; i < n; i++ {
		if r := peerRead(d, key(i)); !r.Found {
			t.Errorf("%s gone after the reset: its delete was never forced", key(i))
		}
	}
}

// TestCheckpointCoversWhatASplitImageLacks: keys TC 1 had not forced move to
// a split's right page, so the Split record's image lacks them, and a later
// insert there makes that page's first dirtying operation newer than the
// checkpoint. The checkpoint must still make the page stable: TC 1 resends
// nothing below it to the recovered DC.
func TestCheckpointCoversWhatASplitImageLacks(t *testing.T) {
	ctx := context.Background()
	d := newDC(t, Config{PageBytes: 256})
	tc := newBracketTC(t, d)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	n := 0
	for ; splits(d) == 0; n++ {
		if r := tc.send(upsert(base.LSN(n+1), key(n), "v"), 0); r.Code != base.CodeOK {
			t.Fatal(r)
		}
	}
	last := upsert(base.LSN(n+1), key(n), "v") // the largest key: on the right page
	if r := tc.send(last, 0); r.Code != base.CodeOK {
		t.Fatal(r)
	}
	// Forced through the last insert, whose acknowledgement the checkpoint
	// does not wait for.
	d.EndOfStableLog(1, 1, last.LSN)
	d.LowWaterMark(1, 1, last.LSN-1)
	if err := d.Checkpoint(ctx, 1, 1, last.LSN); err != nil {
		t.Fatal(err)
	}

	restart(t, d)
	tc.begin()
	if r := tc.send(last, d.inc.Load().n); r.Code != base.CodeOK {
		t.Fatal(r)
	}
	tc.end()
	for i := 0; i <= n; i++ {
		if r := peerRead(d, key(i)); !r.Found {
			t.Errorf("%s lost: below the checkpoint, and not in the recovered DC", key(i))
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
	forced := func() {
		d.EndOfStableLog(1, 1, base.LSN(len(sent)))
		d.LowWaterMark(1, 1, base.LSN(len(sent)))
	}
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
	if err := d.Pool().FlushPage(a.ID, false); err != nil {
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
