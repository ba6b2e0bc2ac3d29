package tc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/buffer"
	"github.com/cidr09/unbundled/internal/placement"
)

// A versioned write carries its transaction's commit timestamp, and a DC
// takes the version for committed once the owner TC's safe timestamp passes
// it. These tests pin the two places where that rule meets a crash: a TC
// that dies between shipping its stamped writes and logging its commit
// record, and a DC that restarts holding a committed, stamped version.

// Every read below is a peer TC's: a DC serves a snapshot at T only once
// every TC it has heard from has a safe timestamp at T, so a reader that
// never broadcasts one would hold every snapshot read back.

// peerRead is peer's unlocked read of table/key of the given flavor.
func peerRead(t *testing.T, peer *TC, table, key string, flavor base.ReadFlavor) (string, bool) {
	t.Helper()
	var v []byte
	var ok bool
	if err := peer.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		var err error
		v, ok, err = x.readUnlocked(table, key, flavor)
		return err
	}); err != nil {
		t.Fatalf("%v read of %s/%s: %v", flavor, table, key, err)
	}
	return string(v), ok
}

// peerSnapshot reads table/key in a fresh snapshot of peer, or reports that
// the DC did not serve it within a short wait: it waits until every TC's safe
// timestamp covers the snapshot's.
func peerSnapshot(t *testing.T, peer *TC, table, key string) (val string, found, served bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	x := peer.Begin(ctx, TxnOptions{ReadOnly: true})
	defer x.Commit()
	v, ok, err := x.Read(table, key)
	if errors.Is(err, base.ErrCancelled) {
		return "", false, false
	}
	if err != nil {
		t.Fatalf("snapshot read of %s/%s: %v", table, key, err)
	}
	return string(v), ok, true
}

// TestStampLoserInvisibleThroughTCRestart: the TC crashes after DC 0 has
// acknowledged a transaction's writes, stamped with its commit timestamp,
// and before its commit batch — the writes' redo-only records and the commit
// record — is stable; the commit is ambiguous, and the crash decides it: a
// loser, of which the stable log holds nothing, so the DC's reset at the
// start of the resend takes the stamped version back. The loser's version
// must stay invisible to a peer TC's committed reads and to snapshot reads
// above its timestamp from the crash to the end of the restart — a tick of
// the dead incarnation landing after the crash passes no safe timestamp —
// and the successor's safe timestamp passes the loser's (it floors at the
// allocator): a broadcast of the successor's, sent with its epoch at two
// points of the resend bracket, the redo and its end, is dropped, and so is
// the GC horizon it carries, past everything. At every point DC 0 first tries
// to write back every page it holds, as its evictions do: a write-back
// collects the history of a head stamped at or below the DC's horizon, and the
// loser's update must keep its before version and its versioned insert of a
// new key the null version, so that both read as before the loser, its prior
// value and absent, whatever the write-backs did.
func TestStampLoserInvisibleThroughTCRestart(t *testing.T) {
	writer, dcs, stubs := newCountedPair(t)
	router := placement.MustParse("t: dc=0; u: dc=1")
	peer, err := New(Config{ID: 2}, []base.Service{dcs[0], dcs[1]}, router)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(peer.Close)
	upsert := func(x *Txn, val string) error {
		for _, table := range []string{"t", "u"} {
			if err := x.Upsert(table, "k", []byte(val)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writer.RunTxnOnce(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
		return upsert(x, "v0")
	}); err != nil {
		t.Fatal(err)
	}
	safeTick(writer)
	if v, ok := peerRead(t, peer, "t", "k", base.ReadCommitted); !ok || v != "v0" {
		t.Fatalf("committed read of the first commit: %q %v", v, ok)
	}

	successor := writer.Epoch() + 1
	var dead *incarnation
	stubs[1].setHook(func(call string) {
		if call != "write" || dead != nil {
			return
		}
		// DC 0 has the stamped write, DC 1's is on its way, and the TC
		// dies before the commit batch is forced.
		dead = writer.inc.Load()
		writer.Crash()
	})
	x := writer.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := upsert(x, "v1"); err != nil {
		t.Fatal(err)
	}
	if err := x.Upsert("t", "new", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); !errors.Is(err, ErrTCStopped) || !errors.Is(err, ErrCommitAmbiguous) {
		t.Fatalf("commit under the crash = %v, want an ambiguous ErrTCStopped", err)
	}
	stubs[1].setHook(nil)
	c := x.commitTS
	if c == 0 || dead == nil {
		t.Fatalf("commit timestamp %d, crashed %v: the test shows nothing", c, dead != nil)
	}
	// A tick of the dead incarnation that was under way at the crash lands
	// now: the orphan's commit timestamp is in tables nobody reads.
	dead.broadcastWatermarks()

	// invisible checks what the crash window promises at DC 0, once DC 0 has
	// tried to write back every page: the stamped versions are there (or the
	// check shows nothing), and neither a committed read nor a snapshot,
	// whose timestamp is above the loser's, sees them.
	invisible := func(when string, stampedThere bool) {
		t.Helper()
		if err := dcs[0].Pool().FlushAll(false, nil); err != nil && !errors.Is(err, buffer.ErrNotFlushable) {
			t.Fatalf("%s: write-back: %v", when, err)
		}
		for key, prior := range map[string]string{"k": "v0", "new": ""} {
			if v, ok := peerRead(t, peer, "t", key, base.ReadDirty); stampedThere != (ok && v == "v1") {
				t.Fatalf("%s: DC 0 holds %s = %q %v, stamped loser there: want %v", when, key, v, ok, stampedThere)
			}
			if v, ok := peerRead(t, peer, "t", key, base.ReadCommitted); ok != (prior != "") || v != prior {
				t.Fatalf("%s: peer's committed read of %s %q %v, want %q", when, key, v, ok, prior)
			}
			if v, ok, served := peerSnapshot(t, peer, "t", key); served && (ok != (prior != "") || v != prior) {
				t.Fatalf("%s: snapshot above the loser's timestamp read %s = %q %v", when, key, v, ok)
			}
		}
	}
	invisible("TC down", true)

	// tick is a broadcast of the successor, whose own tick starts only once
	// Recover has published it: a safe timestamp past everything.
	tick := func() {
		if e := dcs[0].EpochOf(1); e != successor {
			t.Errorf("DC 0 fences TC 1 at epoch %d, want the successor's %d", e, successor)
		}
		dcs[0].SafeTS(1, successor, math.MaxUint64/2, math.MaxUint64/2)
		time.Sleep(3 * time.Millisecond) // the peer's ticks pass meanwhile
	}
	var points []string
	stubs[0].setHook(func(call string) {
		switch call {
		case "write": // the resend's redo of the first commit, after BeginRestart
			tick()
			invisible("bracket open, the redo", false)
		case "end-restart": // redo delivered, bracket not yet closed
			tick()
			invisible("bracket open, after the redo", false)
		default:
			return
		}
		points = append(points, call)
	})
	if err := writer.Recover(); err != nil {
		t.Fatal(err)
	}
	stubs[0].setHook(nil)
	if len(points) < 2 || points[0] != "write" || points[len(points)-1] != "end-restart" {
		t.Fatalf("resend passed %v, want the redo and then the bracket's end", points)
	}
	safeTick(writer)
	invisible("after the restart", false)
	if v, ok, served := peerSnapshot(t, peer, "t", "k"); !served || !ok || v != "v0" {
		t.Fatalf("snapshot above the loser's timestamp after the restart: %q %v served %v, want v0", v, ok, served)
	}
	if _, err := writer.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	invisible("after a checkpoint", false)
}

// TestStampReadsBeforeUntilDCResend: a DC that restarts holds no TC's safe
// timestamp until that TC's resend to it has ended, so a committed head whose
// before version no later write has folded away — here made stable by a
// checkpoint, so the resend repeats nothing of it — reads as its before
// version to committed reads until the owner's resend bracket closes, the
// owner's ticks meanwhile dropped, and as the new value from the owner's
// broadcast that ends the resend on. A snapshot read waits all along.
func TestStampReadsBeforeUntilDCResend(t *testing.T) {
	writer, dcs, stubs := newCountedPair(t)
	peer, err := New(Config{ID: 2}, []base.Service{dcs[0], dcs[1]}, placement.MustParse("t: dc=0; u: dc=1"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(peer.Close)
	for _, v := range []string{"v0", "v1"} {
		commitVersioned(t, writer, "k", v)
	}
	safeTick(writer)
	committed := func() (string, bool) { return peerRead(t, peer, "t", "k", base.ReadCommitted) }
	if v, ok := committed(); !ok || v != "v1" {
		t.Fatalf("committed read before the restart: %q %v, want v1", v, ok)
	}
	if _, err := writer.Checkpoint(context.Background()); err != nil {
		t.Fatal(err)
	}
	dcs[0].Crash()
	if err := dcs[0].Recover(); err != nil {
		t.Fatal(err)
	}
	before := func(when string) {
		t.Helper()
		if v, ok := peerRead(t, peer, "t", "k", base.ReadDirty); !ok || v != "v1" {
			t.Fatalf("%s: the stable head is %q %v, want v1", when, v, ok)
		}
		if v, ok := committed(); !ok || v != "v0" {
			t.Fatalf("%s: committed read %q %v, want the before version v0", when, v, ok)
		}
		if v, ok, served := peerSnapshot(t, peer, "t", "k"); served {
			t.Fatalf("%s: a snapshot served %q %v before the owner's resend", when, v, ok)
		}
	}
	before("restarted")
	var ended bool
	stubs[0].setHook(func(call string) {
		if call == "end-restart" {
			time.Sleep(3 * time.Millisecond) // the owner's ticks pass meanwhile
			before("bracket open")
			ended = true
		}
	})
	if err := writer.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	stubs[0].setHook(nil)
	if !ended {
		t.Fatal("the resend never reached its bracket's end")
	}
	if v, ok := committed(); !ok || v != "v1" {
		t.Fatalf("committed read after the resend: %q %v, want v1", v, ok)
	}
	if v, ok, served := peerSnapshot(t, peer, "t", "k"); !served || !ok || v != "v1" {
		t.Fatalf("snapshot after the resend: %q %v served %v, want v1", v, ok, served)
	}
}

// TestEarlierBarrierWritesShipAgainStamped: versioned writes an earlier
// barrier shipped leave without the commit timestamp, so the commit barrier
// writes each again as its transaction cache holds it — an Upsert, or a
// Delete over the transaction's own pending tombstone — stamped, in one
// frame; a committed read sees the commit from the owner's next tick on.
func TestEarlierBarrierWritesShipAgainStamped(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	stopTick(tcx)
	commitVersioned(t, tcx, "gone", "v0")
	stubs[0].take()
	x := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := x.Upsert("t", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := x.Delete("t", "gone"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := x.ReadDirty("t", "k"); err != nil { // a barrier: both leave unstamped
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, _, batches := stubs[0].take(); fmt.Sprint(only(batches, false)) != "[2w 2w]" {
		t.Fatalf("write frames %v, want the barrier's two writes and the commit's two again", batches)
	}
	committed := func(key string) (string, bool) {
		r := dcs[0].Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: key,
			Flavor: base.ReadCommitted})
		return string(r.Value), r.Found
	}
	if v, ok := committed("gone"); !ok || v != "v0" {
		t.Fatalf("gone before the tick: %q %v, want v0", v, ok)
	}
	safeTick(tcx)
	if v, ok := committed("k"); !ok || v != "v1" {
		t.Fatalf("k after the tick: %q %v, want v1", v, ok)
	}
	if v, ok := committed("gone"); ok {
		t.Fatalf("gone after the tick: %q, want no version", v)
	}
}
