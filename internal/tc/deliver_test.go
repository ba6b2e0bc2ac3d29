package tc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/wal"
)

// stopTick stops tcx's watermark tick, and only it: from then on the DCs
// hear its safe timestamp when safeTick broadcasts it.
func stopTick(tcx *TC) {
	tcx.stopOnce.Do(func() { close(tcx.stopCh) })
	tcx.wg.Wait()
}

// safeTick is one of tcx's ticks, by hand: the broadcast after which a DC
// takes every version tcx stamped for a commit whose record is forced for
// committed.
func safeTick(tcx *TC) { tcx.inc.Load().broadcastWatermarks() }

func TestVersionedBlindUpsert(t *testing.T) {
	tcx, d := newPair(t, Config{})
	stopTick(tcx)
	// Versioned upserts skip the existence pre-check entirely; semantics
	// must be unchanged.
	if err := tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
		return x.Upsert("t", "v", []byte("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	rc := func() *base.Result {
		return d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "v",
			Flavor: base.ReadCommitted})
	}
	// Commit has shipped v1 stamped with its commit timestamp and forced
	// the commit record: read-committed sees v1 after the owner's next safe
	// timestamp broadcast, not before.
	if r := rc(); r.Found {
		t.Fatalf("committed read before the owner's safe timestamp passed the commit: %+v", r)
	}
	safeTick(tcx)
	if r := rc(); !r.Found || string(r.Value) != "v1" {
		t.Fatalf("committed read: %+v", r)
	}
	x := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := x.Upsert("t", "v", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	safeTick(tcx)
	if r := rc(); string(r.Value) != "v2" {
		t.Fatalf("after second commit: %+v", r)
	}
	// An aborted blind upsert never leaves the TC.
	y := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := y.Upsert("t", "v", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if err := y.Abort(); err != nil {
		t.Fatal(err)
	}
	if r := rc(); string(r.Value) != "v2" {
		t.Fatalf("after abort: %+v", r)
	}
}

// TestLoggedWriteRidesOutDCOutage: the §4.2 resend contract. A logged write
// issued while its DC admits nothing — it is draining, or crashed and not yet
// redone — parks in deliver's resend loop and lands once the DC admits again;
// until then its LSN, whose only replies were unavailable nacks, must not
// complete in the ack tracker (the low-water mark would tell the DC that the
// operation was acknowledged).
func TestLoggedWriteRidesOutDCOutage(t *testing.T) {
	outages := []struct {
		name string
		down func(*dc.DC)
		up   func(*TC, *dc.DC) error
	}{
		{"drain", (*dc.DC).Drain, func(_ *TC, d *dc.DC) error {
			d.Undrain()
			return nil
		}},
		{"crash", (*dc.DC).Crash, func(tcx *TC, d *dc.DC) error {
			if err := d.Recover(); err != nil {
				return err
			}
			return tcx.RecoverDC(0)
		}},
	}
	for _, o := range outages {
		t.Run(o.name, func(t *testing.T) {
			tcx, d := newPair(t, Config{})
			if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
				return x.Insert("t", "pre", []byte("v"))
			}); err != nil {
				t.Fatal(err)
			}
			o.down(d)
			// Versioned: the upsert needs no pre-check read, so its op
			// record takes the very next LSN and the write is the first
			// thing to meet the outage.
			nacked := tcx.Log().LastLSN() + 1
			done := make(chan error, 1)
			go func() {
				done <- tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
					return x.Upsert("t", "during", []byte("v"))
				})
			}()
			for end := time.Now().Add(20 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
				select {
				case err := <-done:
					t.Fatalf("transaction finished against a DC that admits nothing: %v", err)
				default:
				}
				if lwm := tcx.inc.Load().acks.LWM(); lwm >= nacked {
					t.Fatalf("low-water mark %d reached LSN %d, which was only ever nacked", lwm, nacked)
				}
			}
			if err := o.up(tcx, d); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("write never landed after the DC admitted again")
			}
			if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
				if v, ok, err := x.Read("t", "during"); err != nil || !ok || string(v) != "v" {
					return fmt.Errorf("write issued during the outage reads back %q %v %v", v, ok, err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// closedStubService mimics a wire client whose Close was called: every
// call answers CodeUnavailable and Closed reports true.
type closedStubService struct {
	base.Service
	closed atomic.Bool
}

func (s *closedStubService) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	if !s.closed.Load() {
		return s.Service.PerformBatch(ctx, ops)
	}
	out := make([]*base.Result, len(ops))
	for i, op := range ops {
		out[i] = &base.Result{LSN: op.LSN, Code: base.CodeUnavailable}
	}
	return out
}

func (s *closedStubService) Closed() bool { return s.closed.Load() }

func TestLoggedWriteUnblocksWhenStubClosed(t *testing.T) {
	// A wire stub closed before the TC (out-of-order shutdown) answers
	// everything with CodeUnavailable; deliver must recognize the closed
	// stub and fail the barrier instead of resending forever.
	d, err := dc.New(dc.Config{Name: "dc0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	stub := &closedStubService{Service: d}
	tcx, err := New(Config{ID: 1}, []base.Service{stub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	stub.closed.Store(true)
	done := make(chan error, 1)
	go func() {
		done <- tcx.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
			return x.Upsert("t", "k", []byte("v"))
		})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrTCStopped) {
			t.Fatalf("transaction error = %v, want ErrTCStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transaction hung against a closed stub")
	}
}

func TestStaleBatchNotDeliveredAfterTCCrash(t *testing.T) {
	// A batch parked in the unavailable-retry loop (DC down) when the TC
	// crashes belongs to a dead incarnation: after recovery it is retired,
	// not delivered. Its records were forced before it left, so its
	// transaction is a winner, and the restart's redo delivers its write.
	tcx, d := newPair(t, Config{})
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
		return x.Insert("t", "committed", []byte("keep"))
	}); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	x := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := x.Upsert("t", "ghost", []byte("x")); err != nil {
		t.Fatal(err)
	}
	sent := tcx.Stats().OpsSent
	commit := make(chan error, 1)
	go func() { commit <- x.Commit() }() // logs and forces the write and parks shipping it
	for tcx.Stats().OpsSent == sent {
		time.Sleep(time.Millisecond)
	}
	tcx.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	// The parked commit returns within one backoff of the restart, retired
	// with ErrTCStopped: an ambiguous outcome, which the stable log decides.
	select {
	case err := <-commit:
		if !errors.Is(err, ErrTCStopped) || !errors.Is(err, ErrCommitAmbiguous) {
			t.Fatalf("parked commit = %v, want an ambiguous ErrTCStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked commit never returned after the restart")
	}
	r := d.Perform(context.Background(), &base.Op{TC: 9, Kind: base.OpRead, Table: "t", Key: "ghost",
		Flavor: base.ReadDirty})
	if !r.Found || string(r.Value) != "x" {
		t.Fatalf("the forced commit's write after crash+recovery: %+v", r)
	}
	if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(y *Txn) error {
		if v, ok, _ := y.Read("t", "committed"); !ok || string(v) != "keep" {
			return fmt.Errorf("committed data wrong: %q %v", v, ok)
		}
		return y.Insert("t", "after", []byte("ok"))
	}); err != nil {
		t.Fatal(err)
	}
}

// TestPacerHoldsOneTimer: every pause of one retrying call is timed by the
// same timer, and a call that leaves mid-pause leaves nothing waiting to fire.
func TestPacerHoldsOneTimer(t *testing.T) {
	var p pacer
	p.stop() // a call that never paused has nothing to stop
	first := p.after(time.Millisecond)
	<-first
	timer := p.t
	for i := 0; i < 3; i++ {
		if c := p.after(time.Millisecond); c != first || p.t != timer {
			t.Fatal("a later pause of the same call made a timer of its own")
		}
		<-first
	}
	parked := p.after(time.Hour)
	p.stop()
	if p.t.Stop() {
		t.Fatal("stop left the call's timer running")
	}
	select {
	case <-parked:
		t.Fatal("a stopped pause fired")
	default:
	}
}

// TestPublishedLWMNeverPassesTheStableLog: a record that needs no DC round
// trip completes its LSN at its append, so the ack tracker's low-water mark
// runs ahead of the stable log while such records wait for a force; the mark
// a TC publishes must not. Here two such records are appended and not forced,
// the marks published, and the DC's pages pruned to them by a write-back.
// The TC crashes, and its successor hands the two LSNs out again: the first
// to its epoch record, the second to a write, which must execute, not be
// skipped as one the page already holds.
func TestPublishedLWMNeverPassesTheStableLog(t *testing.T) {
	tcx, dcs, stubs := newCountedPair(t)
	stopTick(tcx)
	put := func(val string) {
		t.Helper()
		if err := tcx.RunTxn(context.Background(), TxnOptions{}, func(x *Txn) error {
			return x.Upsert("t", "k", []byte(val))
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("v1")
	inc := tcx.inc.Load()
	stable := tcx.log.EOSL()
	for i := 0; i < 2; i++ {
		inc.logLocal(&wal.Record{Kind: recCheckpoint, Payload: encodeCheckpoint(tcx.RSSP(), inc.epoch)})
	}
	if lwm := inc.acks.LWM(); lwm != stable+2 {
		t.Fatalf("ack tracker at %d with the stable log at %d: the test shows nothing", lwm, stable)
	}
	stubs[0].takeMarks()
	inc.publishStable()
	if got, want := fmt.Sprint(stubs[0].takeMarks()), fmt.Sprintf("[eosl %d lwm %d]", stable, stable); got != want {
		t.Fatalf("published %s, want %s", got, want)
	}
	if err := dcs[0].Pool().FlushAll(false, nil); err != nil {
		t.Fatal(err)
	}
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	put("v2")
	if v, ok := dirty(dcs[0], "t", "k"); !ok || v != "v2" {
		t.Fatalf("t/k = %q %v after the successor's write, want v2", v, ok)
	}
}
