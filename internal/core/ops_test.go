package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// TestDrainUnderConcurrentLoad is the operations-plane contract under
// load (run it with -race): while writers hammer a two-TC deployment,
// draining one TC (a) lets its in-flight transactions complete and the TC
// reach quiesced, (b) rejects work pinned to it with the typed transient
// ErrDraining, (c) loses no committed write because auto-routed load
// re-routes onto the other TC, and (d) undrain restores admission.
func TestDrainUnderConcurrentLoad(t *testing.T) {
	d, err := New(Options{TCs: 2, DCs: 2,
		Placement: placement.MustParse("kv: dc=hash(2) owner=any")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client := d.Client()
	ctx := context.Background()

	var committed atomic.Uint64
	var failed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("d%d-%06d", w, i)
				err := client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
					return x.Upsert("kv", key, []byte(key))
				})
				if err != nil {
					failed.Add(1)
				} else {
					committed.Add(1)
				}
			}
		}(w)
	}

	time.Sleep(20 * time.Millisecond) // load flowing through both TCs
	before := committed.Load()
	d.TCs[0].Drain()

	// (a) the drained TC finishes its in-flight work and quiesces.
	qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
	err = d.TCs[0].WaitQuiesced(qctx)
	qcancel()
	if err != nil {
		t.Fatalf("drained TC did not quiesce under load: %v", err)
	}

	// (b) work pinned to the drained TC is refused typed and transient.
	_, err = client.Begin(ctx, TxnOptions{TC: int(d.TCs[0].ID())})
	if !errors.Is(err, base.ErrDraining) {
		t.Fatalf("Begin pinned to drained TC: err = %v, want ErrDraining", err)
	}
	if !base.IsTransient(err) {
		t.Fatalf("ErrDraining must be transient, got %v", err)
	}

	// (c) auto-routed load keeps committing on the remaining TC.
	deadline := time.Now().Add(5 * time.Second)
	for committed.Load() < before+50 {
		if time.Now().After(deadline) {
			t.Fatalf("load did not re-route around the drained TC: %d -> %d commits",
				before, committed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if n := d.TCs[0].ActiveTxns(); n != 0 {
		t.Fatalf("drained TC reports %d active transactions after quiesce", n)
	}

	// (d) undrain restores admission.
	d.TCs[0].Undrain()
	if d.TCs[0].Draining() {
		t.Fatal("still draining after Undrain")
	}
	if err := client.RunTxn(ctx, TxnOptions{TC: int(d.TCs[0].ID())}, func(x *tc.Txn) error {
		return x.Upsert("kv", "after-undrain", []byte("v"))
	}); err != nil {
		t.Fatalf("txn on undrained TC: %v", err)
	}

	close(stop)
	wg.Wait()

	// Nothing committed may be lost: spot-check by counting stats — every
	// committed RunTxn reached its commit barrier, so the drained window
	// admitted no torn work.
	st0, st1 := d.TCs[0].Stats(), d.TCs[1].Stats()
	if st0.Commits+st1.Commits < committed.Load() {
		t.Fatalf("TC commit counters (%d+%d) below client-observed commits (%d)",
			st0.Commits, st1.Commits, committed.Load())
	}
}

// TestDrainWaitsForInFlight pins the quiesce definition: a drained TC
// with an open transaction is not quiesced until that transaction ends.
func TestDrainWaitsForInFlight(t *testing.T) {
	d, err := New(Options{TCs: 1, DCs: 1, Tables: []string{"kv"}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	x := d.TCs[0].Begin(ctx, tc.TxnOptions{})
	if err := x.Upsert("kv", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	d.TCs[0].Drain()
	if d.TCs[0].Quiesced() {
		t.Fatal("quiesced while a transaction is in flight")
	}
	// New admission is already refused while the old transaction runs on.
	err = d.TCs[0].RunTxnOnce(ctx, tc.TxnOptions{}, func(*tc.Txn) error { return nil })
	if !errors.Is(err, base.ErrDraining) {
		t.Fatalf("RunTxnOnce during drain: err = %v, want ErrDraining", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatalf("in-flight commit during drain: %v", err)
	}
	qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
	defer qcancel()
	if err := d.TCs[0].WaitQuiesced(qctx); err != nil {
		t.Fatalf("WaitQuiesced after in-flight commit: %v", err)
	}
}

// TestCrashMidDrainRecoversServing is the kill -9 mid-drain case: drain
// state is not persisted, so a TC that crashes while draining restarts
// serving — operators drain again if they still want the node out.
func TestCrashMidDrainRecoversServing(t *testing.T) {
	d, err := New(Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
		TCConfig: func(int) tc.Config { return tc.Config{Dir: t.TempDir()} }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()

	if err := d.TCs[0].RunTxn(ctx, tc.TxnOptions{}, func(x *tc.Txn) error {
		return x.Upsert("kv", "pre-crash", []byte("v1"))
	}); err != nil {
		t.Fatal(err)
	}
	d.TCs[0].Drain()
	qctx, qcancel := context.WithTimeout(ctx, 10*time.Second)
	err = d.TCs[0].WaitQuiesced(qctx)
	qcancel()
	if err != nil {
		t.Fatal(err)
	}

	d.CrashTC(0)
	if err := d.RecoverTC(0); err != nil {
		t.Fatalf("recovery of a TC crashed mid-drain: %v", err)
	}
	if d.TCs[0].Draining() {
		t.Fatal("drain survived the crash; a restarted incarnation must serve")
	}
	if err := d.TCs[0].RunTxn(ctx, tc.TxnOptions{}, func(x *tc.Txn) error {
		v, ok, err := x.Read("kv", "pre-crash")
		if err != nil {
			return err
		}
		if !ok || string(v) != "v1" {
			return fmt.Errorf("pre-crash write lost: %q %v", v, ok)
		}
		return x.Upsert("kv", "post-crash", []byte("v2"))
	}); err != nil {
		t.Fatalf("txn after mid-drain crash recovery: %v", err)
	}
}

// TestWaitQuiescedDetectsUndrain: an operator flipping the drain off
// mid-wait fails the waiter instead of blocking it forever.
func TestWaitQuiescedDetectsUndrain(t *testing.T) {
	d, err := New(Options{TCs: 1, DCs: 1, Tables: []string{"kv"}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	x := d.TCs[0].Begin(context.Background(), tc.TxnOptions{})
	if err := x.Upsert("kv", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	d.TCs[0].Drain()
	go func() {
		time.Sleep(10 * time.Millisecond)
		d.TCs[0].Undrain()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.TCs[0].WaitQuiesced(ctx); err == nil {
		t.Fatal("WaitQuiesced returned success though the drain was lifted")
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestValidatePlacementInProcess cross-checks the spec against in-process
// DC catalogs: a deployment whose DCs were given different tables than
// the placement routes fails typed.
func TestValidatePlacementInProcess(t *testing.T) {
	ok, err := New(Options{TCs: 1, DCs: 2,
		Placement: placement.MustParse("kv: dc=hash(2)")})
	if err != nil {
		t.Fatal(err)
	}
	defer ok.Close()
	if err := ok.ValidatePlacement(context.Background()); err != nil {
		t.Fatalf("matching deployment failed validation: %v", err)
	}

	// Tables overrides what the DCs serve; the placement still routes "kv".
	bad, err := New(Options{TCs: 1, DCs: 2, Tables: []string{"other"},
		Placement: placement.MustParse("kv: dc=hash(2)")})
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	err = bad.ValidatePlacement(context.Background())
	if !errors.Is(err, base.ErrPlacementMismatch) {
		t.Fatalf("mismatched deployment: err = %v, want ErrPlacementMismatch", err)
	}
}

// TestValidatePlacementRemote cross-checks over the wire: the "DC
// process" is a dc.DC behind a wire.Listener in this test, answering
// msgCatalog for real.
func TestValidatePlacementRemote(t *testing.T) {
	startDC := func(tables ...string) *wire.Listener {
		dci, err := dc.New(dc.Config{Name: "dc0"})
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range tables {
			if err := dci.CreateTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
		l, err := wire.Listen("127.0.0.1:0", dci)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	l := startDC("kv")
	defer l.Close()
	dep, err := New(Options{DCAddrs: []string{l.Addr()},
		Placement: placement.MustParse("kv: dc=0")})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dep.WaitConnected(ctx); err != nil {
		t.Fatal(err)
	}
	if err := dep.ValidatePlacement(ctx); err != nil {
		t.Fatalf("matching remote fleet failed validation: %v", err)
	}

	l2 := startDC("users") // serves the wrong table
	defer l2.Close()
	dep2, err := New(Options{DCAddrs: []string{l2.Addr()},
		Placement: placement.MustParse("kv: dc=0")})
	if err != nil {
		t.Fatal(err)
	}
	defer dep2.Close()
	if err := dep2.WaitConnected(ctx); err != nil {
		t.Fatal(err)
	}
	err = dep2.ValidatePlacement(ctx)
	if !errors.Is(err, base.ErrPlacementMismatch) {
		t.Fatalf("misassembled remote fleet: err = %v, want ErrPlacementMismatch", err)
	}
}

// TestStatsRegistryCoversDeployment asserts the registry schema an admin
// endpoint publishes: per-TC groups, per-DC groups, and the simulated
// fabric under "net", with live counters behind them.
func TestStatsRegistryCoversDeployment(t *testing.T) {
	d, err := New(Options{TCs: 2, DCs: 2, Tables: []string{"kv"},
		Placement: placement.MustParse("kv: dc=hash(2) owner=any"),
		Network:   &wire.Config{}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Client().RunTxn(context.Background(), TxnOptions{}, func(x *tc.Txn) error {
		return x.Upsert("kv", "k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	snap := d.StatsRegistry().Snapshot()
	for _, g := range []string{"tc1", "tc2", "dc0", "dc1", "net", "wire"} {
		if _, ok := snap[g]; !ok {
			t.Fatalf("registry snapshot missing group %q (have %v)", g, keys(snap))
		}
	}
	if snap["tc1"]["commits"]+snap["tc2"]["commits"] == 0 {
		t.Fatal("no commits visible through the registry")
	}
	if snap["dc0"]["performs"]+snap["dc1"]["performs"] == 0 {
		t.Fatal("no performs visible through the registry")
	}
	if snap["net"]["sent"] == 0 {
		t.Fatal("no traffic visible under the net group")
	}
}

func keys(m map[string]map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestClientRoutesAroundDownTC: a crashed TC admits nothing until it is
// recovered, and with an empty transaction table it would win every
// least-inflight tiebreak; the client skips it the way it skips a draining
// one. Auto-routed transactions commit on the peer without spending a retry,
// one pinned to the down TC is refused typed and transient, and the
// recovered TC takes work again.
func TestClientRoutesAroundDownTC(t *testing.T) {
	d, err := New(Options{TCs: 2, DCs: 1,
		Placement: placement.MustParse("kv: dc=0 owner=any")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	client := d.Client()
	ctx := context.Background()
	d.CrashTC(0)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%02d", i)
		if err := client.RunTxn(ctx, TxnOptions{MaxAttempts: 1}, func(x *tc.Txn) error {
			return x.Upsert("kv", key, []byte("v"))
		}); err != nil {
			t.Fatalf("auto-routed transaction %d beside a down TC: %v", i, err)
		}
	}
	if got := d.TCs[1].Stats().Commits; got != 20 {
		t.Fatalf("the serving TC committed %d of 20 transactions", got)
	}
	err = client.RunTxn(ctx, TxnOptions{TC: int(d.TCs[0].ID()), MaxAttempts: 2}, func(x *tc.Txn) error {
		return x.Upsert("kv", "pinned", []byte("v"))
	})
	if !errors.Is(err, base.ErrUnavailable) || !base.IsTransient(err) {
		t.Fatalf("transaction pinned to a down TC: %v, want a transient ErrUnavailable", err)
	}
	if err := d.RecoverTC(0); err != nil {
		t.Fatal(err)
	}
	if err := client.RunTxn(ctx, TxnOptions{TC: int(d.TCs[0].ID())}, func(x *tc.Txn) error {
		return x.Upsert("kv", "pinned", []byte("v"))
	}); err != nil {
		t.Fatalf("transaction on the recovered TC: %v", err)
	}
}
