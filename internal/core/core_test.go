package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

func TestEndToEndDirect(t *testing.T) {
	d, err := New(Options{TCs: 1, DCs: 2, Tables: []string{"kv"},
		Placement: placement.MustParse("kv: dc=range(<m:0,*:1)"),
		DCConfig:  func(int) dc.Config { return dc.Config{CheckConflicts: true} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tcx := d.TCs[0]
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("%c%03d", 'a'+byte(i%26), i)
		if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", key, []byte(fmt.Sprintf("v%d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Keys landed on both DCs.
	if d.DCs[0].Stats().Performs == 0 || d.DCs[1].Stats().Performs == 0 {
		t.Fatal("routing sent everything to one DC")
	}
	if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("%c%03d", 'a'+byte(i%26), i)
			v, ok, err := x.Read("kv", key)
			if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("key %s: %q %v %v", key, v, ok, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, dci := range d.DCs {
		if v := dci.Stats().ConflictViols; v != 0 {
			t.Fatalf("conflict invariant violated: %d", v)
		}
	}
}

func TestEndToEndLossyNetwork(t *testing.T) {
	d, err := New(Options{TCs: 1, DCs: 2, Tables: []string{"kv"},
		Placement: placement.MustParse("kv: dc=range(<m:0,*:1)"),
		Network: &wire.Config{LossProb: 0.1, DupProb: 0.05,
			Jitter: 200 * time.Microsecond, ResendAfter: 2 * time.Millisecond, Seed: 7},
		DCConfig: func(int) dc.Config { return dc.Config{CheckConflicts: true} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tcx := d.TCs[0]
	model := map[string]string{}
	rnd := rand.New(rand.NewSource(3))
	for i := 0; i < 150; i++ {
		key := fmt.Sprintf("%c%02d", 'a'+byte(rnd.Intn(26)), rnd.Intn(40))
		val := fmt.Sprintf("v%d", i)
		del := rnd.Intn(4) == 0
		err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
			if del {
				if _, ok, _ := x.Read("kv", key); !ok {
					return nil
				}
				return x.Delete("kv", key)
			}
			return x.Upsert("kv", key, []byte(val))
		})
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if del {
			delete(model, key)
		} else {
			model[key] = val
		}
	}
	if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
		for k, want := range model {
			v, ok, err := x.Read("kv", k)
			if err != nil || !ok || string(v) != want {
				return fmt.Errorf("%s: got %q,%v want %q (err %v)", k, v, ok, want, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if d.net.Stats().Resends == 0 {
		t.Fatal("lossy network should have caused resends")
	}
	for _, dci := range d.DCs {
		if v := dci.Stats().ConflictViols; v != 0 {
			t.Fatalf("conflict invariant violated under loss: %d", v)
		}
	}
}

// TestCrashRecoveryFuzz is the paper's whole-system correctness check:
// random workload interleaved with random TC / DC / joint crashes; after
// every recovery the database must equal the model built from committed
// transactions only.
func TestCrashRecoveryFuzz(t *testing.T) {
	d, err := New(Options{TCs: 1, DCs: 2, Tables: []string{"kv"},
		Placement: placement.MustParse("kv: dc=range(<m:0,*:1)"),
		DCConfig: func(int) dc.Config {
			return dc.Config{PageBytes: 512, CheckConflicts: true}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tcx := d.TCs[0]
	model := map[string]string{}
	rnd := rand.New(rand.NewSource(99))

	verify := func(round int) {
		t.Helper()
		if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
			for k, want := range model {
				v, ok, err := x.Read("kv", k)
				if err != nil || !ok || string(v) != want {
					return fmt.Errorf("round %d key %s: got %q,%v want %q (err %v)",
						round, k, v, ok, want, err)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 12; round++ {
		// Committed work.
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("%c%02d", 'a'+byte(rnd.Intn(26)), rnd.Intn(30))
			val := fmt.Sprintf("r%d-%d", round, i)
			op := rnd.Intn(5)
			err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
				if op == 0 {
					if _, ok, _ := x.Read("kv", key); ok {
						return x.Delete("kv", key)
					}
					return nil
				}
				return x.Upsert("kv", key, []byte(val))
			})
			if err != nil {
				t.Fatalf("round %d txn: %v", round, err)
			}
			if op == 0 {
				delete(model, key)
			} else {
				model[key] = val
			}
		}
		// Occasional checkpoints bound redo work.
		if rnd.Intn(3) == 0 {
			if _, err := tcx.Checkpoint(context.Background()); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		// Crash something. When the TC itself will crash, sometimes leave
		// an uncommitted transaction hanging into the crash: its effects
		// must vanish (the TC crash clears its lock table, so the hanging
		// transaction cannot block later rounds).
		crash := rnd.Intn(4)
		if (crash == 0 || crash == 2) && rnd.Intn(2) == 0 {
			x := tcx.Begin(context.Background(), tc.TxnOptions{})
			_ = x.Upsert("kv", "zz-ghost", []byte("ghost"))
			// no commit: dies with the TC
		}
		switch crash {
		case 0: // TC crash
			d.CrashTC(0)
			if err := d.RecoverTC(0); err != nil {
				t.Fatalf("round %d recover TC: %v", round, err)
			}
		case 1: // one DC crash
			i := rnd.Intn(2)
			d.CrashDC(i)
			if err := d.RecoverDC(i); err != nil {
				t.Fatalf("round %d recover DC%d: %v", round, i, err)
			}
		case 2: // everything
			d.CrashAll()
			if err := d.RecoverAll(); err != nil {
				t.Fatalf("round %d recover all: %v", round, err)
			}
		case 3: // no crash this round
		}
		delete(model, "zz-ghost")
		verify(round)
		if _, ok := model["zz-ghost"]; ok {
			t.Fatal("model corrupted")
		}
		// The ghost must never be visible.
		if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
			if _, ok, _ := x.Read("kv", "zz-ghost"); ok {
				return fmt.Errorf("uncommitted ghost survived round %d", round)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, dci := range d.DCs {
		if v := dci.Stats().ConflictViols; v != 0 {
			t.Fatalf("conflict invariant violated: %d", v)
		}
	}
}

// TestMultiTCSharedDC exercises §6: two updating TCs with disjoint key
// partitions over one DC, a TC crash resetting only its own records, and
// cross-TC read-committed reads.
func TestMultiTCSharedDC(t *testing.T) {
	d, err := New(Options{TCs: 2, DCs: 1, Tables: []string{"users"},
		DCConfig: func(int) dc.Config { return dc.Config{CheckConflicts: true} },
		// TC1's forces are slow enough for the test to act between a
		// commit's ship and its force.
		TCConfig: func(i int) tc.Config {
			if i == 0 {
				return tc.Config{ForceDelay: 300 * time.Millisecond}
			}
			return tc.Config{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tc1, tc2 := d.TCs[0], d.TCs[1]

	// Each TC owns its prefix; both use versioning for sharing.
	if err := tc1.RunTxn(context.Background(), tc.TxnOptions{Versioned: true}, func(x *tc.Txn) error {
		return x.Insert("users", "p1/alice", []byte("alice-v1"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := tc2.RunTxn(context.Background(), tc.TxnOptions{Versioned: true}, func(x *tc.Txn) error {
		return x.Insert("users", "p2/bob", []byte("bob-v1"))
	}); err != nil {
		t.Fatal(err)
	}
	// Cross-TC read-committed: TC2 reads TC1's data without locks, from
	// TC1's next safe timestamp broadcast on (one tick after the commit).
	deadline := time.Now().Add(time.Second)
	for {
		err := tc2.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
			v, ok, err := x.ReadCommitted("users", "p1/alice")
			if err != nil || !ok || string(v) != "alice-v1" {
				return fmt.Errorf("cross-TC read: %q %v %v", v, ok, err)
			}
			return nil
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	// TC1 updates and commits, and crashes after the commit has shipped the
	// update and before its force: the DC holds the uncommitted version.
	x := tc1.Begin(context.Background(), tc.TxnOptions{Versioned: true})
	if err := x.Update("users", "p1/alice", []byte("alice-lost")); err != nil {
		t.Fatal(err)
	}
	commit := make(chan error, 1)
	go func() { commit <- x.Commit() }()
	// Cross-TC reads over TC1's partition while that update is
	// uncommitted: the dirty reads see it (§6.2.1), the committed scan sees
	// the before version (§6.2.2); none takes a lock, so none waits for
	// TC1's X lock.
	for {
		var v []byte
		if err := tc2.RunTxn(context.Background(), tc.TxnOptions{}, func(y *tc.Txn) (err error) {
			v, _, err = y.ReadDirty("users", "p1/alice")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if string(v) == "alice-lost" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := tc2.RunTxn(context.Background(), tc.TxnOptions{}, func(y *tc.Txn) error {
		for _, c := range []struct {
			name string
			scan func(table, lo, hi string, limit int) ([]string, [][]byte, error)
			want string
		}{
			{"ScanDirty", y.ScanDirty, "alice-lost"},
			{"ScanCommitted", y.ScanCommitted, "alice-v1"},
		} {
			keys, vals, err := c.scan("users", "p1/", "p1/~", 0)
			if err != nil || len(keys) != 1 || keys[0] != "p1/alice" || string(vals[0]) != c.want {
				return fmt.Errorf("cross-TC %s: %q %q %v, want p1/alice=%s", c.name, keys, vals, err, c.want)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// TC2 writes more data to the same DC (same pages potentially).
	if err := tc2.RunTxn(context.Background(), tc.TxnOptions{Versioned: true}, func(y *tc.Txn) error {
		return y.Update("users", "p2/bob", []byte("bob-v2"))
	}); err != nil {
		t.Fatal(err)
	}
	d.CrashTC(0)
	if err := <-commit; !errors.Is(err, tc.ErrCommitAmbiguous) {
		t.Fatalf("TC1's commit under its crash = %v, want ErrCommitAmbiguous", err)
	}
	if err := d.RecoverTC(0); err != nil {
		t.Fatal(err)
	}
	// TC1's uncommitted update is gone; TC2's committed update survives.
	if err := tc1.RunTxn(context.Background(), tc.TxnOptions{}, func(y *tc.Txn) error {
		v, ok, err := y.Read("users", "p1/alice")
		if err != nil || !ok || string(v) != "alice-v1" {
			return fmt.Errorf("tc1 data after its crash: %q %v %v", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := tc2.RunTxn(context.Background(), tc.TxnOptions{}, func(y *tc.Txn) error {
		v, ok, err := y.Read("users", "p2/bob")
		if err != nil || !ok || string(v) != "bob-v2" {
			return fmt.Errorf("tc2 data disturbed by tc1 crash: %q %v %v", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v := d.DCs[0].Stats().ConflictViols; v != 0 {
		t.Fatalf("conflict invariant violated: %d", v)
	}
}

// TestFigure1Heterogeneous deploys the Figure-1 shape: two applications
// (TCs) over four DCs with different physical organizations — two
// record stores, an inverted-index-style DC, and a geohash-style DC.
func TestFigure1Heterogeneous(t *testing.T) {
	tables := []string{"photos", "accounts", "textidx", "shapes"}
	d, err := New(Options{TCs: 2, DCs: 4, Tables: tables,
		Placement: placement.MustParse("photos: dc=0; accounts: dc=1; textidx: dc=2; shapes: dc=3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	app1, app2 := d.TCs[0], d.TCs[1]

	// App 1 stores a photo + posting-list entries (term#photo keys).
	if err := app1.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
		if err := x.Insert("photos", "p1/photo42", []byte("golden gate")); err != nil {
			return err
		}
		for _, term := range []string{"golden", "gate", "bridge"} {
			if err := x.Insert("textidx", "p1/"+term+"#photo42", nil); err != nil {
				return err
			}
		}
		return x.Insert("shapes", "p1/9q8yy#photo42", nil) // geohash prefix
	}); err != nil {
		t.Fatal(err)
	}
	// App 2 manages accounts on its own partition.
	if err := app2.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
		return x.Insert("accounts", "p2/user7", []byte("balance=10"))
	}); err != nil {
		t.Fatal(err)
	}
	// Term lookup via the inverted-index DC (prefix scan).
	if err := app1.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
		keys, _, err := x.Scan("textidx", "p1/golden#", "p1/golden#~", 0)
		if err != nil {
			return err
		}
		if len(keys) != 1 || keys[0] != "p1/golden#photo42" {
			return fmt.Errorf("index lookup = %v", keys)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Every DC did real work.
	for i, dci := range d.DCs {
		if dci.Stats().Performs == 0 {
			t.Fatalf("DC%d idle — heterogeneous deployment broken", i)
		}
	}
}

func TestDCCrashUnderLossyNetwork(t *testing.T) {
	d, err := New(Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
		Network: &wire.Config{LossProb: 0.05, ResendAfter: 2 * time.Millisecond, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tcx := d.TCs[0]
	for i := 0; i < 60; i++ {
		if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", fmt.Sprintf("k%03d", i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.CrashDC(0)
	if err := d.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
		for i := 0; i < 60; i++ {
			if _, ok, _ := x.Read("kv", fmt.Sprintf("k%03d", i)); !ok {
				return fmt.Errorf("key %d lost across DC crash on lossy net", i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
