package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// multiTCSpec is the shared placement of every test here: one table on
// one DC, update ownership split by key range between TC 1 (keys < "m")
// and TC 2 (the rest). The same spec string drives in-process and TCP
// deployments — the acceptance-criterion property.
const multiTCSpec = "kv: dc=0 owner=range(<m:1,*:2)"

// TestMultiTCSharedDCDirect: two TCs with disjoint §6.1 ownership commit
// concurrently against one shared in-process DC, routed by write intent,
// and every committed write is readable afterwards from either TC.
func TestMultiTCSharedDCDirect(t *testing.T) {
	dep, err := New(Options{TCs: 2, DCs: 1, Placement: placement.MustParse(multiTCSpec)})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	client := dep.Client()
	ctx := context.Background()

	const perTC = 200
	var wg sync.WaitGroup
	var failures atomic.Uint64
	for _, prefix := range []string{"a", "z"} { // "a..." -> TC 1, "z..." -> TC 2
		wg.Add(1)
		go func(prefix string) {
			defer wg.Done()
			for i := 0; i < perTC; i++ {
				key := fmt.Sprintf("%s-%04d", prefix, i)
				err := client.RunTxnAt(ctx, "kv", key, TxnOptions{}, func(x *tc.Txn) error {
					return x.Upsert("kv", key, []byte(key))
				})
				if err != nil {
					t.Errorf("write %s: %v", key, err)
					failures.Add(1)
				}
			}
		}(prefix)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d concurrent cross-TC writes failed", failures.Load())
	}
	// Routing actually partitioned the work: each TC committed its side.
	for i, tcx := range dep.TCs {
		if c := tcx.Stats().Commits; c != perTC {
			t.Fatalf("TC %d committed %d transactions, want %d (write-intent routing broken)", i+1, c, perTC)
		}
	}
	// Reads are unrestricted (§6.1: all TCs may read everywhere): verify
	// both partitions through both TCs.
	for _, pin := range []int{1, 2} {
		for _, prefix := range []string{"a", "z"} {
			key := fmt.Sprintf("%s-%04d", prefix, perTC-1)
			err := client.RunTxn(ctx, TxnOptions{TC: pin, ReadOnly: true}, func(x *tc.Txn) error {
				v, ok, err := x.Read("kv", key)
				if err != nil {
					return err
				}
				if !ok || string(v) != key {
					return fmt.Errorf("key %s: found=%v val=%q", key, ok, v)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("read via TC %d: %v", pin, err)
			}
		}
	}
}

// TestWrongOwnerPermanent: a write outside the issuing TC's partition
// aborts with ErrWrongOwner, the client never retries it (fn runs exactly
// once), and routing a write set that spans partitions fails before a
// transaction starts.
func TestWrongOwnerPermanent(t *testing.T) {
	dep, err := New(Options{TCs: 2, DCs: 1, Placement: placement.MustParse(multiTCSpec)})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	client := dep.Client()
	ctx := context.Background()

	var attempts atomic.Uint64
	err = client.RunTxn(ctx, TxnOptions{TC: 1}, func(x *tc.Txn) error {
		attempts.Add(1)
		return x.Upsert("kv", "z-owned-by-2", []byte("v")) // TC 1 does not own "z..."
	})
	if !errors.Is(err, base.ErrWrongOwner) {
		t.Fatalf("wrong-owner write = %v, want ErrWrongOwner", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1 (ErrWrongOwner must be permanent)", got)
	}

	// The write was aborted before reaching the DC: nothing to read back.
	err = client.RunTxn(ctx, TxnOptions{ReadOnly: true}, func(x *tc.Txn) error {
		if _, ok, err := x.Read("kv", "z-owned-by-2"); err != nil {
			return err
		} else if ok {
			return fmt.Errorf("aborted write is visible")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A write set spanning two partitions cannot be routed anywhere.
	var ran atomic.Uint64
	err = client.RunTxn(ctx, TxnOptions{
		WriteSet: map[string][]string{"kv": {"a-left", "z-right"}},
	}, func(x *tc.Txn) error { ran.Add(1); return nil })
	if !errors.Is(err, base.ErrWrongOwner) {
		t.Fatalf("spanning write set = %v, want ErrWrongOwner", err)
	}
	if ran.Load() != 0 {
		t.Fatal("fn ran despite unroutable write set")
	}

	// An owner that lives in another process (fleet of 3, deployment of
	// 2) is reported typed too: this client cannot serve it.
	dep3, err := New(Options{TCs: 2, DCs: 1, FleetTCs: 3,
		Placement: placement.MustParse("kv: dc=0 owner=3")})
	if err != nil {
		t.Fatal(err)
	}
	defer dep3.Close()
	err = dep3.Client().RunTxnAt(ctx, "kv", "k", TxnOptions{}, func(x *tc.Txn) error { return nil })
	if !errors.Is(err, base.ErrWrongOwner) {
		t.Fatalf("out-of-process owner = %v, want ErrWrongOwner", err)
	}
}

// TestPinBounds: a TC pin outside the uint16 ID space errors instead of
// aliasing a valid TC after truncation.
func TestPinBounds(t *testing.T) {
	dep, err := New(Options{TCs: 2, DCs: 1, Placement: placement.MustParse(multiTCSpec)})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	for _, pin := range []int{-1, 65536, 65537, 3} { // 65537 would truncate to TC 1
		err := dep.Client().RunTxn(context.Background(), TxnOptions{TC: pin},
			func(x *tc.Txn) error { return nil })
		if err == nil {
			t.Fatalf("pin %d accepted", pin)
		}
	}
}

// TestUnknownTableTyped: lookups on a table the placement does not cover
// fail with ErrUnknownTable at every entry point instead of silently
// routing to DC 0.
func TestUnknownTableTyped(t *testing.T) {
	dep, err := New(Options{TCs: 1, DCs: 1, Placement: placement.MustParse("kv: dc=0 owner=1")})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	client := dep.Client()
	ctx := context.Background()

	if _, err := dep.router.DC("ghost", "k"); !errors.Is(err, base.ErrUnknownTable) {
		t.Fatalf("router.DC(ghost) = %v, want ErrUnknownTable", err)
	}
	if _, err := dep.Owner("ghost", "k"); !errors.Is(err, base.ErrUnknownTable) {
		t.Fatalf("Deployment.Owner(ghost) = %v, want ErrUnknownTable", err)
	}
	err = client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
		return x.Upsert("ghost", "k", []byte("v"))
	})
	if !errors.Is(err, base.ErrUnknownTable) {
		t.Fatalf("write to unplaced table = %v, want ErrUnknownTable", err)
	}
	err = client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
		_, _, err := x.Read("ghost", "k")
		return err
	})
	if !errors.Is(err, base.ErrUnknownTable) {
		t.Fatalf("read of unplaced table = %v, want ErrUnknownTable", err)
	}
	err = client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
		_, _, err := x.Scan("ghost", "a", "z", 0)
		return err
	})
	if !errors.Is(err, base.ErrUnknownTable) {
		t.Fatalf("scan of unplaced table = %v, want ErrUnknownTable", err)
	}
}

// TestMultiTCSharedDCOverTCP is the §6.1 scale-out shape end to end: two
// single-TC deployments — separate "processes" as far as every component
// can tell, TC IDs 1 and 2, driven by the identical placement spec string
// — share one DC served over real TCP. Both commit concurrently; one TC
// crashes and restarts mid-run, and its epoch fence must not disturb the
// other TC's traffic; a write outside a TC's partition fails typed across
// the whole stack.
func TestMultiTCSharedDCOverTCP(t *testing.T) {
	d, err := dc.New(dc.Config{Name: "shared"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	l, err := wire.Listen("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	defer d.Close()

	ctx := context.Background()
	newTC := func(id int) *Deployment {
		t.Helper()
		pl, err := placement.Parse(multiTCSpec) // each "process" parses the same flag text
		if err != nil {
			t.Fatal(err)
		}
		dep, err := New(Options{
			TCs: 1, FleetTCs: 2, DCAddrs: []string{l.Addr()}, Placement: pl,
			TCConfig: func(int) tc.Config { return tc.Config{ID: base.TCID(id)} },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dep.Close)
		if err := dep.WaitConnected(ctx); err != nil {
			t.Fatal(err)
		}
		return dep
	}
	dep1, dep2 := newTC(1), newTC(2)

	// TC 2 commits throughout; TC 1 crashes and restarts mid-run. TC 2
	// must never observe an error — the §6.1.2 promise that one TC's
	// restart (targeted resets, its own epoch fence) leaves other TCs'
	// traffic alone.
	const txns = 150
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c2 := dep2.Client()
		for i := 0; i < txns; i++ {
			key := fmt.Sprintf("z-%04d", i)
			if err := c2.RunTxnAt(ctx, "kv", key, TxnOptions{}, func(x *tc.Txn) error {
				return x.Upsert("kv", key, []byte(key))
			}); err != nil {
				select {
				case errCh <- fmt.Errorf("TC2 txn %d during TC1 restart: %w", i, err):
				default:
				}
				return
			}
		}
	}()

	c1 := dep1.Client()
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("a-%04d", i)
		if err := c1.RunTxnAt(ctx, "kv", key, TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", key, []byte(key))
		}); err != nil {
			t.Fatalf("TC1 pre-crash txn %d: %v", i, err)
		}
	}
	preEpoch := dep1.TCs[0].Epoch()
	dep1.CrashTC(0)
	if err := dep1.RecoverTC(0); err != nil {
		t.Fatalf("TC1 recover: %v", err)
	}
	if e := dep1.TCs[0].Epoch(); e <= preEpoch {
		t.Fatalf("TC1 epoch did not advance across restart: %d -> %d", preEpoch, e)
	}
	// TC1 serves again after its restart.
	for i := 40; i < 80; i++ {
		key := fmt.Sprintf("a-%04d", i)
		if err := c1.RunTxnAt(ctx, "kv", key, TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", key, []byte(key))
		}); err != nil {
			t.Fatalf("TC1 post-restart txn %d: %v", i, err)
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Ownership is enforced in the TCP deployment too, typed end to end.
	err = c1.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
		return x.Upsert("kv", "z-not-mine", []byte("v"))
	})
	if !errors.Is(err, base.ErrWrongOwner) {
		t.Fatalf("TCP wrong-owner write = %v, want ErrWrongOwner", err)
	}

	// Every committed write from both TCs is intact at the shared DC.
	verify := func(c *Client, prefix string, n int) {
		t.Helper()
		if err := c.RunTxn(ctx, TxnOptions{ReadOnly: true}, func(x *tc.Txn) error {
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("%s-%04d", prefix, i)
				v, ok, err := x.Read("kv", key)
				if err != nil {
					return err
				}
				if !ok || string(v) != key {
					return fmt.Errorf("lost committed write %s (found=%v)", key, ok)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	verify(c1, "a", 80)
	verify(dep2.Client(), "z", txns)
	verify(c1, "z", txns) // cross-partition reads are free
}
