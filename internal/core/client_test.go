package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/tc"
)

func newClientDeployment(t *testing.T, tcs int) (*Deployment, *Client) {
	t.Helper()
	dep, err := New(Options{TCs: tcs, DCs: 1, Tables: []string{"kv"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Close)
	return dep, dep.Client()
}

// TestClientRunTxnDeadlockRetriedToSuccess: two transactions acquire the
// same two keys in opposite orders with a rendezvous that guarantees the
// waits-for cycle on the first attempt. One is chosen as the deadlock
// victim; Client.RunTxn must retry it as a fresh transaction and both
// calls must succeed.
func TestClientRunTxnDeadlockRetriedToSuccess(t *testing.T) {
	dep, client := newClientDeployment(t, 1)
	ctx := context.Background()

	var once1, once2 sync.Once
	r1, r2 := make(chan struct{}), make(chan struct{})
	rendezvous := func(mine *sync.Once, signal, wait chan struct{}) {
		mine.Do(func() {
			close(signal)
			select {
			case <-wait:
			case <-time.After(2 * time.Second):
			}
		})
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
			if err := x.Upsert("kv", "a", []byte("t1")); err != nil {
				return err
			}
			rendezvous(&once1, r1, r2)
			return x.Upsert("kv", "b", []byte("t1"))
		})
	}()
	go func() {
		defer wg.Done()
		errs[1] = client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
			if err := x.Upsert("kv", "b", []byte("t2")); err != nil {
				return err
			}
			rendezvous(&once2, r2, r1)
			return x.Upsert("kv", "a", []byte("t2"))
		})
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("txn %d failed despite retry: %v", i+1, err)
		}
	}
	if dep.TCs[0].Stats().DeadlockAborts == 0 {
		t.Fatal("expected at least one deadlock abort (the rendezvous guarantees a cycle)")
	}
}

// TestClientRouting: auto-routing spreads sequential transactions across
// every TC; a pin keeps them on one; an invalid pin errors.
func TestClientRouting(t *testing.T) {
	dep, client := newClientDeployment(t, 3)
	ctx := context.Background()

	for i := 0; i < 9; i++ {
		if err := client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", "k", []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tcx := range dep.TCs {
		if tcx.Stats().Commits == 0 {
			t.Fatalf("TC %d never received a routed transaction", i+1)
		}
	}

	before := dep.TCs[1].Stats().Commits
	for i := 0; i < 5; i++ {
		if err := client.RunTxn(ctx, TxnOptions{TC: 2}, func(x *tc.Txn) error {
			return x.Upsert("kv", "pinned", []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dep.TCs[1].Stats().Commits - before; got != 5 {
		t.Fatalf("pinned TC got %d of 5 transactions", got)
	}

	if err := client.RunTxn(ctx, TxnOptions{TC: 7}, func(*tc.Txn) error { return nil }); err == nil {
		t.Fatal("invalid TC pin must error")
	}
	if _, err := client.Begin(ctx, TxnOptions{TC: -1}); err == nil {
		t.Fatal("negative TC pin must error")
	}
}

// TestClientRunTxnCancellation: a context cancelled before or during
// RunTxn surfaces the taxonomy's cancellation error.
func TestClientRunTxnCancellation(t *testing.T) {
	_, client := newClientDeployment(t, 1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
		return x.Upsert("kv", "k", []byte("v"))
	})
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunTxn returned %v", err)
	}
	if _, err := client.Begin(ctx, TxnOptions{}); !errors.Is(err, base.ErrCancelled) {
		t.Fatalf("pre-cancelled Begin returned %v", err)
	}
}

// TestDeploymentCloseIdempotent: Close twice never panics or hangs, DCs
// are closed with the deployment (operations refuse with unavailable),
// and a crash after close does not resurrect a DC.
func TestDeploymentCloseIdempotent(t *testing.T) {
	dep, err := New(Options{TCs: 1, DCs: 2, Tables: []string{"kv"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Client().RunTxn(context.Background(), TxnOptions{}, func(x *tc.Txn) error {
		return x.Upsert("kv", "k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		dep.Close()
		dep.Close() // double close must be a no-op
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Deployment.Close hung")
	}

	for i, d := range dep.DCs {
		res := d.Perform(context.Background(), &base.Op{TC: 1, LSN: 10_000, Kind: base.OpRead, Table: "kv", Key: "k"})
		if res.Code != base.CodeUnavailable {
			t.Fatalf("DC %d still serving after close: %+v", i, res)
		}
		if !errors.Is(res.Err(), base.ErrUnavailable) {
			t.Fatalf("closed-DC error %v does not match ErrUnavailable", res.Err())
		}
		d.Crash() // must stay closed
		if err := d.Recover(); err == nil {
			t.Fatalf("DC %d recovered after Close", i)
		}
		d.Close() // second DC close is a no-op too
	}
}

// TestClientRetriesUnavailable: transient unavailable failures (a crashed
// DC that recovers mid-call) are retried by RunTxn until the component is
// back.
func TestClientRetriesUnavailable(t *testing.T) {
	dep, client := newClientDeployment(t, 1)
	ctx := context.Background()
	if err := client.RunTxn(ctx, TxnOptions{}, func(x *tc.Txn) error {
		return x.Upsert("kv", "k", []byte("v0"))
	}); err != nil {
		t.Fatal(err)
	}
	dep.CrashDC(0)
	go func() {
		time.Sleep(30 * time.Millisecond)
		if err := dep.RecoverDC(0); err != nil {
			t.Error(err)
		}
	}()
	// The pre-check read fails CodeUnavailable while the DC is down;
	// RunTxn keeps retrying with backoff until recovery completes.
	if err := client.RunTxn(ctx, TxnOptions{MaxAttempts: 100}, func(x *tc.Txn) error {
		return x.Update("kv", "k", []byte("v1"))
	}); err != nil {
		t.Fatalf("RunTxn did not ride out the unavailable window: %v", err)
	}
}

// TestClientDoesNotRetryAmbiguousCommit: a commit failure after the commit
// record is logged (here: the TC crashed under the commit force, a transient
// unavailable by classification) must not re-execute fn — whether the
// transaction is a winner is the log's to say.
func TestClientDoesNotRetryAmbiguousCommit(t *testing.T) {
	dep, err := New(Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
		TCConfig: func(int) tc.Config { return tc.Config{ForceDelay: 200 * time.Millisecond} }})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	client := dep.Client()

	fnRuns := 0
	err = client.RunTxn(context.Background(), TxnOptions{Versioned: true}, func(x *tc.Txn) error {
		fnRuns++
		if err := x.Upsert("kv", "k", []byte("v")); err != nil {
			return err
		}
		go func() {
			// Commit appends its batch and sleeps in the force, where the
			// crash meets it.
			time.Sleep(50 * time.Millisecond)
			dep.CrashTC(0)
		}()
		return nil
	})
	if err == nil {
		t.Fatal("commit under a crash must fail")
	}
	if !errors.Is(err, tc.ErrCommitAmbiguous) {
		t.Fatalf("error %v does not carry ErrCommitAmbiguous", err)
	}
	if !errors.Is(err, base.ErrUnavailable) {
		t.Fatalf("error %v lost the underlying unavailable classification", err)
	}
	if fnRuns != 1 {
		t.Fatalf("fn re-executed %d times after an ambiguous commit", fnRuns)
	}
}

// TestCrashDCUnderLoadNeverFailsLoggedOp: a DC crashed and recovered under
// client load may cost a transaction retries or an unavailable error, but a
// logged operation must never come back refused — the DC answers a crash
// with unavailable (or silence), which the resend contract rides out, not
// with a permanent code that the TC acks and reports as a failed write. The
// TC checkpoints every cycle, beside the running clients, so each recovery
// redoes a short tail, not the whole run.
func TestCrashDCUnderLoadNeverFailsLoggedOp(t *testing.T) {
	dep, client := newClientDeployment(t, 1)
	ctx := context.Background()
	const clients, cycles, between = 4, 300, 8
	var (
		stop      atomic.Bool
		committed atomic.Int64
		wg        sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("c%d-%02d", c, i%32)
				err := client.RunTxn(ctx, TxnOptions{MaxAttempts: 1000}, func(x *tc.Txn) error {
					return x.Upsert("kv", key, []byte("v"))
				})
				if err == nil {
					committed.Add(1)
				} else if strings.Contains(err.Error(), "logged op failed at DC") {
					t.Errorf("client %d txn %d: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	for cycle := 0; cycle < cycles && !t.Failed(); cycle++ {
		for mark := committed.Load(); committed.Load() < mark+between && !t.Failed(); {
			runtime.Gosched()
		}
		dep.CrashDC(0)
		if err := dep.RecoverDC(0); err != nil {
			t.Errorf("cycle %d: %v", cycle, err)
			break
		}
		if _, err := dep.TCs[0].Checkpoint(ctx); err != nil {
			t.Errorf("cycle %d: checkpoint: %v", cycle, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}
