package core

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// chaosIters returns the iteration count for crash-interleaving tests:
// the default for ordinary runs, or CHAOS_ITERS when the chaos CI job (or
// a developer) wants elevated coverage.
func chaosIters(tb testing.TB, def int) int {
	s := os.Getenv("CHAOS_ITERS")
	if s == "" {
		return def
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		tb.Fatalf("bad CHAOS_ITERS %q", s)
	}
	return n
}

// TestEpochFenceCrashDuringBatchChaos crashes a TC around a committing
// transaction's force: before it, so that the batch is lost and no DC sees
// any of it, or after it, with the batches loose somewhere in a delayed,
// jittery, lossy, duplicating fabric — in flight, parked in a resend loop,
// or duplicated for later delivery. It then restarts the TC and runs a
// strict serial oracle over the reused LSN space. A lost batch taking effect
// shows up as a resurrected ghost key, a forced one delivered in part as a
// torn ghost, and a post-restart update lost as a reused LSN wrongly treated
// as already applied by the abstract-LSN tables.
func TestEpochFenceCrashDuringBatchChaos(t *testing.T) {
	iters := chaosIters(t, 4)
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed%d", it), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(it)*977 + 5))
			dep, err := New(Options{
				TCs: 1, DCs: 2, Tables: []string{"kv"},
				Placement: placement.MustParse("kv: dc=mod(2)"),
				// Slow forces: the crash meets the ghost's commit in its
				// force or, once that is done, in its ship.
				TCConfig: func(int) tc.Config {
					return tc.Config{LockTimeout: 5 * time.Second, ForceDelay: 10 * time.Millisecond}
				},
				Network: &wire.Config{
					Delay:       100 * time.Microsecond,
					Jitter:      400 * time.Microsecond,
					LossProb:    0.05,
					DupProb:     0.10,
					ResendAfter: time.Millisecond,
					Seed:        int64(it)*31 + 1,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			tcx := dep.TCs[0]

			const keys = 4
			key := func(i int) string { return fmt.Sprintf("c%d", i) }
			if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
				for i := 0; i < keys; i++ {
					if err := x.Insert("kv", key(i), []byte("0")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			// Commit blind upserts (no read precedes the ship), and crash at
			// a random point from the end of the force into the delivery
			// window.
			ghost := tcx.Begin(context.Background(), tc.TxnOptions{Versioned: true})
			for g := 0; g < keys; g++ {
				if err := ghost.Upsert("kv", fmt.Sprintf("g%d", g), []byte("boo")); err != nil {
					t.Fatal(err)
				}
			}
			commit := make(chan error, 1)
			go func() { commit <- ghost.Commit() }() // dies with the incarnation
			time.Sleep(9*time.Millisecond + time.Duration(rnd.Intn(3000))*time.Microsecond)
			dep.CrashTC(0)
			if err := dep.RecoverTC(0); err != nil {
				t.Fatal(err)
			}
			// A commit that outran the crash is a winner, whose writes must
			// all be there.
			acked := <-commit == nil

			// Strict oracle over the reused LSN space: every increment must
			// apply exactly once, even while stale batches and duplicated
			// deliveries of the dead incarnation keep arriving.
			const increments = 24
			for r := 0; r < increments; r++ {
				k := key(r % keys)
				if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
					v, ok, err := x.Read("kv", k)
					if err != nil || !ok {
						return fmt.Errorf("read %s: %v %v", k, ok, err)
					}
					n, err := strconv.Atoi(string(v))
					if err != nil {
						return err
					}
					return x.Update("kv", k, []byte(strconv.Itoa(n+1)))
				}); err != nil {
					t.Fatalf("iter %d increment %d: %v", it, r, err)
				}
			}
			if err := tcx.RunTxn(context.Background(), tc.TxnOptions{}, func(x *tc.Txn) error {
				for i := 0; i < keys; i++ {
					v, ok, err := x.Read("kv", key(i))
					if err != nil || !ok {
						return fmt.Errorf("final read %s: %v %v", key(i), ok, err)
					}
					if got, _ := strconv.Atoi(string(v)); got != increments/keys {
						return fmt.Errorf("lost update on %s: %d, want %d (reused LSN poisoned)",
							key(i), got, increments/keys)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// The ghost's writes are all there or none is: forced before the
			// crash, it is a winner that the restart's redo delivers whole,
			// the dead incarnation's batches fenced or found applied; not
			// forced, no DC saw any of it.
			x := tcx.Begin(context.Background(), tc.TxnOptions{})
			won := acked
			for g := 0; g < keys; g++ {
				_, ok, err := x.ReadDirty("kv", fmt.Sprintf("g%d", g))
				if err != nil {
					t.Fatal(err)
				}
				if g == 0 && !acked {
					won = ok
				}
				if ok != won {
					t.Fatalf("iter %d: ghost g%d found %v after the restart, its commit acknowledged %v, won %v",
						it, g, ok, acked, won)
				}
			}
			_ = x.Abort()
			t.Logf("commit acknowledged %v, won %v", acked, won)
		})
	}
}
