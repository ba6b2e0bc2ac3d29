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

// TestEpochFenceCrashDuringBatchChaos crashes a TC while an
// uncommitted transaction's batches are loose somewhere in a delayed,
// jittery, lossy, duplicating fabric — in flight, parked in a resend loop,
// or duplicated for later delivery — then restarts it and runs a strict
// serial oracle over the reused LSN space. Any of the dead incarnation's
// writes taking effect after the restart shows up as a resurrected ghost
// key or as a lost post-restart update (a reused LSN wrongly treated as
// already applied by the abstract-LSN tables).
func TestEpochFenceCrashDuringBatchChaos(t *testing.T) {
	iters := chaosIters(t, 4)
	for it := 0; it < iters; it++ {
		it := it
		t.Run(fmt.Sprintf("seed%d", it), func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(it)*977 + 5))
			dep, err := New(Options{
				TCs: 1, DCs: 2, Tables: []string{"kv"},
				Placement: placement.MustParse("kv: dc=mod(2)"),
				TCConfig: func(int) tc.Config {
					return tc.Config{LockTimeout: 5 * time.Second}
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

			// Leave an uncommitted transaction's blind upserts in the
			// fabric (versioned: no pre-read precedes the ship; the
			// unlocked read is the barrier that ships them), then crash at
			// a random point of their delivery window.
			ghost := tcx.Begin(context.Background(), tc.TxnOptions{Versioned: true})
			for g := 0; g < keys; g++ {
				if err := ghost.Upsert("kv", fmt.Sprintf("g%d", g), []byte("boo")); err != nil {
					t.Fatal(err)
				}
			}
			barrier := make(chan struct{})
			go func() {
				defer close(barrier)
				_, _, _ = ghost.ReadDirty("kv", "g0") // dies with the incarnation
			}()
			time.Sleep(time.Duration(rnd.Intn(600)) * time.Microsecond)
			dep.CrashTC(0)
			if err := dep.RecoverTC(0); err != nil {
				t.Fatal(err)
			}
			defer func() { <-barrier }()

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
			// The dead incarnation's uncommitted writes must be gone: swept
			// by the restart reset if they landed before it, fenced if after.
			x := tcx.Begin(context.Background(), tc.TxnOptions{})
			for g := 0; g < keys; g++ {
				if _, ok, err := x.ReadDirty("kv", fmt.Sprintf("g%d", g)); err != nil {
					t.Fatal(err)
				} else if ok {
					t.Fatalf("iter %d: ghost g%d took effect after restart", it, g)
				}
			}
			_ = x.Abort()
		})
	}
}
