package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// TestChaosDCRestartUnderLoad restarts a DC under the writers of two TCs
// that reach it over TCP: every four seconds the listener closes, the DC
// crashes and recovers, and it listens again on the same address. Its pool
// is small, so pages are evicted — and made stable — while a TC still owes
// the new incarnation its resend. Every write is an upsert of a value never
// written before, each key has one writer, and each writer one TC, so per key
// the oracle is the last value whose commit was acknowledged (or one reported
// ambiguous since). After each restart the writers move on to keys next to
// the ones they wrote before, so that the last values before the restart,
// which only the resend can bring back, are never overwritten, while the
// pages that hold them take new writes. CHAOS_ITERS sets the number of
// restarts.
func TestChaosDCRestartUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("restarts a DC every 4s")
	}
	restarts := chaosIters(t, 2)
	d, err := dc.New(dc.Config{Name: "chaos", PageBytes: 1024, CacheCapacity: 32})
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
	addr := l.Addr()
	defer func() { l.Close() }()
	dep, err := New(Options{TCs: 2, DCAddrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	if err := dep.WaitConnected(ctx); err != nil {
		t.Fatal(err)
	}

	const writers, keysPer = 128, 16
	type keyState struct {
		last  string
		maybe map[string]bool
	}
	oracle := make([]map[string]*keyState, writers)
	var stop atomic.Bool
	var round atomic.Int32 // restarts so far
	var commits atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		oracle[w] = make(map[string]*keyState)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tcx := dep.TCs[w%2]
			for seq := 0; !stop.Load(); seq++ {
				k := fmt.Sprintf("w%03d-k%02d-r%d", w, seq%keysPer, round.Load())
				v := fmt.Sprintf("w%03d-s%d", w, seq)
				err := tcx.RunTxnOnce(ctx, tc.TxnOptions{}, func(x *tc.Txn) error {
					return x.Upsert("kv", k, []byte(v))
				})
				st := oracle[w][k]
				if st == nil {
					st = &keyState{maybe: map[string]bool{}}
					oracle[w][k] = st
				}
				switch {
				case err == nil:
					st.last, st.maybe = v, map[string]bool{}
					commits.Add(1)
				case errors.Is(err, tc.ErrCommitAmbiguous):
					st.maybe[v] = true
				default:
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < restarts && !t.Failed(); r++ {
		// Checkpoints every half second keep the resends short, and leave
		// half a second of redo tail at the restart. They are taken between
		// restarts: a checkpoint the DC is flushing for when the listener
		// closes could wait on a peer's watermark that no frame brings any
		// more, and the close waits for it.
		for i := 0; i < 7; i++ {
			time.Sleep(500 * time.Millisecond)
			for _, tcx := range dep.TCs {
				cctx, cancel := context.WithTimeout(ctx, time.Second)
				_, _ = tcx.Checkpoint(cctx) // refused while the DC is owed a resend: not taken
				cancel()
			}
		}
		time.Sleep(500 * time.Millisecond)
		l.Close()
		d.Crash()
		if err := d.Recover(); err != nil {
			t.Fatal(err)
		}
		if l, err = wire.Listen(addr, d); err != nil {
			t.Fatal(err)
		}
		round.Add(1)
	}
	time.Sleep(time.Second)
	stop.Store(true)
	wg.Wait()
	if commits.Load() == 0 {
		t.Fatal("no transaction committed; test vacuous")
	}
	t.Logf("%d commits across %d DC restarts; evictions %d", commits.Load(), restarts, d.Pool().Stats().Evictions)

	var lost []string
	for w := range oracle {
		for k, st := range oracle[w] {
			var got string
			var found bool
			if err := dep.TCs[w%2].RunTxnOnce(ctx, tc.TxnOptions{}, func(x *tc.Txn) error {
				v, ok, err := x.Read("kv", k)
				got, found = string(v), ok
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if got != st.last && !st.maybe[got] || found != (got != "") {
				lost = append(lost, fmt.Sprintf("%s = %q (found %v): last acknowledged %q", k, got, found, st.last))
			}
		}
	}
	if len(lost) > 0 {
		t.Fatalf("%d keys lost their last acknowledged write, e.g. %v", len(lost), lost[:min(len(lost), 5)])
	}
}
