package tc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// TestNoAdmissionWhileDown: a TC with no serving incarnation — between Crash
// and Recover, and all through Recover, which publishes last — admits nothing.
// RunTxnOnce refuses typed and transient, and a Begin returns a transaction
// that takes no id, no lock and no LSN (least of all from the log Recover is
// replaying) and reaches no DC.
func TestNoAdmissionWhileDown(t *testing.T) {
	tcx, _, stubs := newCountedPair(t)
	ctx := context.Background()
	if err := tcx.RunTxn(ctx, TxnOptions{}, func(x *Txn) error {
		return x.Upsert("t", "k", []byte("v"))
	}); err != nil {
		t.Fatal(err)
	}
	refused := func(when string) {
		t.Helper()
		next := tcx.log.NextLSN()
		for _, s := range stubs {
			s.take()
		}
		err := tcx.RunTxnOnce(ctx, TxnOptions{}, func(*Txn) error {
			t.Fatalf("%s: RunTxnOnce admitted a transaction", when)
			return nil
		})
		if !errors.Is(err, base.ErrUnavailable) || !base.IsTransient(err) {
			t.Fatalf("%s: RunTxnOnce = %v, want a transient ErrUnavailable", when, err)
		}
		for _, opts := range []TxnOptions{{}, {Versioned: true}, {ReadOnly: true}} {
			x := tcx.Begin(ctx, opts)
			_, _, readErr := x.Read("t", "k")
			_, _, scanErr := x.Scan("t", "a", "z", 0)
			for call, err := range map[string]error{"Upsert": x.Upsert("t", "k", []byte("w")),
				"Read": readErr, "Scan": scanErr, "Commit": x.Commit()} {
				if !errors.Is(err, ErrTCStopped) {
					t.Fatalf("%s, %+v: %s = %v, want ErrTCStopped", when, opts, call, err)
				}
			}
			if err := x.Abort(); err != nil {
				t.Fatalf("%s, %+v: Abort = %v, want nil", when, opts, err)
			}
			if x.ID() != 0 || x.SnapshotTS() != 0 {
				t.Fatalf("%s, %+v: took transaction id %d, snapshot timestamp %d", when, opts, x.ID(), x.SnapshotTS())
			}
		}
		if got := tcx.log.NextLSN(); got != next {
			t.Fatalf("%s: LSNs %d..%d were taken", when, next, got-1)
		}
		if n := tcx.ActiveTxns(); n != 0 {
			t.Fatalf("%s: %d transactions in the table", when, n)
		}
		for i, s := range stubs {
			s.quiet(t, fmt.Sprintf("%s, DC %d", when, i))
		}
	}
	tcx.Crash()
	refused("between Crash and Recover")
	// DC 1's BeginRestart: the epoch is minted and forced, DC 0 is reset, no
	// redo has been sent yet.
	during := 0
	stubs[1].setHook(func(call string) {
		if call == "begin-restart" {
			during++
			refused("inside Recover")
		}
	})
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if during != 1 {
		t.Fatalf("the BeginRestart hook ran %d times", during)
	}
	if err := tcx.RunTxnOnce(ctx, TxnOptions{}, func(x *Txn) error {
		if v, ok, err := x.Read("t", "k"); err != nil || !ok || string(v) != "v" {
			return fmt.Errorf("committed data after restart: %q %v %v", v, ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashDuringRecoverWins: a Crash that lands while Recover runs — from
// inside the redo stream's first delivery, from inside EndRestart — is not
// overwritten by it. Recover fails wrapping ErrTCStopped, publishes nothing,
// the TC stays down, and the next Recover mints a strictly larger epoch over
// intact data.
func TestCrashDuringRecoverWins(t *testing.T) {
	for _, at := range []string{"write", "end-restart"} {
		t.Run(at, func(t *testing.T) {
			tcx, dcs, stubs := newCountedPair(t)
			ctx := context.Background()
			if err := tcx.RunTxn(ctx, TxnOptions{}, func(x *Txn) error {
				if err := x.Upsert("t", "k", []byte("v")); err != nil {
					return err
				}
				return x.Upsert("u", "k", []byte("v"))
			}); err != nil {
				t.Fatal(err)
			}
			tcx.Crash()
			crashes := 0
			stubs[0].setHook(func(call string) {
				if call == at && crashes == 0 {
					crashes++
					tcx.Crash()
				}
			})
			err := tcx.Recover()
			if !errors.Is(err, ErrTCStopped) {
				t.Fatalf("Recover under a Crash = %v, want ErrTCStopped", err)
			}
			if crashes != 1 {
				t.Fatalf("the hook crashed the TC %d times", crashes)
			}
			if !tcx.NeedsRecovery() || tcx.inc.Load() != nil || tcx.Epoch() != 0 {
				t.Fatalf("the crashed Recover published an incarnation (epoch %d)", tcx.Epoch())
			}
			if err := tcx.Begin(ctx, TxnOptions{}).Upsert("t", "k", []byte("w")); !errors.Is(err, ErrTCStopped) {
				t.Fatalf("a transaction on the TC the crashed Recover left = %v, want ErrTCStopped", err)
			}
			failed := dcs[0].EpochOf(1) // the fence the crashed attempt installed
			if failed < 2 {
				t.Fatalf("the crashed Recover never reached DC 0 (fence %d); test vacuous", failed)
			}
			if err := tcx.Recover(); err != nil {
				t.Fatal(err)
			}
			if got := tcx.Epoch(); got <= failed || dcs[0].EpochOf(1) != got || dcs[1].EpochOf(1) != got {
				t.Fatalf("second Recover: epoch %d after a crashed attempt at %d (DC fences %d, %d)",
					got, failed, dcs[0].EpochOf(1), dcs[1].EpochOf(1))
			}
			if err := tcx.RunTxnOnce(ctx, TxnOptions{}, func(x *Txn) error {
				for _, table := range []string{"t", "u"} {
					if v, ok, err := x.Read(table, "k"); err != nil || !ok || string(v) != "v" {
						return fmt.Errorf("%s/k after the second restart: %q %v %v", table, v, ok, err)
					}
				}
				return x.Upsert("t", "after", []byte("ok"))
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestChaosCrashTCUnderLoad crashes and restarts a TC under its live writers,
// which is what cmd/moviesim -crash does to its clients. Every write is an
// overwriting upsert of a value never used before, and each key has one
// writer, so per key the oracle is the benchmark's: the last value whose
// commit was acknowledged, plus every value whose commit has been reported
// ambiguous since. It asserts no race and no panic (by running), only
// transient or ambiguous failures, exact values after a final restart, no LSN
// left uncompleted by a dead incarnation, and a redo set bounded by what was
// logged since the last checkpoint.
func TestChaosCrashTCUnderLoad(t *testing.T) {
	tcx, _ := newPair(t, Config{})
	ctx := context.Background()
	const writers, keysPer = 4, 8
	type keyState struct {
		last  string
		maybe map[string]bool
	}
	oracle := make([]map[string]*keyState, writers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var commits, ambiguous, stopped atomic.Uint64
	for w := 0; w < writers; w++ {
		oracle[w] = make(map[string]*keyState)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for seq := 0; !stop.Load(); seq++ {
				versioned := seq%3 == 0
				n := 1 + rng.Intn(2)
				wrote := make(map[string]string, n)
				err := tcx.RunTxnOnce(ctx, TxnOptions{Versioned: versioned}, func(x *Txn) error {
					for i := 0; i < n; i++ {
						k, v := fmt.Sprintf("w%d-k%d", w, rng.Intn(keysPer)), fmt.Sprintf("w%d-s%d-%d", w, seq, i)
						if err := x.Upsert("t", k, []byte(v)); err != nil {
							return err
						}
						wrote[k] = v
					}
					return nil
				})
				for k, v := range wrote {
					st := oracle[w][k]
					if st == nil {
						st = &keyState{maybe: map[string]bool{}}
						oracle[w][k] = st
					}
					switch {
					case err == nil:
						st.last, st.maybe = v, map[string]bool{}
					case errors.Is(err, ErrCommitAmbiguous):
						st.maybe[v] = true
					}
				}
				switch {
				case err == nil:
					commits.Add(1)
				case errors.Is(err, ErrCommitAmbiguous):
					ambiguous.Add(1)
				case errors.Is(err, base.ErrUnavailable):
					stopped.Add(1)
					time.Sleep(50 * time.Microsecond) // down: do not spin on the refusal
				default:
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(42))
	for cycle := 0; cycle < 25*chaosIters(t, 6) && !t.Failed(); cycle++ {
		time.Sleep(500*time.Microsecond + time.Duration(rng.Intn(1500))*time.Microsecond)
		tcx.Crash()
		if cycle%4 == 0 {
			time.Sleep(200 * time.Microsecond) // writers meet a TC that is down
		}
		if err := tcx.Recover(); err != nil {
			t.Fatalf("cycle %d: recover: %v", cycle, err)
		}
		if cycle%2 == 0 {
			if _, err := tcx.Checkpoint(ctx); err != nil {
				t.Fatalf("cycle %d: checkpoint: %v", cycle, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("%d commits, %d ambiguous, %d refused or stopped", commits.Load(), ambiguous.Load(), stopped.Load())
	if commits.Load() == 0 {
		t.Fatal("no transaction committed between the crashes; test vacuous")
	}

	// Quiet now. A checkpoint, a known number of logged operations, one last
	// restart: it redoes those and nothing older.
	if lwm, end := tcx.inc.Load().acks.LWM(), tcx.log.NextLSN()-1; lwm != end {
		t.Fatalf("low-water mark %d below the log end %d with no writer left: a dead incarnation's LSN was never completed", lwm, end)
	}
	if _, err := tcx.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	const tail = 10
	for i := 0; i < tail; i++ {
		if err := tcx.RunTxnOnce(ctx, TxnOptions{}, func(x *Txn) error {
			return x.Upsert("u", fmt.Sprintf("tail%d", i), []byte("v"))
		}); err != nil {
			t.Fatal(err)
		}
	}
	redone := tcx.Stats().RedoOps
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := tcx.Stats().RedoOps - redone; got > tail {
		t.Fatalf("the last restart redid %d operations, %d were logged since the checkpoint before it", got, tail)
	}
	if lwm, end := tcx.inc.Load().acks.LWM(), tcx.log.NextLSN()-1; lwm != end {
		t.Fatalf("low-water mark %d below the log end %d after the last restart", lwm, end)
	}
	if err := tcx.RunTxnOnce(ctx, TxnOptions{}, func(x *Txn) error {
		for w := range oracle {
			for k, st := range oracle[w] {
				v, ok, err := x.Read("t", k)
				if err != nil {
					return err
				}
				if got := string(v); got != st.last && !st.maybe[got] || ok != (got != "") {
					return fmt.Errorf("%s = %q (found %v): last acknowledged %q, ambiguous since %v", k, got, ok, st.last, st.maybe)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
