package lockmgr

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

func TestCompatibilityMatrix(t *testing.T) {
	cases := []struct {
		req, held Mode
		want      bool
	}{
		{S, S, true}, {S, X, false},
		{X, S, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := Compatible(c.req, c.held); got != c.want {
			t.Errorf("Compatible(%v,%v) = %v want %v", c.req, c.held, got, c.want)
		}
	}
}

func TestCovers(t *testing.T) {
	if !X.Covers(S) || !X.Covers(X) {
		t.Fatal("X must cover everything")
	}
	if S.Covers(X) || !S.Covers(S) || None.Covers(S) {
		t.Fatal("S covers itself and nothing stronger; no lock covers nothing")
	}
}

func TestSharedThenExclusiveBlocks(t *testing.T) {
	m := New()
	r := KeyRes("t", "k")
	if err := m.Lock(context.Background(), 1, r, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(context.Background(), 2, r, S); err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		if err := m.Lock(context.Background(), 3, r, X); err != nil {
			t.Error(err)
		}
		close(granted)
	}()
	select {
	case <-granted:
		t.Fatal("X granted alongside S holders")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	select {
	case <-granted:
		t.Fatal("X granted with one S holder left")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	select {
	case <-granted:
	case <-time.After(time.Second):
		t.Fatal("X never granted")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := New()
	r := KeyRes("t", "k")
	for i := 0; i < 3; i++ {
		if err := m.Lock(context.Background(), 1, r, X); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Lock(context.Background(), 1, r, S); err != nil {
		t.Fatal("X must cover S re-request")
	}
	m.ReleaseAll(1)
	if err := m.Lock(context.Background(), 2, r, X); err != nil {
		t.Fatal("release-all did not free the lock")
	}
}

func TestUpgrade(t *testing.T) {
	m := New()
	r := KeyRes("t", "k")
	if err := m.Lock(context.Background(), 1, r, S); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(context.Background(), 2, r, S); err != nil {
		t.Fatal(err)
	}
	upgraded := make(chan error, 1)
	go func() { upgraded <- m.Lock(context.Background(), 1, r, X) }()
	select {
	case err := <-upgraded:
		t.Fatalf("upgrade granted while other S holder present: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-upgraded; err != nil {
		t.Fatal(err)
	}
	if got := m.Held(1)[r]; got != X {
		t.Fatalf("held mode = %v", got)
	}
}

func TestUpgradeJumpsQueue(t *testing.T) {
	m := New()
	r := KeyRes("t", "k")
	m.Lock(context.Background(), 1, r, S)
	// Txn 2 queues for X behind txn 1's S.
	got2 := make(chan error, 1)
	go func() { got2 <- m.Lock(context.Background(), 2, r, X) }()
	time.Sleep(10 * time.Millisecond)
	// Txn 1 upgrades: must jump ahead of txn 2 (and be granted since it is
	// the only holder).
	if err := m.Lock(context.Background(), 1, r, X); err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	m.ReleaseAll(1)
	if err := <-got2; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New()
	ra, rb := KeyRes("t", "a"), KeyRes("t", "b")
	m.Lock(context.Background(), 1, ra, X)
	m.Lock(context.Background(), 2, rb, X)
	errs := make(chan error, 2)
	go func() { errs <- m.Lock(context.Background(), 1, rb, X) }()
	time.Sleep(20 * time.Millisecond)
	go func() { errs <- m.Lock(context.Background(), 2, ra, X) }()
	err := <-errs
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	// The victim aborts: releasing its locks unblocks the survivor.
	m.ReleaseAll(2)
	if err := <-errs; err != nil {
		t.Fatalf("survivor got %v", err)
	}
	m.ReleaseAll(1)
	if m.Stats().Deadlocks != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	m := New()
	r := func(k string) Resource { return KeyRes("t", k) }
	m.Lock(context.Background(), 1, r("a"), X)
	m.Lock(context.Background(), 2, r("b"), X)
	m.Lock(context.Background(), 3, r("c"), X)
	errs := make(chan error, 3)
	go func() { errs <- m.Lock(context.Background(), 1, r("b"), X) }()
	time.Sleep(10 * time.Millisecond)
	go func() { errs <- m.Lock(context.Background(), 2, r("c"), X) }()
	time.Sleep(10 * time.Millisecond)
	go func() { errs <- m.Lock(context.Background(), 3, r("a"), X) }()
	err := <-errs
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected deadlock, got %v", err)
	}
	m.ReleaseAll(3) // victim was 3 (it closed the cycle)
	if e := <-errs; e != nil {
		t.Fatalf("unexpected: %v", e)
	}
}

func TestTimeout(t *testing.T) {
	m := New()
	m.Timeout = 30 * time.Millisecond
	r := KeyRes("t", "k")
	m.Lock(context.Background(), 1, r, X)
	start := time.Now()
	err := m.Lock(context.Background(), 2, r, X)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("returned too early")
	}
	// After the timeout the queue entry is gone; release and re-acquire.
	m.ReleaseAll(1)
	if err := m.Lock(context.Background(), 2, r, X); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOFairnessNoStarvation(t *testing.T) {
	m := New()
	r := KeyRes("t", "k")
	m.Lock(context.Background(), 1, r, S)
	// Writer queues.
	wGot := make(chan struct{})
	go func() {
		m.Lock(context.Background(), 2, r, X)
		close(wGot)
	}()
	time.Sleep(10 * time.Millisecond)
	// A later reader must NOT jump ahead of the queued writer.
	rGot := make(chan struct{})
	go func() {
		m.Lock(context.Background(), 3, r, S)
		close(rGot)
	}()
	select {
	case <-rGot:
		t.Fatal("reader starved the queued writer")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll(1)
	<-wGot
	m.ReleaseAll(2)
	<-rGot
}

// Mutual exclusion property under concurrent stress: at most one X holder
// or any number of S holders, never both.
func TestStressMutualExclusion(t *testing.T) {
	m := New()
	res := KeyRes("t", "hot")
	var readers, writers atomic.Int32
	var violations atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(id)))
			for i := 0; i < 300; i++ {
				txn := base.TxnID(id*1000 + i + 1)
				if rnd.Intn(2) == 0 {
					if err := m.Lock(context.Background(), txn, res, S); err != nil {
						continue
					}
					readers.Add(1)
					if writers.Load() > 0 {
						violations.Add(1)
					}
					readers.Add(-1)
				} else {
					if err := m.Lock(context.Background(), txn, res, X); err != nil {
						continue
					}
					writers.Add(1)
					if writers.Load() > 1 || readers.Load() > 0 {
						violations.Add(1)
					}
					writers.Add(-1)
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	if v := violations.Load(); v > 0 {
		t.Fatalf("%d mutual-exclusion violations", v)
	}
}

func TestRandomStressNoLostWakeups(t *testing.T) {
	m := New()
	m.Timeout = 2 * time.Second
	keys := []string{"a", "b", "c", "d", "e"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(id) * 77))
			for i := 0; i < 200; i++ {
				txn := base.TxnID(id*10000 + i + 1)
				n := 1 + rnd.Intn(3)
				ok := true
				for j := 0; j < n; j++ {
					res := KeyRes("t", keys[rnd.Intn(len(keys))])
					mode := []Mode{S, X}[rnd.Intn(2)]
					if err := m.Lock(context.Background(), txn, res, mode); err != nil {
						ok = false
						break
					}
				}
				_ = ok
				m.ReleaseAll(txn)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress test hung: lost wakeup or undetected deadlock")
	}
}

func BenchmarkUncontendedLock(b *testing.B) {
	m := New()
	res := KeyRes("t", "k")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := base.TxnID(i + 1)
		m.Lock(context.Background(), txn, res, X)
		m.ReleaseAll(txn)
	}
}

func BenchmarkLockPerKey(b *testing.B) {
	m := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			txn := base.TxnID(rand.Int63() + 1)
			res := KeyRes("t", fmt.Sprintf("k%d", i%1024))
			if m.Lock(context.Background(), txn, res, S) == nil {
				m.ReleaseAll(txn)
			}
		}
	})
}

// BenchmarkScanLocks10k is one transaction S-locking 10 000 keys — a
// fetch-ahead scan — and releasing them: the cost per lock must not grow with
// the locks the transaction already holds.
func BenchmarkScanLocks10k(b *testing.B) {
	m, ctx := New(), context.Background()
	res := make([]Resource, 10_000)
	for i := range res {
		res[i] = KeyRes("t", fmt.Sprintf("k%07d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := base.TxnID(i + 1)
		for _, r := range res {
			if err := m.LockWait(ctx, txn, r, S, 0); err != nil {
				b.Fatal(err)
			}
		}
		m.ReleaseAll(txn)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(res)), "ns/lock")
}

// TestErrorTaxonomy pins the sentinel folding: lockmgr failures must
// errors.Is-match the public taxonomy (and classify as transient) so
// retry policies can branch without string matching.
func TestErrorTaxonomy(t *testing.T) {
	if !errors.Is(ErrDeadlock, base.ErrDeadlock) {
		t.Fatal("ErrDeadlock does not fold into base.ErrDeadlock")
	}
	if !errors.Is(ErrTimeout, base.ErrLockTimeout) {
		t.Fatal("ErrTimeout does not fold into base.ErrLockTimeout")
	}
	if !base.IsTransient(ErrDeadlock) || !base.IsTransient(ErrTimeout) {
		t.Fatal("deadlock/timeout must classify as transient")
	}

	// End to end: a real deadlock and a real timeout carry the sentinels.
	m := New()
	ra, rb := KeyRes("t", "a"), KeyRes("t", "b")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.Lock(context.Background(), 1, ra, X))
	must(m.Lock(context.Background(), 2, rb, X))
	errs := make(chan error, 1)
	go func() { errs <- m.Lock(context.Background(), 1, rb, X) }()
	time.Sleep(20 * time.Millisecond)
	err := m.Lock(context.Background(), 2, ra, X)
	if !errors.Is(err, base.ErrDeadlock) {
		t.Fatalf("deadlock error %v does not match base.ErrDeadlock", err)
	}
	m.ReleaseAll(2)
	must(<-errs)
	m.ReleaseAll(1)

	m.Lock(context.Background(), 3, ra, X)
	if err := m.LockWait(context.Background(), 4, ra, X, 20*time.Millisecond); !errors.Is(err, base.ErrLockTimeout) {
		t.Fatalf("timeout error %v does not match base.ErrLockTimeout", err)
	}
	m.ReleaseAll(3)
}

// TestLockWaitCancellation: a blocked lock wait returns promptly when the
// context is cancelled, the error matches both ErrCancelled and the
// context's own error, and the abandoned request leaves no queue residue
// (the resource is re-acquirable and the waits-for graph is clean).
func TestLockWaitCancellation(t *testing.T) {
	m := New()
	r := KeyRes("t", "k")
	if err := m.Lock(context.Background(), 1, r, X); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 1)
	go func() { errs <- m.Lock(ctx, 2, r, X) }()
	time.Sleep(10 * time.Millisecond) // let txn 2 enqueue
	start := time.Now()
	cancel()
	select {
	case err := <-errs:
		if !errors.Is(err, base.ErrCancelled) {
			t.Fatalf("want ErrCancelled, got %v", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled via errors.Is, got %v", err)
		}
		if base.IsTransient(err) {
			t.Fatal("cancellation must not classify as transient")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled lock wait did not return")
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("cancelled wait took %v", el)
	}
	if m.Stats().Cancels != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	// The abandoned request must be gone: release and re-acquire works.
	m.ReleaseAll(1)
	if err := m.Lock(context.Background(), 3, r, X); err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

// TestLockDeadlineExceeded: a context deadline behaves like cancellation
// and surfaces context.DeadlineExceeded through errors.Is.
func TestLockDeadlineExceeded(t *testing.T) {
	m := New()
	r := KeyRes("t", "k")
	if err := m.Lock(context.Background(), 1, r, X); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := m.Lock(ctx, 2, r, X)
	if !errors.Is(err, base.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ErrCancelled + DeadlineExceeded, got %v", err)
	}
	m.ReleaseAll(1)
}

// TestPoison: a superseded manager (TC crash) fails every blocked waiter
// and every future wait with the poisoning error, while grants that
// already happened stay granted.
func TestPoison(t *testing.T) {
	m := New()
	r := KeyRes("t", "k")
	if err := m.Lock(context.Background(), 1, r, X); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() { errs <- m.Lock(context.Background(), 2, r, X) }()
	go func() { errs <- m.Lock(context.Background(), 3, KeyRes("t", "other"), S) }()
	for i := 0; ; i++ {
		m.mu.Lock()
		queued := len(m.waiting)
		m.mu.Unlock()
		if queued == 1 { // txn 3 is granted instantly; only txn 2 queues
			break
		}
		if i > 1000 {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	poison := fmt.Errorf("table gone: %w", base.ErrUnavailable)
	m.Poison(poison)

	// txn 3's grant succeeded; txn 2's wait fails with the poison error.
	var sawErr, sawNil int
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				sawNil++
			} else if errors.Is(err, base.ErrUnavailable) {
				sawErr++
			} else {
				t.Fatalf("unexpected error %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("poisoned waiter did not return")
		}
	}
	if sawErr != 1 || sawNil != 1 {
		t.Fatalf("got %d errors and %d grants, want 1 and 1", sawErr, sawNil)
	}
	// Future waits fail immediately, even for free resources.
	if err := m.Lock(context.Background(), 9, KeyRes("t", "free"), S); !errors.Is(err, base.ErrUnavailable) {
		t.Fatalf("post-poison lock = %v, want the poison error", err)
	}
	// Poisoning twice is a no-op.
	m.Poison(errors.New("second"))
	if err := m.Lock(context.Background(), 10, KeyRes("t", "free"), S); !errors.Is(err, poison) {
		t.Fatalf("second poison replaced the first: %v", err)
	}
}
