package lockmgr

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// TestLockReleaseAllocs pins the steady state of the repo benchmark's write
// transaction at the lock manager: four X locks and a ReleaseAll allocate
// nothing once the free lists hold four locks and a held list. (A lockState
// and a granted map per lock, a held map per transaction and a slice per
// ReleaseAll cost 14.)
func TestLockReleaseAllocs(t *testing.T) {
	m, ctx := New(), context.Background()
	var res [64]Resource
	for i := range res {
		res[i] = KeyRes("t", fmt.Sprintf("k%03d", i))
	}
	txn := base.TxnID(0)
	got := testing.AllocsPerRun(1000, func() {
		txn++
		for i := 0; i < 4; i++ {
			if err := m.LockWait(ctx, txn, res[(int(txn)*4+i)%len(res)], X, 0); err != nil {
				t.Fatal(err)
			}
		}
		m.ReleaseAll(txn)
	})
	if got != 0 {
		t.Fatalf("4 x LockWait(X) + ReleaseAll = %.1f allocs, want 0", got)
	}
}

// checkFreeLocked fails the test if anything on the free lists still carries
// its previous owner: a holder, a waiter, a resource's strings, a lock.
func checkFreeLocked(t *testing.T, m *Manager) {
	t.Helper()
	for _, st := range m.freeStates {
		if st.res != (Resource{}) || len(st.holders) != 0 || st.one[0] != (holder{}) || st.queue != nil {
			t.Errorf("free lock carries res=%v holders=%v one=%v queue=%v", st.res, st.holders, st.one, st.queue)
		}
		if cap(st.holders) != 1 || &st.holders[:1][0] != &st.one[0] {
			t.Errorf("free lock's holder set is not its inline array (cap %d)", cap(st.holders))
		}
	}
	for _, h := range m.freeHeld {
		if len(h.locks) != 0 {
			t.Errorf("free held list has %d locks", len(h.locks))
		}
		for _, st := range h.locks[:cap(h.locks)] {
			if st != nil {
				t.Errorf("free held list still reaches lock %v", st.res)
			}
		}
	}
}

// TestRecycledStateIsClean runs the random stress of
// TestRandomStressNoLostWakeups — S and X on five keys from eight goroutines,
// so locks are shared, upgraded, waited for, timed out of and deadlocked on —
// with short waits mixed in, and audits the free lists while it runs and when
// it ends: whatever is recycled is indistinguishable from new, and in the end
// both maps are empty and every lock and held list is back on its free list.
func TestRecycledStateIsClean(t *testing.T) {
	m := New()
	keys := []string{"a", "b", "c", "d", "e"}
	stop := make(chan struct{})
	var audit sync.WaitGroup
	audit.Add(1)
	go func() {
		defer audit.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.mu.Lock()
			checkFreeLocked(t, m)
			m.mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(id) * 77))
			for i := 0; i < 300; i++ {
				txn := base.TxnID(id*10000 + i + 1)
				for j, n := 0, 1+rnd.Intn(3); j < n; j++ {
					res := KeyRes("t", keys[rnd.Intn(len(keys))])
					wait := time.Duration(rnd.Intn(3)) * time.Millisecond // 0: until granted or deadlocked
					if m.LockWait(context.Background(), txn, res, []Mode{S, X}[rnd.Intn(2)], wait) != nil {
						break
					}
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	audit.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	checkFreeLocked(t, m)
	if len(m.locks) != 0 || len(m.held) != 0 || len(m.waiting) != 0 {
		t.Fatalf("after the last ReleaseAll: %d locks, %d held lists, %d waiters", len(m.locks), len(m.held), len(m.waiting))
	}
	if len(m.freeStates) == 0 || len(m.freeStates) > len(keys) || len(m.freeHeld) == 0 || len(m.freeHeld) > 8 {
		t.Fatalf("free lists hold %d locks and %d held lists; at most %d and 8 ever existed at once",
			len(m.freeStates), len(m.freeHeld), len(keys))
	}
}
