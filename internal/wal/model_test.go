package wal

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/storage"
)

// model is the trivially correct log the walk compares against: the
// retained records in order, how many of them are stable, and three LSNs.
type model struct {
	recs      []Record
	stable    int      // recs[:stable] survive a crash
	eosl      base.LSN // last LSN ever forced
	next      base.LSN
	truncated base.LSN // highest LSN ever discarded by Truncate
}

func (m *model) last() base.LSN {
	if n := len(m.recs); n > 0 {
		return m.recs[n-1].LSN
	}
	return m.eosl
}

func (m *model) force() {
	if m.stable < len(m.recs) {
		m.stable, m.eosl = len(m.recs), m.last()
	}
}

func (m *model) crash() {
	m.recs = m.recs[:m.stable]
	m.next = m.last() + 1
}

func (m *model) truncate(before base.LSN) {
	i := 0
	for i < m.stable && m.recs[i].LSN < before {
		m.truncated = m.recs[i].LSN
		i++
	}
	m.recs, m.stable = m.recs[i:], m.stable-i
}

// medium is one way of giving the log a store and of losing the process
// around it.
type medium struct {
	name   string
	open   func(t *testing.T, dir string) *storage.LogStore
	reopen func(t *testing.T, dir string, old *storage.LogStore, rng *rand.Rand) *storage.LogStore
}

func openFile(t *testing.T, dir string) *storage.LogStore {
	t.Helper()
	s, err := storage.OpenLogStoreFile(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var media = []medium{
	{
		name: "memory",
		open: func(*testing.T, string) *storage.LogStore { return storage.NewLogStore() },
		// The in-memory medium outlives its manager: restart is a new Log
		// over what the old store kept stable.
		reopen: func(_ *testing.T, _ string, old *storage.LogStore, _ *rand.Rand) *storage.LogStore {
			old.Crash()
			return old
		},
	},
	{
		name: "file",
		open: openFile,
		// A kill never runs destructors: the old store is simply dropped,
		// sometimes mid-append (a torn final frame the reopen must cut).
		reopen: func(t *testing.T, dir string, _ *storage.LogStore, rng *rand.Rand) *storage.LogStore {
			if rng.Intn(2) == 0 {
				f, err := os.OpenFile(filepath.Join(dir, "log"), os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				// An LSN, then a length the file does not deliver.
				if _, err := f.Write([]byte{0xff, 0x7f, 200, 'x'}[:1+rng.Intn(4)]); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			return openFile(t, dir)
		},
	},
}

func mustNew(t *testing.T, s *storage.LogStore) *Log {
	t.Helper()
	l, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// check compares everything the log answers with the model.
func check(t *testing.T, l *Log, m *model, rng *rand.Rand) {
	t.Helper()
	if got := l.EOSL(); got != m.eosl {
		t.Fatalf("EOSL = %d, want %d", got, m.eosl)
	}
	if got := l.LastLSN(); got != m.last() {
		t.Fatalf("LastLSN = %d, want %d", got, m.last())
	}
	var start base.LSN
	if len(m.recs) > 0 {
		start = m.recs[0].LSN
	}
	if got := l.StartLSN(); got != start {
		t.Fatalf("StartLSN = %d, want %d", got, start)
	}
	// Only a record takes an LSN: the next one is the last one plus one.
	if got := l.NextLSN(); got != m.next || got <= m.truncated || got != l.LastLSN()+1 {
		t.Fatalf("NextLSN = %d, want %d (above truncated %d, LastLSN %d plus one)", got, m.next, m.truncated, l.LastLSN())
	}
	for _, from := range []base.LSN{0, base.LSN(rng.Int63n(int64(m.next) + 2))} {
		var want []Record
		for _, r := range m.recs[:m.stable] {
			if r.LSN >= from {
				want = append(want, r)
			}
		}
		got := l.Scan(from)
		if len(got) != len(want) {
			t.Fatalf("Scan(%d) = %d records, want %d", from, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(*got[i], want[i]) {
				t.Fatalf("Scan(%d)[%d] = %+v, want %+v", from, i, *got[i], want[i])
			}
		}
	}
	// Every LSN up to and past the allocation point: stable, volatile,
	// truncated and never allocated.
	byLSN := make(map[base.LSN]*Record, len(m.recs))
	for i := range m.recs {
		byLSN[m.recs[i].LSN] = &m.recs[i]
	}
	for lsn := base.LSN(0); lsn <= m.next+1; lsn++ {
		got, want := l.Get(lsn), byLSN[lsn]
		if (got == nil) != (want == nil) || (got != nil && !reflect.DeepEqual(*got, *want)) {
			t.Fatalf("Get(%d) = %+v, want %+v", lsn, got, want)
		}
	}
}

// walk drives one seeded random sequence of every log operation against the
// model, checking after every step.
func walk(t *testing.T, md medium, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	store := md.open(t, dir)
	l := mustNew(t, store)
	m := &model{next: 1}
	anyLSN := func() base.LSN { return base.LSN(rng.Int63n(int64(m.next) + 2)) }
	for step := 0; step < steps; step++ {
		var op string
		switch k := rng.Intn(20); {
		case k < 8:
			r := Record{Kind: uint8(rng.Intn(4)), Txn: base.TxnID(rng.Intn(5)), Prev: anyLSN(), NextUndo: anyLSN()}
			if n := rng.Intn(3) * rng.Intn(100); n > 0 {
				r.Payload = make([]byte, n)
				rng.Read(r.Payload)
			}
			op = "AppendAssign"
			if got := l.AppendAssign(&r); got != m.next || got <= m.truncated {
				t.Fatalf("seed %d step %d: AppendAssign = %d, want %d (above truncated %d)", seed, step, got, m.next, m.truncated)
			}
			m.recs, m.next = append(m.recs, r), m.next+1
		case k < 13:
			// Any LSN a record was ever appended under and not lost since;
			// one at or below EOSL forces nothing.
			lsn := base.LSN(rng.Int63n(int64(m.last()) + 1))
			op = fmt.Sprintf("ForceTo(%d)", lsn)
			l.ForceTo(lsn)
			if lsn > m.eosl {
				m.force()
			}
		case k < 14:
			op = "Force"
			l.Force()
			m.force()
		case k < 15:
			op = "Crash"
			l.Crash()
			m.crash()
		case k < 18:
			before := anyLSN()
			if rng.Intn(4) == 0 {
				before = m.eosl + 1 // empties a fully stable log
			}
			op = fmt.Sprintf("Truncate(%d)", before)
			l.Truncate(before)
			m.truncate(before)
		default:
			op = "reopen"
			store = md.reopen(t, dir, store, rng)
			l = mustNew(t, store)
			m.crash()
		}
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("seed %d step %d after %s", seed, step, op)
				}
			}()
			check(t, l, m, rng)
		}()
	}
}

// TestModelWalk is the one test of the one log image: wal.Log over
// storage.LogStore, in memory and file-backed, against the model.
func TestModelWalk(t *testing.T) {
	walks := 1000
	if testing.Short() {
		walks = 100
	}
	for _, md := range media {
		t.Run(md.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= int64(walks); seed++ {
				walk(t, md, seed, 40)
			}
		})
	}
}

// TestConcurrentFileLog races appenders, forcers, truncations and one crash
// on a file-backed log, then checks the image against what the appenders
// know: every LSN was issued once per incarnation, the stable log is in LSN
// order, and every retained record is the one appended under that LSN. It
// ends with a reopen from the file the races left behind.
func TestConcurrentFileLog(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, openFile(t, dir))
	const appenders, perAppender = 4, 300
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		appended = map[base.LSN]base.TxnID{} // latest record appended under each LSN
		// Forcers stay out of the crash: ForceTo panics, by design, on an
		// LSN the crash took away. Appenders and truncators race with it.
		crashGate sync.RWMutex
		done      = make(chan struct{})
	)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				txn := base.TxnID(g*perAppender + i + 1)
				mu.Lock() // orders the map with the append, as mu orders LSNs with the store
				lsn := l.AppendAssign(&Record{Kind: 1, Txn: txn, Payload: opPayload})
				appended[lsn] = txn
				mu.Unlock()
				if i%10 == 0 {
					crashGate.RLock()
					if lsn <= l.LastLSN() {
						l.ForceTo(lsn)
					}
					crashGate.RUnlock()
				}
			}
		}(g)
	}
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // forcer
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			crashGate.RLock()
			l.Force()
			crashGate.RUnlock()
		}
	}()
	go func() { // checkpointer
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
			l.Truncate(l.EOSL() / 2)
		}
	}()
	time.Sleep(2 * time.Millisecond)
	crashGate.Lock()
	l.Crash()
	crashGate.Unlock()
	wg.Wait()
	close(done)
	bg.Wait()
	l.Force()

	verify := func(l *Log) {
		t.Helper()
		recs := l.Scan(0)
		if len(recs) == 0 {
			t.Fatal("nothing retained")
		}
		if recs[0].LSN != l.StartLSN() || recs[len(recs)-1].LSN != l.EOSL() || l.EOSL() != l.LastLSN() {
			t.Fatalf("bounds: scan [%d,%d], start %d eosl %d last %d",
				recs[0].LSN, recs[len(recs)-1].LSN, l.StartLSN(), l.EOSL(), l.LastLSN())
		}
		for i, r := range recs {
			if i > 0 && r.LSN <= recs[i-1].LSN {
				t.Fatalf("stable log out of order at %d: %d after %d", i, r.LSN, recs[i-1].LSN)
			}
			if appended[r.LSN] != r.Txn {
				t.Fatalf("LSN %d holds txn %d, appended txn %d", r.LSN, r.Txn, appended[r.LSN])
			}
			if got := l.Get(r.LSN); got == nil || !reflect.DeepEqual(got, r) {
				t.Fatalf("Get(%d) = %+v, scan saw %+v", r.LSN, got, r)
			}
		}
		if l.Get(recs[0].LSN-1) != nil || l.Get(l.LastLSN()+1) != nil {
			t.Fatal("Get returned a record outside the retained range")
		}
		if next := l.NextLSN(); next != l.LastLSN()+1 {
			t.Fatalf("next LSN %d, last %d", next, l.LastLSN())
		}
	}
	verify(l)
	verify(mustNew(t, openFile(t, dir)))
}
