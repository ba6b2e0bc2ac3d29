package tc

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
)

// batchOnly passes every call on to its DC and records the size of each
// PerformBatch. Every operation a TC sends leaves as a PerformBatch, a lone
// one as a batch of one, so a Perform fails the test.
type batchOnly struct {
	base.Service
	t     *testing.T
	mu    sync.Mutex
	sizes []int
}

func (s *batchOnly) Perform(ctx context.Context, op *base.Op) *base.Result {
	s.t.Errorf("the TC called Perform(%v), not PerformBatch", op)
	return s.Service.Perform(ctx, op)
}

func (s *batchOnly) PerformBatch(ctx context.Context, ops []*base.Op) []*base.Result {
	s.mu.Lock()
	s.sizes = append(s.sizes, len(ops))
	s.mu.Unlock()
	return s.Service.PerformBatch(ctx, ops)
}

// expect fails the test unless the PerformBatch calls since the last expect
// carried want operations, call by call.
func (s *batchOnly) expect(step string, want ...int) {
	s.t.Helper()
	s.mu.Lock()
	got := s.sizes
	s.sizes = nil
	s.mu.Unlock()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		s.t.Fatalf("%s: PerformBatch calls of %v operations, want %v", step, got, want)
	}
}

// TestEveryCallIsAPerformBatch: each kind of call a TC makes reaches its DC
// as one PerformBatch — a read, a probe, a range read and a lone write as a
// batch of one — and never as a Perform.
func TestEveryCallIsAPerformBatch(t *testing.T) {
	d, err := dc.New(dc.Config{Name: "dc0", CheckConflicts: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	stub := &batchOnly{Service: d, t: t}
	tcx, err := New(Config{ID: 1}, []base.Service{stub}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tcx.Close)
	bg := context.Background()
	run := func(step string, opts TxnOptions, fn func(*Txn) error) {
		t.Helper()
		if err := tcx.RunTxnOnce(bg, opts, fn); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	read := func(read func(*Txn, string, string) ([]byte, bool, error)) func(*Txn) error {
		return func(x *Txn) error {
			if v, ok, err := read(x, "t", "k"); err != nil || !ok || string(v) != "v" {
				return fmt.Errorf("read %q %v %v", v, ok, err)
			}
			return nil
		}
	}

	run("one-write commit", TxnOptions{Versioned: true}, func(x *Txn) error {
		return x.Upsert("t", "k", []byte("v"))
	})
	stub.expect("one-write commit", 1)
	run("locked read", TxnOptions{}, read((*Txn).Read))
	stub.expect("locked read", 1)
	safeTick(tcx)
	run("snapshot read", TxnOptions{ReadOnly: true}, read((*Txn).Read))
	stub.expect("snapshot read", 1)
	run("ReadDirty", TxnOptions{}, read((*Txn).ReadDirty))
	stub.expect("ReadDirty", 1)
	run("ReadCommitted", TxnOptions{}, read((*Txn).ReadCommitted))
	stub.expect("ReadCommitted", 1)
	run("scan", TxnOptions{}, func(x *Txn) error {
		_, _, err := x.Scan("t", "a", "z", 0)
		return err
	})
	stub.expect("scan: probe, range read", 1, 1)

	x := tcx.Begin(bg, TxnOptions{})
	if err := x.Upsert("t", "cold", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := x.ReadDirty("t", "cold"); err != nil {
		t.Fatal(err)
	}
	stub.expect("a write, ReadDirty of it: the cache answers")
	if _, _, err := x.Scan("t", "a", "z", 0); err != nil {
		t.Fatal(err)
	}
	stub.expect("scan over the write: probe, range read", 1, 1)
	if err := x.Abort(); err != nil {
		t.Fatal(err)
	}
	stub.expect("abort: nothing")

	// A restart resends the one operation past the checkpoints in one
	// window: unstamped first, answered CodeStaleDC, then stamped.
	checkpointTwice(t, tcx)
	run("one-write commit", TxnOptions{}, func(x *Txn) error {
		return x.Upsert("t", "last", []byte("v"))
	})
	stub.expect("one-write commit", 1)
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	stub.expect("restart: a one-op window", 1, 1)
}
