package tc

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/placement"
)

// answer prints a range answer as "k=v k=v", or a point answer as "k=v" or
// "k=-" when not found.
func answer(keys []string, vals [][]byte) string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k + "=" + string(vals[i])
	}
	return strings.Join(out, " ")
}

func pointAnswer(key string, val []byte, found bool) string {
	if !found {
		return key + "=-"
	}
	return key + "=" + string(val)
}

// TestReadsSeeOwnQueuedWrites: every read that bypasses the transaction cache
// — a locked Scan, ScanDirty, ScanCommitted, ReadDirty, ReadCommitted —
// answers over the transaction's own writes exactly as it would if they were
// at the DC: a dirty or locked read sees them, and so does a committed read of
// an unversioned transaction, whose writes leave no before version; a
// committed read of a versioned one sees the versions committed before it.
// Table t is split over two DCs at key "f", so a range routed to DC 0 holds
// none of the writes routed to DC 1. A deleted key ahead of the range's first
// key makes limit 1 need more from the DC than one key.
func TestReadsSeeOwnQueuedWrites(t *testing.T) {
	for _, versioned := range []bool{false, true} {
		t.Run(fmt.Sprintf("versioned=%v", versioned), func(t *testing.T) {
			var svcs []base.Service
			for i := 0; i < 2; i++ {
				d, err := dc.New(dc.Config{Name: fmt.Sprintf("dc%d", i), CheckConflicts: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.CreateTable("t"); err != nil {
					t.Fatal(err)
				}
				svcs = append(svcs, d)
			}
			tcx, err := New(Config{ID: 1}, svcs, placement.MustParse("t: dc=range(<f:0,*:1)"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(tcx.Close)
			opts := TxnOptions{Versioned: versioned}
			if err := tcx.RunTxn(context.Background(), opts, func(x *Txn) error {
				for _, k := range []string{"a", "b", "c", "e", "g", "i"} {
					if err := x.Insert("t", k, []byte(k+"0")); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			safeTick(tcx) // the committed versions are committed at the DCs
			x := tcx.Begin(context.Background(), opts)
			defer x.Abort()
			for _, w := range []struct {
				call func(table, key string, val []byte) error
				key  string
			}{
				{func(table, key string, _ []byte) error { return x.Delete(table, key) }, "b"},
				{x.Upsert, "d"},
				{func(table, key string, _ []byte) error { return x.Delete(table, key) }, "e"},
				{x.Update, "g"},
				{x.Upsert, "i"},
			} {
				if err := w.call("t", w.key, []byte(w.key+"1")); err != nil {
					t.Fatal(err)
				}
			}
			// The committed view of a versioned transaction is the one before it.
			committed, committedRange := "b=- c=c0 d=d1 g=g1", "c=c0 d=d1"
			if versioned {
				committed, committedRange = "b=b0 c=c0 d=- g=g0", "b=b0 c=c0 e=e0"
			}
			ranges := []struct {
				name   string
				scan   func(table, lo, hi string, limit int) ([]string, [][]byte, error)
				lo, hi string
				limit  int
				want   string
			}{
				{"Scan", x.Scan, "b", "h", 0, "c=c0 d=d1"},
				{"Scan", x.Scan, "b", "h", 1, "c=c0"},
				{"Scan", x.Scan, "b", "h", 2, "c=c0 d=d1"},
				{"Scan", x.Scan, "f", "", 0, "g=g1 i=i1"},
				{"ScanDirty", x.ScanDirty, "b", "h", 0, "c=c0 d=d1"},
				{"ScanDirty", x.ScanDirty, "b", "h", 1, "c=c0"},
				{"ScanDirty", x.ScanDirty, "f", "", 0, "g=g1 i=i1"},
				{"ScanCommitted", x.ScanCommitted, "b", "h", 0, committedRange},
			}
			for _, r := range ranges {
				keys, vals, err := r.scan("t", r.lo, r.hi, r.limit)
				if err != nil {
					t.Fatalf("%s [%s, %s) limit %d: %v", r.name, r.lo, r.hi, r.limit, err)
				}
				if got := answer(keys, vals); got != r.want {
					t.Errorf("%s [%s, %s) limit %d = %q, want %q", r.name, r.lo, r.hi, r.limit, got, r.want)
				}
			}
			points := []struct {
				name string
				read func(table, key string) ([]byte, bool, error)
				want string
			}{
				{"ReadDirty", x.ReadDirty, "b=- c=c0 d=d1 g=g1"},
				{"ReadCommitted", x.ReadCommitted, committed},
			}
			for _, p := range points {
				var got []string
				for _, k := range []string{"b", "c", "d", "g"} {
					v, ok, err := p.read("t", k)
					if err != nil {
						t.Fatalf("%s %s: %v", p.name, k, err)
					}
					got = append(got, pointAnswer(k, v, ok))
				}
				if g := strings.Join(got, " "); g != p.want {
					t.Errorf("%s = %q, want %q", p.name, g, p.want)
				}
			}
		})
	}
}

// TestNothingLeavesBeforeCommit: a scan or an unlocked read in a writing
// transaction reads, and nothing else: no write leaves and no record is
// appended before Commit, which then ships one batch per DC; an Abort at the
// same point sends and appends nothing.
func TestNothingLeavesBeforeCommit(t *testing.T) {
	for _, versioned := range []bool{false, true} {
		for _, commit := range []bool{true, false} {
			tcx, dcs, stubs := newCountedPair(t)
			x := tcx.Begin(context.Background(), TxnOptions{Versioned: versioned})
			for _, w := range [][2]string{{"t", "a"}, {"t", "b"}, {"u", "c"}} {
				if err := x.Upsert(w[0], w[1], []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			logEnd := tcx.log.LastLSN()
			if keys, _, err := x.Scan("t", "a", "z", 0); err != nil || len(keys) != 2 {
				t.Fatalf("scan: %v %v", keys, err)
			}
			if v, ok, err := x.ReadDirty("t", "a"); err != nil || !ok || string(v) != "v" {
				t.Fatalf("read dirty: %q %v %v", v, ok, err)
			}
			if _, _, err := x.ReadCommitted("u", "c"); err != nil {
				t.Fatalf("read committed: %v", err)
			}
			if keys, _, err := x.ScanDirty("u", "a", "z", 0); err != nil || len(keys) != 1 {
				t.Fatalf("scan dirty: %v %v", keys, err)
			}
			for i, s := range stubs {
				if single, _, batches := s.take(); single != 0 || len(batches) != 0 {
					t.Fatalf("versioned=%v DC %d: %d single writes and batches %v before the transaction ended, want reads only",
						versioned, i, single, batches)
				}
			}
			if next := tcx.log.LastLSN(); next != logEnd {
				t.Fatalf("versioned=%v: the reads appended LSNs %d..%d", versioned, logEnd+1, next)
			}
			if !commit {
				if err := x.Abort(); err != nil {
					t.Fatal(err)
				}
				for i, s := range stubs {
					s.quiet(t, fmt.Sprintf("versioned=%v DC %d, abort", versioned, i))
				}
				if next := tcx.log.LastLSN(); next != logEnd {
					t.Fatalf("versioned=%v: the abort appended LSNs %d..%d", versioned, logEnd+1, next)
				}
				if v, ok := dirty(dcs[0], "t", "a"); ok {
					t.Fatalf("versioned=%v: an aborted write reached the DC: %q", versioned, v)
				}
				continue
			}
			if err := x.Commit(); err != nil {
				t.Fatal(err)
			}
			for i, want := range []string{"0 [2w]", "1 []"} { // DC 1's one write is a batch of one
				if single, reads, batches := stubs[i].take(); reads != 0 || fmt.Sprint(single, " ", batches) != want {
					t.Fatalf("versioned=%v DC %d: commit sent %d single writes, %d reads and batches %v, want %s",
						versioned, i, single, reads, batches, want)
				}
			}
		}
	}
}
