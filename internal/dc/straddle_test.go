package dc

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dclog"
	"github.com/cidr09/unbundled/internal/page"
)

// A straddler is a call that loaded the incarnation before Crash and goes on
// working on it after Recover. These tests park one at a named point — on a
// page latch the test holds — across Crash + Recover, then let it go: whatever
// it does then lands in a discarded cache and must write nothing stable.

// parked waits until an acquisition of pg's latch, which the test holds, has
// had to wait: seen is the latch's contention count when the test took it.
func parked(t *testing.T, pg *page.Page, seen uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); pg.L.Contended() == seen; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("nothing parked on page %d's latch", pg.ID)
		}
	}
}

// leafOf returns the cached leaf that covers key.
func leafOf(t *testing.T, d *DC, key string) *page.Page {
	t.Helper()
	var leaf *page.Page
	if err := d.Tree("t").View(key, func(pg *page.Page) { leaf = pg }); err != nil {
		t.Fatal(err)
	}
	return leaf
}

// lastEpochs returns the dLSN of the latest KindEpochs record in the stable
// DC-log.
func lastEpochs(d *DC) base.LSN {
	var lsn base.LSN
	for _, rec := range d.DCLog().Scan(0) {
		if rec.Kind == dclog.KindEpochs {
			lsn = rec.LSN
		}
	}
	return lsn
}

// TestSplitStraddlingCrashLogsNothing: a Perform parks on the latch of a leaf
// it is about to split, across Crash + Recover. The leaf was made by a split
// whose record the crash lost, so a Split record naming it that reached the
// successor's DC-log would, once forced, stop every later Recover.
func TestSplitStraddlingCrashLogsNothing(t *testing.T) {
	const pageBytes = 256
	d := newDC(t, Config{PageBytes: pageBytes})
	h := newOpHelper(d, 1)
	key := func(i int) string { return fmt.Sprintf("k%04d", i) }
	n := 0
	for ; splits(d) == 0; n++ {
		h.insert(key(n), "v")
	}
	// The largest keys went to the right page of a split nothing has forced.
	right := leafOf(t, d, key(n-1))
	wouldSplit := func() bool { // what write will do to right with the next insert
		probe := right.Clone()
		probe.Put(page.Record{Key: key(n), Owner: 1, Value: []byte("v")})
		probe.Ab.Ensure(1).Add(h.next)
		return probe.Size() > pageBytes
	}
	for ; !wouldSplit(); n++ {
		h.insert(key(n), "v")
	}
	if splits(d) != 1 || d.DCLog().EOSL() >= d.DCLog().LastLSN() {
		t.Fatalf("%d splits, DC-log stable through %d of %d: want one unforced split", splits(d), d.DCLog().EOSL(), d.DCLog().LastLSN())
	}

	right.L.Lock()
	seen := right.L.Contended()
	done := make(chan *base.Result, 1)
	go func() { done <- h.insert(key(n), "v") }()
	parked(t, right, seen)
	restart(t, d)
	logged := d.DCLog().LastLSN()
	right.L.Unlock()
	if res := <-done; res.Code != base.CodeUnavailable {
		t.Errorf("the straddler's split answered %v, want unavailable", res.Code)
	}
	if last := d.DCLog().LastLSN(); last != logged {
		t.Errorf("the straddler appended dLSNs %d..%d to its successor's DC-log", logged+1, last)
	}
	d.DCLog().Force() // as the successor's next flush would
	restart(t, d)
}

// TestCheckpointStraddlingCrashWritesNothing: a Checkpoint parks in its
// flush of a dirty page, on a latch the test holds, across Crash + Recover.
// Let go, it must write no page over what the successor reads from the store,
// and must not truncate the successor's fence snapshot, without which the next
// Recover would reuse the successor's incarnation number.
func TestCheckpointStraddlingCrashWritesNothing(t *testing.T) {
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	for i := 0; i < 40; i++ {
		h.insert(fmt.Sprintf("k%04d", i), "v")
	}
	h.ack()
	pg := leafOf(t, d, "k0020")

	pg.L.RLock() // the checkpoint's own read of the page is let through; its flush waits
	seen := pg.L.Contended()
	done := make(chan error, 1)
	go func() { done <- d.Checkpoint(context.Background(), 1, 0, h.next) }()
	parked(t, pg, seen)
	d.Crash()
	images := map[base.PageID][]byte{}
	for _, id := range d.Store().IDs() {
		images[id], _ = d.Store().Read(id)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	snapshot, n := lastEpochs(d), d.inc.Load().n
	pg.L.RUnlock()
	t.Logf("the straddling checkpoint returned %v", <-done)

	if ids := d.Store().IDs(); len(ids) != len(images) {
		t.Errorf("the store holds %d pages, %d at the crash", len(ids), len(images))
	}
	for id, image := range images {
		if !d.Store().Holds(id, image) {
			t.Errorf("page %d was written after the crash", id)
		}
	}
	if rec := d.DCLog().Get(snapshot); rec == nil || rec.Kind != dclog.KindEpochs {
		t.Errorf("the successor's fence snapshot at dLSN %d is gone: %+v", snapshot, rec)
	}
	restart(t, d)
	if got := d.inc.Load().n; got <= n {
		t.Errorf("incarnation %d recovered as %d", n, got)
	}
}

// TestConsolidatedPageFreedByTruncation: a leaf consolidated away stays in the
// store while the DC-log holds the Consolidate record that deleted it, and is
// freed by the checkpoint whose truncation discards that record.
func TestConsolidatedPageFreedByTruncation(t *testing.T) {
	ctx := context.Background()
	d := newDC(t, Config{PageBytes: 256})
	h := newOpHelper(d, 1)
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	n := 0
	for ; splits(d) == 0; n++ {
		h.insert(key(n), "v")
	}
	h.ack()
	if err := d.Checkpoint(ctx, 1, 0, h.next); err != nil {
		t.Fatal(err)
	}
	right := leafOf(t, d, key(n-1)).ID
	for consolidates(d) == 0 {
		n--
		h.del(key(n))
	}
	if _, ok := d.Store().Read(right); leafOf(t, d, key(n-1)).ID == right || !ok {
		t.Fatalf("page %d, consolidated away, must stay in the store until its record is truncated", right)
	}
	h.ack()
	if err := d.Checkpoint(ctx, 1, 0, h.next); err != nil {
		t.Fatal(err)
	}
	for _, rec := range d.DCLog().Scan(0) {
		if rec.Kind == dclog.KindConsolidate {
			t.Fatalf("the checkpoint kept the Consolidate record at dLSN %d", rec.LSN)
		}
	}
	if _, ok := d.Store().Read(right); ok {
		t.Fatalf("page %d outlived the truncation of the record that deleted it", right)
	}
}
