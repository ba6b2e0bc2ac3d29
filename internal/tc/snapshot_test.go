package tc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/clock"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/page"
	"github.com/cidr09/unbundled/internal/stats"
)

// commitVersioned commits table t key "k" = val in one versioned txn.
func commitVersioned(t *testing.T, tcx *TC, key, val string) {
	t.Helper()
	if err := tcx.RunTxnOnce(context.Background(), TxnOptions{Versioned: true}, func(x *Txn) error {
		return x.Upsert("t", key, []byte(val))
	}); err != nil {
		t.Fatal(err)
	}
}

// snapRead begins a snapshot transaction shaped by opts, reads one key,
// and commits.
func snapRead(t *testing.T, tcx *TC, opts TxnOptions, key string) (string, bool) {
	t.Helper()
	opts.ReadOnly = true
	x := tcx.Begin(context.Background(), opts)
	v, ok, err := x.Read("t", key)
	if err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	if err := x.Commit(); err != nil {
		t.Fatal(err)
	}
	return string(v), ok
}

// TestSnapshotReadsCommittedPrefix is the headline contract: a snapshot
// read sees exactly the committed state at its timestamp, does not block
// on a concurrent writer's X lock, and involves neither the lock manager
// nor a TC round trip.
func TestSnapshotReadsCommittedPrefix(t *testing.T) {
	fake := clock.NewFake(1000, 0)
	tcx, d := newPair(t, Config{Clock: fake})
	commitVersioned(t, tcx, "k", "v1")

	// A concurrent writer updates the key but has not committed: it holds
	// the X lock and the DC record carries an uncommitted after version.
	w := tcx.Begin(context.Background(), TxnOptions{Versioned: true})
	if err := w.Update("t", "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}

	locks0 := tcx.Locks().Stats().Acquired
	ops0 := tcx.Stats().OpsSent
	if v, ok := snapRead(t, tcx, TxnOptions{}, "k"); !ok || v != "v1" {
		t.Fatalf("snapshot under writer lock: %q %v, want v1", v, ok)
	}
	if got := tcx.Locks().Stats().Acquired - locks0; got != 0 {
		t.Fatalf("snapshot read acquired %d locks, want 0", got)
	}
	if got := tcx.Stats().OpsSent - ops0; got != 0 {
		t.Fatalf("snapshot read cost %d TC round trips, want 0", got)
	}
	if n := tcx.Stats().Snapshots; n != 1 {
		t.Fatalf("snapshot txn count: %d", n)
	}

	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// A fresh snapshot begun after the commit completed must see it, even
	// though the clock has not ticked (the snapshot clamps to lastCommit).
	if v, ok := snapRead(t, tcx, TxnOptions{}, "k"); !ok || v != "v2" {
		t.Fatalf("snapshot after commit: %q %v, want v2", v, ok)
	}
	if got := d.Stats().SnapshotReads; got < 2 {
		t.Fatalf("DC snapshot-read count: %d, want >= 2", got)
	}
}

// TestSnapshotUncertaintyWait: a fresh snapshot waits out the clock's
// uncertainty window before its first read can run, and a bounded
// snapshot does not wait at all.
func TestSnapshotUncertaintyWait(t *testing.T) {
	fake := clock.NewFake(1000, 500*time.Nanosecond)
	tcx, _ := newPair(t, Config{Clock: fake})

	begun := make(chan *Txn)
	go func() {
		begun <- tcx.Begin(context.Background(), TxnOptions{ReadOnly: true})
	}()
	select {
	case <-begun:
		t.Fatal("fresh snapshot Begin returned inside the uncertainty window")
	case <-time.After(20 * time.Millisecond):
	}
	// snap = 1000+500; the wait needs Now().ts > snap+unc = 2000.
	fake.Set(2001)
	x := <-begun
	if x.SnapshotTS() != 1500 {
		t.Fatalf("snapshot TS: %d, want 1500", x.SnapshotTS())
	}
	_ = x.Commit()

	y := tcx.Begin(context.Background(), TxnOptions{ReadOnly: true,
		Snapshot: SnapshotBounded, Staleness: 100 * time.Nanosecond})
	if y.SnapshotTS() != 2001-100 {
		t.Fatalf("bounded snapshot TS: %d, want %d", y.SnapshotTS(), 2001-100)
	}
	_ = y.Commit()
}

// ms is one millisecond of timestamp: the GC horizon trails the safe
// timestamp by at least one watermark tick, so horizon tests keep their fake
// clocks on that scale.
const ms = base.TS(time.Millisecond)

// TestSnapshotBoundedStaleness: a bounded snapshot reads at most Staleness
// back. It reads exactly that far back while an older snapshot holds the GC
// horizon there, or while bounded readers keep asking for that much, and
// fresher once a few ticks have passed with neither.
func TestSnapshotBoundedStaleness(t *testing.T) {
	fake := clock.NewFake(10*ms, 0)
	tcx, _ := newPair(t, Config{Clock: fake})
	tcx.stopOnce.Do(func() { close(tcx.stopCh) }) // broadcast by hand only
	tcx.wg.Wait()
	broadcast := tcx.inc.Load().broadcastWatermarks
	commitVersioned(t, tcx, "k", "v1") // commit TS at/just above 10ms
	fake.Set(15 * ms)
	pin := tcx.Begin(context.Background(), TxnOptions{ReadOnly: true})
	if pin.SnapshotTS() != 15*ms {
		t.Fatalf("pinning snapshot TS: %d, want %d", pin.SnapshotTS(), 15*ms)
	}
	fake.Set(20 * ms)
	commitVersioned(t, tcx, "k", "v2") // commit TS at/just above 20ms
	fake.Set(30 * ms)
	broadcast()

	stale := TxnOptions{Snapshot: SnapshotBounded, Staleness: 15 * time.Millisecond}
	// 15ms back => reads at 15ms, which the pin keeps readable: v1.
	if v, ok := snapRead(t, tcx, stale, "k"); !ok || v != "v1" {
		t.Fatalf("15ms-stale read beside the pin: %q %v, want v1", v, ok)
	}
	if err := pin.Commit(); err != nil {
		t.Fatal(err)
	}
	// Nothing pinned, but that reader asked for 15ms within the tick: the
	// horizon stays 15ms back, and the next such reader reads there too.
	broadcast()
	if lag := tcx.HorizonLag(); lag != uint64(15*ms) {
		t.Fatalf("horizon lag %d after a 15ms-stale reader, want %d", lag, 15*ms)
	}
	if v, ok := snapRead(t, tcx, stale, "k"); !ok || v != "v1" {
		t.Fatalf("15ms-stale read while such readers keep coming: %q %v, want v1", v, ok)
	}
	// Each tick with no bounded reader halves the lag, down to one tick
	// (15, 7.5, 3.75, 1.875, then 1ms): the horizon closes in on the safe
	// timestamp, and the same reader then reads one tick below it.
	for range 5 {
		broadcast()
	}
	opts := stale
	opts.ReadOnly = true
	x := tcx.Begin(context.Background(), opts)
	if x.SnapshotTS() != 29*ms {
		t.Fatalf("bounded snapshot TS %d after a tick without readers: want %d", x.SnapshotTS(), 29*ms)
	}
	_ = x.Commit()
	if v, ok := snapRead(t, tcx, stale, "k"); !ok || v != "v2" {
		t.Fatalf("15ms-stale read after a tick without readers: %q %v, want v2", v, ok)
	}
	// Fresh sees the newest state.
	if v, ok := snapRead(t, tcx, TxnOptions{}, "k"); !ok || v != "v2" {
		t.Fatalf("fresh read: %q %v, want v2", v, ok)
	}
}

// TestHorizonFollowsReaders: a DC keeps a version while a snapshot can read
// it, and no longer. A bounded reader begun before a burst of overwrites
// still reads its version; once it has committed, the next watermark
// broadcast moves the DC's GC horizon past the burst, and the next
// overwrite leaves the key only the version a reader at the horizon sees.
func TestHorizonFollowsReaders(t *testing.T) {
	fake := clock.NewFake(10*ms, 0)
	tcx, d := newPair(t, Config{Clock: fake})
	reg := stats.NewRegistry()
	d.RegisterStats(reg.Group("dc"))
	record := func() (ts base.TS, hist []page.Version) {
		if err := d.Tree("t").View("k", func(p *page.Page) {
			r := p.Get("k")
			ts, hist = r.TS, append(hist, r.Hist...)
		}); err != nil {
			t.Fatal(err)
		}
		return ts, hist
	}

	commitVersioned(t, tcx, "k", "v0")
	fake.Set(12 * ms)
	reader := tcx.Begin(context.Background(), TxnOptions{ReadOnly: true,
		Snapshot: SnapshotBounded, Staleness: time.Millisecond})
	for i := 1; i <= 50; i++ {
		fake.Set(12*ms + base.TS(i)*ms/10)
		commitVersioned(t, tcx, "k", fmt.Sprintf("v%d", i))
	}
	if v, ok, err := reader.Read("t", "k"); err != nil || !ok || string(v) != "v0" {
		t.Fatalf("bounded reader after the burst: %q %v %v, want v0", v, ok, err)
	}
	tcx.inc.Load().broadcastWatermarks()
	if lag, want := tcx.HorizonLag(), uint64(17*ms-reader.SnapshotTS()); lag < want {
		t.Fatalf("horizon lag %d with the reader open, want at least %d", lag, want)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}

	fake.Set(20 * ms) // one more watermark tick
	tcx.inc.Load().broadcastWatermarks()
	if lag := tcx.HorizonLag(); lag > uint64(ms) {
		t.Fatalf("horizon lag %d with no reader open and the clock still, want at most one tick", lag)
	}
	last, _ := record()
	if gc := base.TS(reg.Snapshot()["dc"]["gc_horizon"]); gc < last {
		t.Fatalf("DC GC horizon %d with no reader open: want at or above the burst's last commit %d", gc, last)
	}
	commitVersioned(t, tcx, "k", "v51")
	if _, hist := record(); len(hist) > 1 {
		t.Fatalf("history after the reader left: %d versions, want at most 1", len(hist))
	}
}

// TestRestartFloorsTheHorizon: a TC restarted in a new process hands out no
// bounded snapshot below a horizon its predecessor broadcast — a DC only
// ever raises the horizon it holds for the TC.
func TestRestartFloorsTheHorizon(t *testing.T) {
	dir := t.TempDir()
	fake := clock.NewFake(10*ms, 0)
	d, err := dc.New(dc.Config{Name: "dc0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	tc1, err := New(Config{ID: 1, Dir: dir, Clock: fake}, []base.Service{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	commitVersioned(t, tc1, "k", "v1")
	fake.Set(50 * ms)
	tc1.inc.Load().broadcastWatermarks()
	tc1.tsMu.Lock()
	h := tc1.maxHorizonSent
	tc1.tsMu.Unlock()
	if h < 49*ms {
		t.Fatalf("first TC's horizon %d, want at least %d", h, 49*ms)
	}
	tc1.Close() // process death

	tc2, err := New(Config{ID: 1, Dir: dir, Clock: fake}, []base.Service{d}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tc2.Close()
	if err := tc2.Recover(); err != nil {
		t.Fatal(err)
	}
	x := tc2.Begin(context.Background(), TxnOptions{ReadOnly: true,
		Snapshot: SnapshotBounded, Staleness: time.Hour})
	defer x.Commit()
	if x.SnapshotTS() < h {
		t.Fatalf("bounded snapshot after restart at %d, below the predecessor's horizon %d", x.SnapshotTS(), h)
	}
}

// stallingService passes a TC's calls on to a DC, except for its watermark
// broadcasts while stalled: a TC whose ticks are late.
type stallingService struct {
	base.Service
	stalled atomic.Bool
}

func (s *stallingService) EndOfStableLog(tc base.TCID, epoch base.Epoch, eosl base.LSN) {
	if !s.stalled.Load() {
		s.Service.EndOfStableLog(tc, epoch, eosl)
	}
}

func (s *stallingService) LowWaterMark(tc base.TCID, epoch base.Epoch, lwm base.LSN) {
	if !s.stalled.Load() {
		s.Service.LowWaterMark(tc, epoch, lwm)
	}
}

func (s *stallingService) SafeTS(tc base.TCID, epoch base.Epoch, safe, horizon base.TS) {
	if !s.stalled.Load() {
		s.Service.SafeTS(tc, epoch, safe, horizon)
	}
}

// readV0 reads key "k" through x and fails unless it sees "v0".
func readV0(t *testing.T, x *Txn, when string) {
	t.Helper()
	if v, ok, err := x.Read("t", "k"); err != nil || !ok || string(v) != "v0" {
		t.Fatalf("read %s: %q %v %v, want v0", when, v, ok, err)
	}
}

// TestNewTCsReaderKeepsItsVersion: a TC that has just started holds the
// DC's GC horizon down even while its watermark ticks stall. Its bounded
// reader, begun before any tick, reads its version after a peer has moved
// its own horizon past the reader and overwritten the key.
func TestNewTCsReaderKeepsItsVersion(t *testing.T) {
	fake := clock.NewFake(10*ms, 0)
	peer, d := newPair(t, Config{Clock: fake})
	commitVersioned(t, peer, "k", "v0")
	fake.Set(30 * ms)
	svc := &stallingService{Service: d}
	late, err := New(Config{ID: 2, Clock: fake}, []base.Service{svc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	svc.stalled.Store(true)
	reader := late.Begin(context.Background(), TxnOptions{ReadOnly: true,
		Snapshot: SnapshotBounded, Staleness: 10 * time.Millisecond})
	defer reader.Commit()

	fake.Set(35 * ms)
	commitVersioned(t, peer, "k", "v1")
	fake.Set(45 * ms)
	peer.inc.Load().broadcastWatermarks()
	commitVersioned(t, peer, "k", "v2")
	svc.stalled.Store(false) // the read waits for the late TC's safe timestamp
	readV0(t, reader, "after the peer's overwrites")
}

// restartUnderReader holds a reader across a DC restart. The writer
// commits k = v0; a second TC, over what svc makes of the DC, begins a
// fresh reader at 20ms, and reads the key before through it when one is
// given, which names that TC in the DC's fences; the writer commits k = v1.
// Then the DC restarts, and the writer resends, broadcasts a horizon past
// the reader and commits k = v2.
func restartUnderReader(t *testing.T, svc func(*dc.DC) base.Service, before string) (reader *Txn) {
	fake := clock.NewFake(10*ms, 0)
	writer, d := newPair(t, Config{Clock: fake})
	commitVersioned(t, writer, "k", "v0")
	other, err := New(Config{ID: 2, Clock: fake}, []base.Service{svc(d)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	fake.Set(20 * ms)
	reader = other.Begin(context.Background(), TxnOptions{ReadOnly: true})
	t.Cleanup(func() { _ = reader.Commit() })
	if before != "" {
		if _, _, err := reader.Read("t", before); err != nil {
			t.Fatal(err)
		}
	}
	fake.Set(35 * ms)
	commitVersioned(t, writer, "k", "v1")

	d.Crash()
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := writer.RecoverDC(0); err != nil {
		t.Fatal(err)
	}
	fake.Set(45 * ms)
	writer.inc.Load().broadcastWatermarks()
	commitVersioned(t, writer, "k", "v2")
	return reader
}

// TestReaderKeepsItsVersionAcrossDCRestart: a TC that owes a restarted DC
// its resend holds the DC's GC horizon down. A reader that read there
// before the crash reads its version after a peer has resent, moved its
// horizon past the reader and overwritten the key.
func TestReaderKeepsItsVersionAcrossDCRestart(t *testing.T) {
	reader := restartUnderReader(t, func(d *dc.DC) base.Service { return d }, "j")
	readV0(t, reader, "after the restart") // resends first
}

// TestUnheardReaderIsRefused: a TC that never sent a DC an operation is
// not named in its fences, so owes a restarted incarnation nothing, and
// while its ticks stall the DC has not heard of it: a peer's horizon moves
// past its reader and the overwrite reclaims the reader's version. The read
// is refused as transient, never answered from the pruned history, and a
// fresh transaction reads.
func TestUnheardReaderIsRefused(t *testing.T) {
	stall := &stallingService{}
	reader := restartUnderReader(t, func(d *dc.DC) base.Service {
		stall.Service = d
		stall.stalled.Store(true)
		return stall
	}, "")
	stall.stalled.Store(false)
	if v, ok, err := reader.Read("t", "k"); !errors.Is(err, base.CodeSnapshotTooOld.Err()) || !base.IsTransient(err) {
		t.Fatalf("read below a horizon the DC took unheard: %q %v %v, want a transient refusal", v, ok, err)
	}
	// The clock stands at 45ms, just below v2's commit timestamp.
	if v, ok := snapRead(t, reader.tc, TxnOptions{}, "k"); !ok || v != "v1" {
		t.Fatalf("fresh read after the refusal: %q %v, want v1", v, ok)
	}
}

// TestSnapshotCommitTSRecovery: commit timestamps survive a TC crash —
// redo re-delivers winners' writes stamped with their logged timestamps,
// and restart never assigns a new commit timestamp at or below a durable
// one.
func TestSnapshotCommitTSRecovery(t *testing.T) {
	fake := clock.NewFake(1000, 0)
	tcx, _ := newPair(t, Config{Clock: fake})
	commitVersioned(t, tcx, "k", "v1")
	tcx.Crash()
	if err := tcx.Recover(); err != nil {
		t.Fatal(err)
	}
	commitVersioned(t, tcx, "k", "v2")
	if v, ok := snapRead(t, tcx, TxnOptions{}, "k"); !ok || v != "v2" {
		t.Fatalf("fresh read after recovery: %q %v, want v2", v, ok)
	}
	// Once the clock passes the allocator, bounded now-reads see v2 too:
	// recovery preserved the timestamp order of both incarnations.
	fake.Set(5000)
	if v, ok := snapRead(t, tcx, TxnOptions{Snapshot: SnapshotBounded}, "k"); !ok || v != "v2" {
		t.Fatalf("bounded now-read after recovery: %q %v, want v2", v, ok)
	}
}
