package dc

import (
	"context"
	"fmt"
	"os"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/dclog"
)

// powerLoss crashes d and cuts its page journal back to the last Sync, what
// a power loss leaves of it at worst (its logs fsync every force), and opens
// the directory again.
func powerLoss(t *testing.T, d *DC) *DC {
	t.Helper()
	d.Crash()
	d.Store().PowerCut()
	r, err := New(d.cfg)
	if err != nil {
		t.Fatalf("reopen after the power loss: %v", err)
	}
	return r
}

// put writes key=value for TC 1 under epoch 1 at lsn.
func put(t testing.TB, d *DC, lsn int, key, value string) {
	t.Helper()
	op := &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(lsn), Kind: base.OpUpsert,
		Table: "t", Key: key, Value: []byte(value)}
	if res := d.Perform(context.Background(), op); res.Code != base.CodeOK {
		t.Fatalf("write %d: %+v", lsn, res)
	}
}

// checkpointAll makes everything TC 1 wrote up to lsn stable, the way its
// checkpoint does: the low-water mark first, then the call.
func checkpointAll(t testing.TB, d *DC, lsn int) {
	t.Helper()
	d.LowWaterMark(1, 1, base.LSN(lsn))
	if err := d.Checkpoint(context.Background(), 1, 1, base.LSN(lsn+1)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointSurvivesPowerLoss: a checkpoint releases the TC's redo for
// what it covers and truncates the DC-log, so the pages it made stable must
// survive a power loss, not only a kill: every key reads back after one.
func TestCheckpointSurvivesPowerLoss(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Name: "power", Dir: dir, PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	const n = 200 // enough writes to split through the DC-log
	for i := 1; i <= n; i++ {
		put(t, d, i, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i))
	}
	checkpointAll(t, d, n)
	r := powerLoss(t, d)
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 || entries[0].Name() != "dclog" || entries[1].Name() != "pages" {
		t.Fatalf("the DC's directory holds %v (%v), want dclog and pages", entries, err)
	}
	ctx := context.Background()
	if err := r.BeginRestart(ctx, 1, 2, base.LSN(n+1)); err != nil {
		t.Fatal(err)
	}
	if err := r.EndRestart(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		op := &base.Op{TC: 1, Epoch: 2, Kind: base.OpRead, Table: "t", Key: fmt.Sprintf("k%04d", i)}
		if res := r.Perform(ctx, op); res.Code != base.CodeOK || string(res.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("read of k%04d after the power loss: %+v", i, res)
		}
	}
}

// TestRedoRaisesTheAllocator: a power loss can take a split's allocations out
// of the page journal while the forced DC-log still names its pages; the
// DC's next allocation must still be above them.
func TestRedoRaisesTheAllocator(t *testing.T) {
	d, err := New(Config{Name: "alloc", Dir: t.TempDir(), PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	d.Store().Sync() // the last Sync: the split's allocations come after it
	for i := 1; splits(d) == 0; i++ {
		put(t, d, i, fmt.Sprintf("k%04d", i), "v")
	}
	d.DCLog().Force()
	var named base.PageID
	for _, rec := range d.DCLog().Scan(0) {
		if rec.Kind == dclog.KindSplit {
			sp, err := dclog.DecodeSplit(rec.Payload)
			if err != nil {
				t.Fatal(err)
			}
			named = max(named, sp.RightID, sp.NewRootID)
		}
	}
	if named == 0 {
		t.Fatal("no split in the DC-log")
	}
	r := powerLoss(t, d)
	if id := r.Store().AllocPageID(); id <= named {
		t.Fatalf("allocated page %d after a power loss; the DC-log names page %d", id, named)
	}
}

// BenchmarkDiskCheckpoint measures the checkpoint of a disk-backed DC whose
// writes since the last one dirtied 64 of its leaves: the time and the page
// journal's fsyncs per checkpoint.
func BenchmarkDiskCheckpoint(b *testing.B) {
	d, err := New(Config{Name: "bench", Dir: b.TempDir(), PageBytes: 512})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.CreateTable("t"); err != nil {
		b.Fatal(err)
	}
	const keys, dirty = 4096, 64
	lsn := 0
	for k := range keys {
		lsn++
		put(b, d, lsn, fmt.Sprintf("k%05d", k), "v")
	}
	checkpointAll(b, d, lsn)
	before := d.Store().Stats()
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		for k := i % (keys / dirty); k < keys; k += keys / dirty {
			lsn++
			put(b, d, lsn, fmt.Sprintf("k%05d", k), fmt.Sprint(i))
		}
		b.StartTimer()
		checkpointAll(b, d, lsn)
	}
	after := d.Store().Stats()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/ckpt")
	b.ReportMetric(float64(after.Syncs-before.Syncs)/float64(b.N), "fsyncs/ckpt")
	b.ReportMetric(float64(after.PageWrites-before.PageWrites)/float64(b.N), "pages/ckpt")
}
