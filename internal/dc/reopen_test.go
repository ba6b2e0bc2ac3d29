package dc

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/storage"
)

// TestReopenFromDir proves the standalone-DC durability story at the DC
// layer: everything the first incarnation made stable — flushed pages,
// forced DC-log system transactions (splits), installed epoch fences —
// must come back when a second incarnation opens the same directory, with
// no TC in the picture. (Un-flushed cache contents are *supposed* to be
// gone; the TC's redo stream re-delivers them, which the core e2e tests
// cover.)
func TestReopenFromDir(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Name: "dc-reopen", Dir: dir, PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 200 // enough writes to force splits through the DC-log
	for i := 0; i < n; i++ {
		op := &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(i + 1), Kind: base.OpUpsert,
			Table: "kv", Key: fmt.Sprintf("k%04d", i), Value: []byte(fmt.Sprintf("v%d", i))}
		if res := d.Perform(ctx, op); res.Code != base.CodeOK {
			t.Fatalf("write %d: %+v", i, res)
		}
	}
	// Make everything stable the way a checkpoint would: the low-water mark
	// first, then the flush.
	d.LowWaterMark(1, 1, base.LSN(n))
	if err := d.Checkpoint(ctx, 1, 1, base.LSN(n+1)); err != nil {
		t.Fatal(err)
	}
	// Install an epoch fence, then drop the DC object without any shutdown
	// — the moral equivalent of kill -9 (stable media are on disk, the
	// process image is gone).
	if err := d.BeginRestart(ctx, 1, 7, base.LSN(n+1)); err != nil {
		t.Fatal(err)
	}
	if err := d.EndRestart(ctx, 1, 7); err != nil {
		t.Fatal(err)
	}

	r, err := New(Config{Name: "dc-reopen-2", Dir: dir, PageBytes: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if tables := r.Tables(); len(tables) != 1 || tables[0] != "kv" {
		t.Fatalf("tables after reopen: %v", tables)
	}
	// The fence names TC 1, so it owes the new incarnation a resend before
	// anything else — here an empty one: everything was checkpointed.
	if res := r.Perform(ctx, &base.Op{TC: 1, Epoch: 7, Kind: base.OpRead, Table: "kv", Key: "k0000"}); res.Code != base.CodeStaleDC {
		t.Fatalf("read before the resend: %+v, want CodeStaleDC", res)
	}
	if err := r.BeginRestart(ctx, 1, 7, base.LSN(n+1)); err != nil {
		t.Fatal(err)
	}
	if err := r.EndRestart(ctx, 1, 7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		op := &base.Op{TC: 1, Epoch: 7, LSN: base.LSN(1000 + i), Kind: base.OpRead,
			Table: "kv", Key: fmt.Sprintf("k%04d", i)}
		res := r.Perform(ctx, op)
		if res.Code != base.CodeOK || string(res.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("read %d after reopen: %+v", i, res)
		}
	}
	// The epoch fence survived the process death: the dead incarnation's
	// requests stay fenced.
	if res := r.Perform(ctx, &base.Op{TC: 1, Epoch: 1, LSN: 5000, Kind: base.OpUpsert,
		Table: "kv", Key: "zombie", Value: []byte("x")}); res.Code != base.CodeStaleEpoch {
		t.Fatalf("pre-restart epoch not fenced after reopen: %+v", res)
	}
	// Idempotence state survived too: a resend of an already-applied
	// (flushed) operation is recognized, not re-executed.
	res := r.Perform(ctx, &base.Op{TC: 1, Epoch: 7, LSN: 10, Kind: base.OpUpsert,
		Table: "kv", Key: "k0009", Value: []byte("clobber")})
	if res.Code != base.CodeOK || !res.Applied {
		t.Fatalf("resend of flushed op after reopen not recognized: %+v", res)
	}
}

// TestReopenAfterDCLogTruncationKeepsDLSNsMonotonic is the regression for
// a disk-format bug: a checkpoint can truncate the DC-log to empty, and
// the reopened log must still allocate dLSNs above everything the first
// incarnation consumed — stable pages carry those dLSN stamps, and the
// §5.2.2 redo idempotence tests (page.DLSN >= record dLSN) silently skip
// replays if a new incarnation reuses old dLSNs.
func TestReopenAfterDCLogTruncationKeepsDLSNsMonotonic(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{Name: "dlsn", Dir: dir, PageBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 300 // forces splits, so the DC-log sees real traffic
	for i := 0; i < n; i++ {
		op := &base.Op{TC: 1, Epoch: 1, LSN: base.LSN(i + 1), Kind: base.OpUpsert,
			Table: "kv", Key: fmt.Sprintf("k%04d", i), Value: []byte("v")}
		if res := d.Perform(ctx, op); res.Code != base.CodeOK {
			t.Fatalf("write %d: %+v", i, res)
		}
	}
	d.EndOfStableLog(1, 1, base.LSN(n+1))
	d.LowWaterMark(1, 1, base.LSN(n))
	// The checkpoint flushes everything and truncates the DC-log.
	if err := d.Checkpoint(ctx, 1, 1, base.LSN(n+1)); err != nil {
		t.Fatal(err)
	}
	last := d.DCLog().LastLSN()
	if last == 0 {
		t.Fatal("test did not consume any dLSNs")
	}

	r, err := New(Config{Name: "dlsn-2", Dir: dir, PageBytes: 512})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := r.DCLog().LastLSN(); got < last {
		t.Fatalf("dLSN allocation regressed across reopen: last=%d, first incarnation reached %d", got, last)
	}
}

// TestReopenAfterInterruptedFormat is the regression for a bricked data
// dir: a kill between the format's durable first allocation and the
// catalog page write leaves a journal whose allocator reached 1 with no
// pages. The next boot must format from scratch, not fail forever on the
// catalog-page-ID check.
func TestReopenAfterInterruptedFormat(t *testing.T) {
	dir := t.TempDir()
	s, err := storage.OpenPageStoreFile(filepath.Join(dir, "pages"))
	if err != nil {
		t.Fatal(err)
	}
	s.AllocPageID()
	s.Sync()
	d, err := New(Config{Name: "interrupted", Dir: dir})
	if err != nil {
		t.Fatalf("format over an interrupted format failed: %v", err)
	}
	if err := d.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	op := &base.Op{TC: 1, Epoch: 1, LSN: 1, Kind: base.OpUpsert, Table: "kv", Key: "k", Value: []byte("v")}
	if res := d.Perform(context.Background(), op); res.Code != base.CodeOK {
		t.Fatalf("write after recovered format: %+v", res)
	}
}
