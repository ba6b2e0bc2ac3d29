package wal

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/cidr09/unbundled/internal/storage"
)

// opPayload is longer than one logged operation's payload in the repo
// benchmark's write transaction (81 bytes, an 89-byte record).
var opPayload = bytes.Repeat([]byte("p"), 119)

// TestAppendForceAllocs pins what the path every logged operation and every
// commit crosses may allocate: at most the caller's Record (it need not
// escape), the image growing by a chunk every few hundred records. The log
// held twice (decoded in wal, encoded in storage) cost 5.
func TestAppendForceAllocs(t *testing.T) {
	l := newLog(t)
	got := testing.AllocsPerRun(2000, func() {
		l.ForceTo(l.AppendAssign(&Record{Kind: 1, Txn: 7, Prev: l.LastLSN(), Payload: opPayload}))
	})
	if got > 1 {
		t.Fatalf("AppendAssign+ForceTo = %.1f allocs, want <= 1", got)
	}
}

// TestRetainedBytesPerRecord pins what a forced, untruncated record keeps
// resident: its encoding and one reference, not a decoded copy beside it.
func TestRetainedBytesPerRecord(t *testing.T) {
	const n = 100_000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	l, err := New(storage.NewLogStore())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// A fresh payload each, as every caller builds one.
		l.AppendAssign(&Record{Kind: 1, Txn: 7, Prev: l.LastLSN(), Payload: bytes.Clone(opPayload)})
	}
	l.Force()
	per := float64(int64(heap()-before)) / n
	runtime.KeepAlive(l)
	if per > 200 {
		t.Fatalf("%.0f B resident per retained record, want <= 200", per)
	}
	t.Logf("%.0f B resident per retained record", per)
}
