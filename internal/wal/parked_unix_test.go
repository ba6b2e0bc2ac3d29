//go:build unix

package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestAppendWhileRewriteParked parks a truncation's file rewrite and requires
// the log to stay usable meanwhile. No hook is needed: the rewrite opens
// <log>.tmp for writing, and when that name is a FIFO with no reader the
// open blocks until the test opens the other end. (The rewrite then fails at
// fsync, which a FIFO refuses — the panic is expected and is how the test
// knows where the truncation was parked.)
func TestAppendWhileRewriteParked(t *testing.T) {
	dir := t.TempDir()
	l := mustNew(t, openFile(t, dir))
	for i := 0; i < 3; i++ {
		l.AppendAssign(&Record{Kind: 1})
	}
	l.Force()
	fifo := filepath.Join(dir, "log.tmp")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}

	truncated := make(chan string, 1)
	go func() {
		defer func() { truncated <- fmt.Sprint(recover()) }()
		l.Truncate(3)
	}()
	used := make(chan error, 1)
	go func() {
		for l.StartLSN() != 3 { // the image moves before the file does
			time.Sleep(100 * time.Microsecond)
		}
		lsn := l.AppendAssign(&Record{Kind: 2})
		if r := l.Get(lsn); r == nil || r.Kind != 2 || len(l.Scan(0)) != 1 || l.EOSL() != 3 {
			used <- fmt.Errorf("Get(%d) = %+v, Scan = %d records, EOSL = %d", lsn, r, len(l.Scan(0)), l.EOSL())
			return
		}
		used <- nil
	}()
	select {
	case err := <-used:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the log stalled behind a truncation's file rewrite")
	}
	select {
	case msg := <-truncated:
		t.Fatalf("the rewrite was not parked: Truncate returned (%s)", msg)
	default:
	}

	r, err := os.Open(fifo) // the other end: the rewrite proceeds
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	go io.Copy(io.Discard, r)
	if msg := <-truncated; !strings.Contains(msg, "truncate rewrite") {
		t.Fatalf("Truncate ended with %q, want the rewrite's fsync refusal", msg)
	}
}
