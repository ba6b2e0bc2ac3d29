package wire

import (
	"bufio"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/base"
)

// fullListener returns a TCP listener on loopback whose accept queue is full:
// it listens with a backlog of 0, which Linux reads as room for one
// connection, and that room is taken by a connection dialed here and never
// accepted. A later connect's SYN is dropped, so its dial waits out its
// timeout — a DC host that drops SYNs — until the test accepts the filler.
func fullListener(t *testing.T) (ln *net.TCPListener, filler net.Conn) {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := os.NewFile(uintptr(fd), "full-listener")
	defer f.Close()
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	l, err := net.FileListener(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if filler, err = net.DialTimeout("tcp", l.Addr().String(), time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { filler.Close() })
	return l.(*net.TCPListener), filler
}

// TestSafeTSNeverWaitsForADial: the TC's tick calls SafeTS on each DC in
// turn, so a SafeTS that blocked while a dial to a silent DC host ran out its
// ConnectTimeout would hold every other DC's safe timestamp, and the snapshot
// reads waiting on it, just as long. SafeTS must return at once, and the
// newest frame it was given must still arrive once the host answers.
func TestSafeTSNeverWaitsForADial(t *testing.T) {
	ln, _ := fullListener(t)
	cl := Dial(ln.Addr().String(), DialConfig{ConnectTimeout: 5 * time.Second})
	defer cl.Close()
	for safe := base.TS(1); safe <= 3; safe++ {
		start := time.Now()
		cl.SafeTS(1, 1, safe, 0)
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Fatalf("SafeTS %d took %v with the DC host dropping SYNs", safe, took)
		}
	}
	// The host answers: make room in the queue once the dial's first SYN has
	// been dropped. Its next SYN gets through, a second later, and the frame it
	// holds, the newest, goes out on its connection.
	time.Sleep(50 * time.Millisecond)
	ln.SetDeadline(time.Now().Add(10 * time.Second))
	queued, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	queued.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("the held SafeTS frame never dialed: %v", err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var m message
	if _, err := readFrame(bufio.NewReader(conn), nil, &m); err != nil {
		t.Fatal(err)
	}
	if m.kind != msgWatermarks || m.wm.safe != 3 {
		t.Fatalf("got %v frame with safe %d, want the newest SafeTS frame (safe 3)", m.kind, m.wm.safe)
	}
}
