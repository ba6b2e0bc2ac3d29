package wire

import (
	"context"
	"io"
	"net"
	"testing"

	"github.com/cidr09/unbundled/internal/base"
)

// The TCP transport's layer benchmarks. Run them side by side:
//
//	go test -run '^$' -bench 'TCPRoundTrip|LoopbackEcho' -benchmem ./internal/wire
//
// BenchmarkLoopbackEcho is the floor a round trip cannot go below on the
// machine at hand; the gap between the two is what the wire code costs per
// call (framing, codec, the client and server runtimes).

// BenchmarkTCPRoundTrip is one caller's one-op PerformBatch over loopback TCP
// to the echo service.
func BenchmarkTCPRoundTrip(b *testing.B) {
	l, err := Listen("127.0.0.1:0", newEchoService())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	cl := Dial(l.Addr(), DialConfig{})
	defer cl.Close()
	ctx := context.Background()
	if err := cl.WaitConnected(ctx); err != nil {
		b.Fatal(err)
	}
	ops := []*base.Op{{TC: 1, Epoch: 1, Kind: base.OpRead, Table: "t", Key: "k"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs := cl.PerformBatch(ctx, ops); rs[0].Code != base.CodeOK {
			b.Fatalf("perform: %+v", rs[0])
		}
	}
}

// BenchmarkLoopbackEcho is a bare 128-byte request echoed back over
// loopback TCP by a goroutine that only reads and writes: no wire code.
func BenchmarkLoopbackEcho(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var buf [128]byte
		for {
			if _, err := io.ReadFull(conn, buf[:]); err != nil {
				return
			}
			if _, err := conn.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	var buf [128]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Write(buf[:]); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}
