package core

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// TestRemoteDeploymentKillRestart drives the Options.DCAddrs path without
// spawning processes: the "DC process" is a dc.DC behind a wire.Listener
// in this test, and its kill -9 is modelled as a kill between requests —
// the listener closes (draining in-flight handlers, so the abandoned,
// un-shut-down DC object can never touch its directory again) and only
// the disk directory survives into the second incarnation, which reopens
// it on the same address. The deployment must reconnect, replay the redo
// stream unprompted, and lose nothing.
func TestRemoteDeploymentKillRestart(t *testing.T) {
	dir := t.TempDir()
	startDC := func(addr string) *wire.Listener {
		t.Helper()
		d, err := dc.New(dc.Config{Name: "rdc", Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.CreateTable("kv"); err != nil {
			t.Fatal(err)
		}
		l, err := wire.Listen(addr, d)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l1 := startDC("127.0.0.1:0")
	addr := l1.Addr()

	dep, err := New(Options{
		TCs:     1,
		DCAddrs: []string{addr},
		DialConfig: wire.DialConfig{
			ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if !dep.Remote() {
		t.Fatal("DCAddrs deployment does not report Remote")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := dep.WaitConnected(ctx); err != nil {
		t.Fatal(err)
	}

	client := dep.Client()
	write := func(i int) error {
		return client.RunTxn(context.Background(), TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", fmt.Sprintf("k%04d", i), []byte(fmt.Sprintf("v%d", i)))
		})
	}
	const before, after = 150, 150
	for i := 0; i < before; i++ {
		if err := write(i); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := dep.TCs[0].Checkpoint(context.Background()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	// Kill: the listener vanishes, the DC object is abandoned with its
	// cache un-flushed. Only the directory survives.
	l1.Close()

	// Writes issued during the outage must simply stall and then land.
	errCh := make(chan error, after)
	go func() {
		for i := before; i < before+after; i++ {
			errCh <- write(i)
		}
	}()
	time.Sleep(50 * time.Millisecond) // let resends hit the void

	l2 := startDC(addr)
	defer l2.Close()

	for i := 0; i < after; i++ {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("outage-spanning write failed: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("outage-spanning writes never completed after DC restart")
		}
	}

	// Every committed write must be readable from the restarted DC.
	if err := client.RunTxn(context.Background(), TxnOptions{}, func(x *tc.Txn) error {
		for i := 0; i < before+after; i++ {
			v, ok, err := x.Read("kv", fmt.Sprintf("k%04d", i))
			if err != nil {
				return err
			}
			if !ok || string(v) != fmt.Sprintf("v%d", i) {
				return fmt.Errorf("key k%04d lost across kill+restart (found=%v, v=%q)", i, ok, v)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	ws := dep.RemoteWireStats()
	if ws.Reconnects == 0 {
		t.Fatalf("no reconnects recorded: %+v", ws)
	}
	if ws.Resends == 0 {
		t.Fatalf("no resends recorded: %+v", ws)
	}
}

// flapProxy forwards TCP connections to addr; cut drops every connection it
// holds, the way a network blink does, and the clients redial through it.
type flapProxy struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newFlapProxy(t *testing.T, addr string) *flapProxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flapProxy{ln: ln}
	t.Cleanup(func() { ln.Close(); p.cut() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", addr)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, s)
			p.mu.Unlock()
			go func() { io.Copy(s, c); s.Close() }()
			go func() { io.Copy(c, s); c.Close() }()
		}
	}()
	return p
}

func (p *flapProxy) cut() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

// TestConnectionFlapReplaysNothing: a TCP connection that drops and comes
// back while the DC keeps running is no DC restart. The reconnect only asks
// the DC whether it is owed a resend; it is not, and nothing is replayed —
// and every acknowledged write is still there.
func TestConnectionFlapReplaysNothing(t *testing.T) {
	d, err := dc.New(dc.Config{Name: "steady"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CreateTable("kv"); err != nil {
		t.Fatal(err)
	}
	l, err := wire.Listen("127.0.0.1:0", d)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	proxy := newFlapProxy(t, l.Addr())
	dep, err := New(Options{TCs: 1, DCAddrs: []string{proxy.ln.Addr().String()},
		DialConfig: wire.DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	ctx := context.Background()
	if err := dep.WaitConnected(ctx); err != nil {
		t.Fatal(err)
	}
	tcx := dep.TCs[0]
	const writers, cuts = 4, 3
	var stop atomic.Bool
	last := make([]map[string]string, writers) // per writer: key -> last acknowledged value
	errs := make(chan error, writers)
	for w := range last {
		last[w] = map[string]string{}
		go func(w int) {
			for i := 0; !stop.Load(); i++ {
				k, v := fmt.Sprintf("w%d-k%02d", w, i%10), fmt.Sprintf("w%d-%d", w, i)
				if err := tcx.RunTxn(ctx, tc.TxnOptions{}, func(x *tc.Txn) error {
					return x.Upsert("kv", k, []byte(v))
				}); err != nil {
					errs <- err
					return
				}
				last[w][k] = v
			}
			errs <- nil
		}(w)
	}
	for c := 0; c < cuts; c++ {
		time.Sleep(50 * time.Millisecond)
		proxy.cut()
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Every cut made the client redial, and the reconnect hook ran.
	for deadline := time.Now().Add(5 * time.Second); dep.RemoteWireStats().Reconnects < cuts; {
		if time.Now().After(deadline) {
			t.Fatalf("reconnects: %+v, want %d", dep.RemoteWireStats(), cuts)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // the last hook's ask
	if got := tcx.Stats().RedoOps; got != 0 {
		t.Fatalf("connection flaps without a DC restart replayed %d operations", got)
	}
	if err := tcx.RunTxn(ctx, tc.TxnOptions{}, func(x *tc.Txn) error {
		for w := range last {
			for k, want := range last[w] {
				if v, _, err := x.Read("kv", k); err != nil || string(v) != want {
					return fmt.Errorf("%s = %q, %v; last acknowledged %q", k, v, err, want)
				}
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteDeploymentCrashGuards pins the in-process-only crash API on
// remote deployments: both misuses fail loudly — CrashDC panics (it has
// no error return, and a silent no-op would fake a fault injection),
// RecoverDC returns a typed refusal.
func TestRemoteDeploymentCrashGuards(t *testing.T) {
	l := func() *wire.Listener {
		d, err := dc.New(dc.Config{Name: "g"})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := wire.Listen("127.0.0.1:0", d)
		if err != nil {
			t.Fatal(err)
		}
		return ln
	}()
	defer l.Close()
	dep, err := New(Options{DCAddrs: []string{l.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CrashDC on a remote DC did not panic")
			}
		}()
		dep.CrashDC(0)
	}()
	if err := dep.RecoverDC(0); err == nil {
		t.Fatal("RecoverDC on a remote DC did not error")
	}
}
