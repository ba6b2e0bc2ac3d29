// Example networked: the TC:DC split over real TCP in one runnable file.
// A DC is served on a loopback socket (the role cmd/unbundled-dc plays as
// its own process), a deployment dials it with Options.DCAddrs, and the
// "process kill" is played by closing the listener — Listener.Close
// drains in-flight requests, so afterwards the abandoned DC object is
// quiescent forever and only its data directory matters, exactly what a
// kill between requests leaves behind. A second DC incarnation reopens
// the directory on the same address; the deployment reconnects, the TC
// resends its redo stream to the new incarnation by itself, and every
// committed write is still there.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

func main() {
	dir, err := os.MkdirTemp("", "unbundled-networked-*")
	check(err)
	defer os.RemoveAll(dir)

	startDC := func(addr string) *wire.Listener {
		d, err := dc.New(dc.Config{Name: "net-dc", Dir: dir})
		check(err)
		check(d.CreateTable("kv"))
		l, err := wire.Listen(addr, d)
		check(err)
		return l
	}

	l1 := startDC("127.0.0.1:0")
	fmt.Printf("DC serving on %s, stable media in %s\n", l1.Addr(), dir)

	dep, err := core.New(core.Options{
		DCAddrs:    []string{l1.Addr()},
		DialConfig: wire.DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond},
	})
	check(err)
	defer dep.Close()
	ctx := context.Background()
	check(dep.WaitConnected(ctx))
	client := dep.Client()

	put := func(i int) error {
		return client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
			return x.Upsert("kv", fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("val-%d", i)))
		})
	}
	const n = 100
	for i := 0; i < n/2; i++ {
		check(put(i))
	}
	fmt.Printf("committed %d transactions over TCP\n", n/2)

	// "kill -9": the listener vanishes mid-deployment; the DC object is
	// abandoned with whatever its cache held.
	addr := l1.Addr()
	l1.Close()
	fmt.Println("DC killed; writes now stall on resend...")

	done := make(chan error, 1)
	go func() {
		for i := n / 2; i < n; i++ {
			if err := put(i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	time.Sleep(30 * time.Millisecond) // let the outage bite

	l2 := startDC(addr) // restart on the same address and data dir
	defer l2.Close()
	check(<-done)
	fmt.Println("DC restarted; stalled writes landed after the automatic redo resend")

	check(client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
		for i := 0; i < n; i++ {
			v, ok, err := x.Read("kv", fmt.Sprintf("key-%03d", i))
			if err != nil {
				return err
			}
			if !ok || string(v) != fmt.Sprintf("val-%d", i) {
				return fmt.Errorf("key-%03d lost across the kill (found=%v)", i, ok)
			}
		}
		return nil
	}))
	ws := dep.RemoteWireStats()
	fmt.Printf("all %d committed writes intact (wire: %d calls, %d resends, %d reconnects)\n",
		n, ws.Calls, ws.Resends, ws.Reconnects)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "networked:", err)
		os.Exit(1)
	}
}
