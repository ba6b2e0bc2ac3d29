package servicetest

import (
	"testing"
	"time"

	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/wire"
)

func newDC(t *testing.T) *dc.DC {
	d, err := dc.New(dc.Config{Name: "contract"})
	must(t, "dc.New", err, nil)
	t.Cleanup(d.Close)
	return d
}

func restart(t *testing.T, d *dc.DC) {
	d.Crash()
	must(t, "Recover", d.Recover(), nil)
}

func TestDirect(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		d := newDC(t)
		return Harness{Svc: d, DC: d, Restart: func(t *testing.T) { restart(t, d) }}
	})
}

// simulated opens each harness over a network of cfg: a DC restart takes its
// server down for longer than a frame may be in flight, so that no frame
// sent to one DC incarnation reaches the next.
func simulated(n *wire.Network, cfg wire.Config) func(t *testing.T) Harness {
	return func(t *testing.T) Harness {
		d := newDC(t)
		cl, srv := n.Connect(d)
		t.Cleanup(func() { cl.Close(); srv.Close() })
		return Harness{Svc: cl, DC: d, Restart: func(t *testing.T) {
			srv.SetDown(true)
			time.Sleep(cfg.Delay + cfg.Jitter)
			restart(t, d)
			srv.SetDown(false)
		}}
	}
}

func TestSim(t *testing.T) {
	Run(t, simulated(wire.NewNetwork(wire.Config{}), wire.Config{}))
}

// TestSimLossy runs the suite over a fabric that loses, duplicates and
// reorders frames, and requires that it did.
func TestSimLossy(t *testing.T) {
	cfg := wire.Config{LossProb: 0.2, DupProb: 0.2, Jitter: 500 * time.Microsecond, Seed: 59}
	n := wire.NewNetwork(cfg)
	Run(t, simulated(n, cfg))
	if st := n.Stats(); st.Resends == 0 || st.Duplicated == 0 || st.Dropped == 0 {
		t.Fatalf("a lossy run that resent %d, duplicated %d and dropped %d frames", st.Resends, st.Duplicated, st.Dropped)
	}
}

// TestTCP runs the suite over loopback TCP. A DC restart is a process's:
// its listener closes, the DC crashes, and a new one listens on the same
// address.
func TestTCP(t *testing.T) {
	Run(t, func(t *testing.T) Harness {
		d := newDC(t)
		l, err := wire.Listen("127.0.0.1:0", d)
		must(t, "Listen", err, nil)
		addr := l.Addr()
		cl := wire.Dial(addr, wire.DialConfig{ResendAfter: 5 * time.Millisecond, RedialBackoff: 2 * time.Millisecond})
		t.Cleanup(func() { cl.Close(); l.Close() })
		return Harness{Svc: cl, DC: d, Restart: func(t *testing.T) {
			l.Close()
			restart(t, d)
			l, err = wire.Listen(addr, d)
			must(t, "Listen", err, nil)
		}}
	})
}
