package core

import (
	"context"
	"sync"
	"time"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// Remote deployments: the TCs live in this process, the DCs in others,
// reached over TCP (Options.DCAddrs). The assembly mirrors the simulated
// path — one dialed connection per (TC, DC) pair, each a wire.Client
// implementing base.Service — but crash/recovery orchestration changes
// shape: nobody in this process can call dc.Recover on a killed DC, so
// the deployment instead supervises the connections. A connection that
// drops and comes back means the DC process restarted (or the network
// blinked; the redo stream is idempotent either way), and the owning TC
// replays its logged operations from the redo scan start point before new
// work flows — the §4.2.1 out-of-band restart prompt, automated.

// dialDCs assembles the TCs of a remote deployment over one dialed
// connection per (TC, DC) pair.
func (d *Deployment) dialDCs(opts Options) error {
	err := d.assembleTCs(opts, func(_, di int) (base.Service, *wire.Client, *wire.Server) {
		cl := wire.Dial(opts.DCAddrs[di], opts.DialConfig)
		return cl, cl, nil
	})
	if err != nil {
		return err
	}
	// Connection supervision: every re-established session triggers a redo
	// replay for that (TC, DC) pair. The hook must be registered after the
	// TC exists — a reconnect in the window before this loop can only be
	// the initial connect, which needs no replay (the DC has seen nothing).
	for ti, t := range d.TCs {
		for di, cl := range d.clients[ti] {
			d.superviseRemoteDC(t, cl, di)
		}
	}
	// A TC reopening a previous incarnation's log (TCConfig.Dir) is NOT
	// recovered here: its restart protocol must reach the remote DCs, and
	// nothing has dialed yet. The caller gates on WaitConnected and then
	// runs RecoverTC for every TC whose NeedsRecovery reports true, as
	// cmd/unbundled-tc does.
	return nil
}

// superviseRemoteDC wires the dialed connection's reconnect signal to
// TC.RecoverDC. Reconnects are coalesced — a flap during a running replay
// schedules exactly one follow-up replay — and a failing replay is retried
// paced until it succeeds or the deployment closes: recovery must need no
// manual intervention.
func (d *Deployment) superviseRemoteDC(t *tc.TC, cl *wire.Client, di int) {
	var mu sync.Mutex
	running, again := false, false
	cl.OnReconnect(func() {
		mu.Lock()
		if running {
			again = true
			mu.Unlock()
			return
		}
		running = true
		mu.Unlock()
		for {
			err := t.RecoverDC(di)
			mu.Lock()
			if err == nil && !again {
				running = false
				mu.Unlock()
				return
			}
			again = false
			mu.Unlock()
			if err != nil {
				select {
				case <-d.closeCh:
					mu.Lock()
					running = false
					mu.Unlock()
					return
				case <-time.After(250 * time.Millisecond):
				}
			}
		}
	})
}

// WaitConnected blocks until every dialed DC connection of a remote
// deployment is established (or ctx is done) — a readiness gate for
// cmds and tests. In-process deployments return immediately.
func (d *Deployment) WaitConnected(ctx context.Context) error {
	for _, row := range d.clients {
		for _, cl := range row {
			if cl == nil {
				continue
			}
			if err := cl.WaitConnected(ctx); err != nil {
				return err
			}
		}
	}
	return nil
}

// Remote reports whether the deployment's DCs live in other processes
// (Options.DCAddrs). Crash/Recover of remote DCs is done by killing and
// restarting those processes, not through this Deployment.
func (d *Deployment) Remote() bool { return len(d.TCs) > 0 && len(d.DCs) == 0 }

// WireStats aggregates the dialed connections' counters: total request
// attempts, §4.2 resends, re-established TCP sessions, and admission
// refusals (base.ErrOverloaded replies) absorbed by the retry loop.
// Zero-valued on in-process deployments.
type WireStats struct {
	Calls, Resends, Reconnects, Overloads uint64
}

// RemoteWireStats sums the per-connection counters of a DCAddrs
// deployment (cmd/unbundled-tc reports them; the e2e suite asserts the
// resend path actually rode out a DC kill).
func (d *Deployment) RemoteWireStats() WireStats {
	var s WireStats
	for _, row := range d.clients {
		for _, cl := range row {
			if cl == nil {
				continue
			}
			s.Calls += cl.Calls()
			s.Resends += cl.Resends()
			s.Reconnects += cl.Reconnects()
			s.Overloads += cl.Overloads()
		}
	}
	return s
}
