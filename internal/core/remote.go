package core

import (
	"context"

	"github.com/cidr09/unbundled/internal/base"
	"github.com/cidr09/unbundled/internal/wire"
)

// Remote deployments: the TCs live in this process, the DCs in others,
// reached over TCP (Options.DCAddrs). The assembly mirrors the simulated
// path — one dialed connection per (TC, DC) pair, each a wire.Client
// implementing base.Service — but crash/recovery orchestration changes
// shape: nobody in this process can call dc.Recover on a killed DC. It
// needs nobody to: a restarted DC refuses a TC's operations (CodeStaleDC)
// until that TC has resent its redo stream to it, and the refusal starts the
// resend (tc.TC.RecoverDC). A connection that drops and comes back does not
// mean the DC restarted — the network may have blinked — so a reconnect only
// asks: the TC opens its resend bracket, and a DC that did not restart
// answers that nothing is owed. The ask is for the TC that sends nothing a
// DC could refuse, and whose watermarks a restarted DC drops until it
// resends.

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
	for ti, t := range d.TCs {
		for di, cl := range d.clients[ti] {
			// A failed ask is asked again by the next refusal or reconnect.
			cl.OnReconnect(func() { _ = t.RecoverDC(di) })
		}
	}
	// A TC reopening a previous incarnation's log (TCConfig.Dir) is NOT
	// recovered here: its restart protocol must reach the remote DCs, and
	// nothing has dialed yet. The caller gates on WaitConnected and then
	// runs RecoverTC for every TC whose NeedsRecovery reports true, as
	// cmd/unbundled-tc does.
	return nil
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
