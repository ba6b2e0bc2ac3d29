package wire

import "github.com/cidr09/unbundled/internal/stats"

// Stats-registry bridges: both transports publish their counters into one
// stats.Group schema, so an operator reading /stats sees the same names
// whether the fleet runs on the simulated fabric or real TCP. Registration
// installs read-only closures over the counters the transports already
// maintain — the hot path is untouched.

// RegisterStats publishes the simulated fabric's traffic counters into g.
func (n *Network) RegisterStats(g *stats.Group) {
	g.Func("sent", n.sent.Load)
	g.Func("delivered", n.delivered.Load)
	g.Func("dropped", n.dropped.Load)
	g.Func("duplicated", n.duplicated.Load)
	g.Func("bytes", n.bytes.Load)
	g.Func("resends", n.resends.Load)
}

// RegisterStats publishes this client endpoint's counters into g, prefixed
// so several endpoints (one per DC) can share one group. TCP-only counters
// (reconnects, bytes, frame errors, injected drops) read as zero on the
// simulated transport.
func (c *Client) RegisterStats(g *stats.Group, prefix string) {
	g.Func(prefix+"calls", c.calls.Load)
	g.Func(prefix+"resends", c.resends.Load)
	g.Func(prefix+"reconnects", c.Reconnects)
	// Standalone msgWatermarks frames sent, and watermark blocks that rode
	// a request frame instead of paying for one.
	g.Func(prefix+"watermark_frames", c.wmFrames.Load)
	g.Func(prefix+"watermarks_carried", c.wmCarried.Load)
	if c.link != nil {
		g.Func(prefix+"bytes_out", c.link.bytesOut.Load)
		g.Func(prefix+"bytes_in", c.link.bytesIn.Load)
		g.Func(prefix+"frame_errors", c.link.frameErrs.Load)
		g.Func(prefix+"drops_injected", c.link.dropsInjected.Load)
	}
}
