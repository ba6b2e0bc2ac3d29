package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/harness"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
)

// The throughput experiment measures the server runtime itself: one DC
// served over real loopback TCP (sharded worker pool with bounded
// admission, coalesced ack frames), several TC frontends dialing it, and
// an open-loop arrival schedule offered across them. Past the rate the
// runtime sustains, queueing stays bounded and the excess is shed as typed
// overloads the TC's wire client rides out.

// ThroughputOptions configures one open-loop TCP throughput run.
type ThroughputOptions struct {
	// Rate is the offered arrival rate, transactions per second
	// (default 8000).
	Rate int
	// Clients is the number of open-loop executor goroutines (default 64).
	Clients int
	// Duration is the offered window (default 3s).
	Duration time.Duration
	// Warmup is the unreported leading slice (default 500ms).
	Warmup time.Duration
}

func (o ThroughputOptions) withDefaults() ThroughputOptions {
	if o.Rate <= 0 {
		o.Rate = 8000
	}
	if o.Clients <= 0 {
		o.Clients = 64
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.Warmup <= 0 {
		o.Warmup = 500 * time.Millisecond
	}
	return o
}

// The fixed shape of a throughput run: TC frontends sharing the DC, the
// key-space size per TC partition, upserts per transaction, and the value
// payload in bytes.
const (
	throughputTCs       = 2
	throughputKeys      = 4096
	throughputOpsPerTxn = 4
	throughputValueSize = 64
)

// ThroughputRun measures the server runtime: an in-process DC served on
// loopback TCP, the TC frontends dialed to it, and an open-loop schedule of
// o.Rate versioned multi-upsert transactions spread round-robin across the
// TCs (each TC writes its own key prefix, so the frontends never contend on
// locks — the server is the variable). Ops ship synchronously: every
// upsert is a full server round trip, the maximum wire pressure per
// transaction (the pipelined mode's TC-global ack barrier convoys
// concurrent committers and would measure the TC, not the server).
// Result.Retries carries the wire resends and Result.Overloads the
// admission refusals the clients absorbed underneath the run.
func ThroughputRun(o ThroughputOptions) harness.Result {
	o = o.withDefaults()
	d, err := dc.New(dc.Config{Name: "bench-dc"})
	if err != nil {
		panic(err)
	}
	if err := d.CreateTable("kv"); err != nil {
		panic(err)
	}
	l, err := wire.Listen("127.0.0.1:0", d)
	if err != nil {
		panic(err)
	}
	dep, err := core.New(core.Options{
		TCs:      throughputTCs,
		DCAddrs:  []string{l.Addr()},
		TCConfig: func(int) tc.Config { return tc.Config{Pipeline: false} },
	})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	if err := dep.WaitConnected(ctx); err != nil {
		panic(err)
	}
	client := dep.Client()
	value := make([]byte, throughputValueSize)
	res := harness.RunOpenLoop(ctx, harness.Load{
		Name:     "open-loop",
		Rate:     o.Rate,
		Clients:  o.Clients,
		Duration: o.Duration,
		Warmup:   o.Warmup,
		Workload: func(ctx context.Context, seq int) error {
			tcIdx := seq % throughputTCs
			// Multiplicative hash spreads adjacent arrivals across the
			// keyspace: sequential indexes would convoy every in-flight
			// transaction onto the same B-tree leaf.
			k := int(uint64(seq/throughputTCs) * 2654435761 % uint64(throughputKeys))
			opts := core.TxnOptions{TC: tcIdx + 1, Versioned: true}
			return client.RunTxn(ctx, opts, func(x *tc.Txn) error {
				for j := 0; j < throughputOpsPerTxn; j++ {
					key := fmt.Sprintf("t%d/key%06d-%d", tcIdx, k, j)
					if err := x.Upsert("kv", key, value); err != nil {
						return err
					}
				}
				return nil
			})
		},
	})
	ws := dep.RemoteWireStats()
	res.Retries = ws.Resends
	res.Overloads += ws.Overloads
	dep.Close()
	l.Close()
	d.Close()
	return res
}
