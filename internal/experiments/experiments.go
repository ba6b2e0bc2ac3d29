// Package experiments is the paper-reproduction table: one function per
// figure or claim that states something the paper states (E1 the §7
// unbundling tax and the two write-shipping modes over a slow link, E6 §5.3
// partial failures, E7/E8 §6 and §1.1 sharing and scaling, E9 snapshot
// versus locked reads, F1/F2 the two deployment figures). Each returns a
// harness.Report; cmd/unbundled-bench is the one entry point that prints
// them. They are not a gate and no claim may cite them: performance is
// measured by the repository benchmark (BENCHMARK.json, benchmark/). The
// numbering has a gap because what E2–E5 printed (abstract-LSN space,
// page-sync waits, range-lock probes, SMO counts and DC recovery time) is
// read from that benchmark's per-layer metrics.
package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/harness"
	"github.com/cidr09/unbundled/internal/monolith"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
	"github.com/cidr09/unbundled/internal/workload"
)

// Scale shrinks or grows every experiment uniformly.
type Scale struct {
	Workers   int
	TxnsPerW  int
	Keys      int
	ValueSize int
}

// DefaultScale is the configuration cmd/unbundled-bench reports at.
func DefaultScale() Scale {
	return Scale{Workers: 4, TxnsPerW: 800, Keys: 8000, ValueSize: 64}
}

// QuickScale is for smoke runs.
func QuickScale() Scale {
	return Scale{Workers: 2, TxnsPerW: 150, Keys: 1000, ValueSize: 64}
}

func (s Scale) kv(readFrac float64) workload.KV {
	return workload.KV{Keys: s.Keys, ValueSize: s.ValueSize, ReadFrac: readFrac,
		OpsPerTxn: 4, Seed: 42}
}

// kvTxn is the part of a transaction the KV mix uses; the unbundled
// *tc.Txn and the integrated *monolith.Txn both provide it, which is what
// lets one loop drive the two kernels identically.
type kvTxn interface {
	Read(table, key string) ([]byte, bool, error)
	Upsert(table, key string, val []byte) error
}

// runKV drives the KV mix: every worker draws from its own deterministic
// generator, and txn runs one transaction's body on whichever kernel the
// caller wraps.
func runKV(name string, s Scale, readFrac float64, txn func(body func(kvTxn) error) error) harness.Result {
	kv := s.kv(readFrac)
	gens := make([]*workload.Gen, s.Workers)
	for i := range gens {
		gens[i] = kv.NewGen(i)
	}
	return harness.Run(name, s.Workers, s.TxnsPerW, func(w, i int) error {
		g := gens[w]
		return txn(func(x kvTxn) error {
			for j := 0; j < g.OpsPerTxn(); j++ {
				key := g.Key()
				if g.IsRead() {
					if _, _, err := x.Read("kv", key); err != nil {
						return err
					}
				} else if err := x.Upsert("kv", key, g.Value()); err != nil {
					return err
				}
			}
			return nil
		})
	})
}

// runKVUnbundled drives the KV mix through the deployment client.
func runKVUnbundled(name string, dep *core.Deployment, s Scale, readFrac float64, opts core.TxnOptions) harness.Result {
	client := dep.Client()
	return runKV(name, s, readFrac, func(body func(kvTxn) error) error {
		return client.RunTxn(context.Background(), opts, func(x *tc.Txn) error { return body(x) })
	})
}

// E1 compares the unbundled kernel against the integrated baseline on the
// identical workload (§7: "our unbundling approach inevitably has longer
// code paths … justified by the flexibility of deploying
// adequately-grained cloud services"). The last row gives the wire real
// propagation delay: a versioned write-only transaction over a 200µs link,
// its writes leaving as one batch at the commit barrier and its finalizes as
// a second, so it costs two round trips however many writes it makes.
func E1(s Scale) *harness.Report {
	t := harness.NewReport()
	for _, readFrac := range []float64{0.5, 0.95} {
		mono, err := monolith.New(monolith.Config{})
		if err != nil {
			panic(err)
		}
		if err := mono.CreateTable("kv"); err != nil {
			panic(err)
		}
		t.Add(runKV(fmt.Sprintf("monolith/reads=%.0f%%", readFrac*100), s, readFrac,
			func(body func(kvTxn) error) error {
				return mono.RunTxn(func(x *monolith.Txn) error { return body(x) })
			}))

		for _, net := range []struct {
			name string
			cfg  *wire.Config
		}{
			{"unbundled-direct", nil},
			{"unbundled-wire", &wire.Config{}},
			// Nominal 1ms one-way delay; the host timer floor (~1.2ms in
			// the reference environment) sets the effective value.
			{"unbundled-wire+1ms", &wire.Config{Delay: time.Millisecond}},
		} {
			dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"}, Network: net.cfg})
			if err != nil {
				panic(err)
			}
			t.Add(runKVUnbundled(fmt.Sprintf("%s/reads=%.0f%%", net.name, readFrac*100), dep, s, readFrac, core.TxnOptions{}))
			dep.Close()
		}
	}
	dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
		Network: &wire.Config{Delay: 200 * time.Microsecond}})
	if err != nil {
		panic(err)
	}
	// Versioned upserts skip the existence pre-check, so no operation of
	// the transaction waits for the DC before the commit barrier.
	t.Add(runKVUnbundled("unbundled-wire+200µs/writes", dep, s, 0, core.TxnOptions{Versioned: true}))
	dep.Close()
	return t
}

// E8 fixes the work and varies the number of DC instances behind one TC
// (§1.1(3): deploy more DCs than TCs for load balance).
func E8(s Scale) *harness.Report {
	t := harness.NewReport()
	for _, dcs := range []int{1, 2, 4, 8} {
		n := dcs
		// mod(n) reads the key's digit run, matching workload.KVKeyIndex:
		// "key00000042" lands on DC 42 % n.
		dep, err := core.New(core.Options{TCs: 1, DCs: n,
			Placement: placement.MustParse(fmt.Sprintf("kv: dc=mod(%d) owner=any", n))})
		if err != nil {
			panic(err)
		}
		t.Add(runKVUnbundled(fmt.Sprintf("dcs=%d", n), dep, s, 0.5, core.TxnOptions{}))
		dep.Close()
	}
	return t
}
