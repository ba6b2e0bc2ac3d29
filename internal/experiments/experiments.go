// Package experiments implements the reproduction of every figure and
// claim in the paper (cmd/unbundled-bench holds the index). Each
// experiment returns a harness.Report; the cmd tool prints its rows and
// bench_test.go wraps them as Go benchmarks.
package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/dc"
	"github.com/cidr09/unbundled/internal/harness"
	"github.com/cidr09/unbundled/internal/monolith"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/wire"
	"github.com/cidr09/unbundled/internal/workload"
)

// Scale shrinks or grows every experiment uniformly (benchmarks use
// smaller than DefaultScale).
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

// QuickScale is for smoke runs and Go benchmarks.
func QuickScale() Scale {
	return Scale{Workers: 2, TxnsPerW: 150, Keys: 1000, ValueSize: 64}
}

func (s Scale) kv(readFrac float64) workload.KV {
	return workload.KV{Keys: s.Keys, ValueSize: s.ValueSize, ReadFrac: readFrac,
		OpsPerTxn: 4, Seed: 42}
}

// runKVUnbundled drives the KV mix through the deployment client.
func runKVUnbundled(name string, dep *core.Deployment, s Scale, readFrac float64) harness.Result {
	kv := s.kv(readFrac)
	gens := make([]*workload.Gen, s.Workers)
	for i := range gens {
		gens[i] = kv.NewGen(i)
	}
	ctx := context.Background()
	client := dep.Client()
	return harness.Run(name, s.Workers, s.TxnsPerW, func(w, i int) error {
		g := gens[w]
		return client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
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

func runKVMonolith(name string, e *monolith.Engine, s Scale, readFrac float64) harness.Result {
	kv := s.kv(readFrac)
	gens := make([]*workload.Gen, s.Workers)
	for i := range gens {
		gens[i] = kv.NewGen(i)
	}
	return harness.Run(name, s.Workers, s.TxnsPerW, func(w, i int) error {
		g := gens[w]
		return e.RunTxn(func(x *monolith.Txn) error {
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

// E1 compares the unbundled kernel against the integrated baseline on the
// identical workload (§7: "our unbundling approach inevitably has longer
// code paths … justified by the flexibility of deploying
// adequately-grained cloud services").
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
		t.Add(runKVMonolith(fmt.Sprintf("monolith/reads=%.0f%%", readFrac*100), mono, s, readFrac))

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
			t.Add(runKVUnbundled(fmt.Sprintf("%s/reads=%.0f%%", net.name, readFrac*100), dep, s, readFrac))
			dep.Close()
		}
	}
	return t
}

// E3 compares the three §5.1.2 page-sync strategies under a steady update
// stream with concurrent checkpoint-driven flushing.
func E3(s Scale) *harness.Report {
	t := harness.NewReport()
	for _, strat := range []struct {
		name string
		cfg  dc.Config
	}{
		{"block", dc.Config{Strategy: 1}},
		{"full", dc.Config{Strategy: 2}},
		{"hybrid(8)", dc.Config{Strategy: 3, HybridMax: 8}},
	} {
		strat := strat
		dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
			DCConfig: func(int) dc.Config { return strat.cfg }})
		if err != nil {
			panic(err)
		}
		stop := make(chan struct{})
		go func() { // steady checkpoint pressure forces page syncs
			for {
				select {
				case <-stop:
					return
				case <-time.After(2 * time.Millisecond):
					_, _ = dep.TCs[0].Checkpoint(context.Background())
				}
			}
		}()
		res := runKVUnbundled(strat.name, dep, s, 0.2)
		close(stop)
		st := dep.DCs[0].Pool().Stats()
		perPage := "0"
		if st.Flushes > 0 {
			perPage = fmt.Sprintf("%.1f", float64(st.AbLSNBytes)/float64(st.Flushes))
		}
		res.Extra = []harness.Col{
			{Name: "flushes", Value: fmt.Sprintf("%d", st.Flushes)},
			{Name: "flushWaits", Value: fmt.Sprintf("%d", st.FlushWaits)},
			{Name: "barrierHits", Value: fmt.Sprintf("%d", st.BarrierHits)},
			{Name: "abLSN-bytes/page", Value: perPage},
		}
		t.Add(res)
		dep.Close()
	}
	return t
}

// E4 compares the §3.1 range-locking protocols: fetch-ahead key locking
// versus static range buckets. The paper predicts static ranges reduce
// locking overhead but give up concurrency: with few workers (low
// contention) static wins on overhead; with concentrated updates and more
// workers, whole-bucket X locks serialize writers and fetch-ahead's
// key-granular locks win.
func E4(s Scale) *harness.Report {
	t := harness.NewReport()
	for _, contention := range []struct {
		name    string
		workers int
		theta   float64
		buckets int
		net     *wire.Config
		scale   float64 // txn-count multiplier (network runs are slow)
	}{
		{"lowContention", s.Workers, 0, 64, nil, 1},
		{"hotKeys", s.Workers * 4, 1.2, 8, nil, 1},
		// Over a real network the fetch-ahead protocol pays an extra
		// message round trip per range (the speculative probe); static
		// ranges need none.
		{"wire+1ms", 2, 0, 64, &wire.Config{Delay: time.Millisecond}, 0.1},
	} {
		for _, proto := range []tc.RangeProtocol{tc.FetchAhead, tc.StaticRange} {
			proto := proto
			cont := contention
			dep, err := core.New(core.Options{TCs: 1, DCs: 1, Tables: []string{"kv"},
				Network: cont.net,
				TCConfig: func(int) tc.Config {
					return tc.Config{Protocol: proto, RangeBuckets: cont.buckets,
						LockTimeout: 2 * time.Second}
				}})
			if err != nil {
				panic(err)
			}
			// Preload.
			ctx := context.Background()
			client := dep.Client()
			tcx := dep.TCs[0]
			for i := 0; i < s.Keys; i += 4 {
				if err := client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
					return x.Upsert("kv", workload.KVKey(i), []byte("v"))
				}); err != nil {
					panic(err)
				}
			}
			kv := s.kv(0)
			kv.Theta = cont.theta
			gens := make([]*workload.Gen, cont.workers)
			for i := range gens {
				gens[i] = kv.NewGen(i)
			}
			perWorker := int(float64(s.TxnsPerW/2) * cont.scale)
			if perWorker < 10 {
				perWorker = 10
			}
			name := fmt.Sprintf("%s/%s", proto, cont.name)
			res := harness.Run(name, cont.workers, perWorker, func(w, i int) error {
				g := gens[w]
				if g.Rand().Float64() < 0.3 {
					lo := g.Rand().Intn(s.Keys - 64)
					return client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
						_, _, err := x.Scan("kv", workload.KVKey(lo), workload.KVKey(lo+32), 0)
						return err
					})
				}
				key := g.Key()
				return client.RunTxn(ctx, core.TxnOptions{}, func(x *tc.Txn) error {
					return x.Upsert("kv", key, g.Value())
				})
			})
			ls := tcx.Locks().Stats()
			res.Extra = []harness.Col{
				{Name: "locks", Value: fmt.Sprintf("%d", ls.Acquired)},
				{Name: "waits", Value: fmt.Sprintf("%d", ls.Waited)},
				{Name: "deadlocks", Value: fmt.Sprintf("%d", ls.Deadlocks)},
				{Name: "probes", Value: fmt.Sprintf("%d", tcx.Stats().Probes)},
			}
			t.Add(res)
			dep.Close()
		}
	}
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
		t.Add(runKVUnbundled(fmt.Sprintf("dcs=%d", n), dep, s, 0.5))
		dep.Close()
	}
	return t
}
