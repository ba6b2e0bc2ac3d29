package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/cidr09/unbundled/internal/core"
	"github.com/cidr09/unbundled/internal/harness"
	"github.com/cidr09/unbundled/internal/placement"
	"github.com/cidr09/unbundled/internal/tc"
	"github.com/cidr09/unbundled/internal/workload"
)

// E7 reproduces §6: multiple TCs updating disjoint partitions of one DC,
// plus never-blocked read-committed readers over versioned data. The
// throughput column shows update scaling with TC count; the reader row
// shows read latency while all writers are running (readers take no locks
// and are "never blocked" — §6.2.2).
func E7(s Scale) *harness.Report {
	t := harness.NewReport()
	for _, tcs := range []int{1, 2, 4} {
		// Writer w (TC w+1) owns the "p<w>/" key-range slice of the table;
		// the reader TC (tcs+1) owns nothing and reads everywhere.
		var ent strings.Builder
		for w := 1; w < tcs; w++ {
			fmt.Fprintf(&ent, "<p%d:%d,", w, w)
		}
		dep, err := core.New(core.Options{TCs: tcs + 1, DCs: 1,
			Placement: placement.MustParse(
				fmt.Sprintf("users: dc=0 owner=range(%s*:%d)", ent.String(), tcs))})
		if err != nil {
			panic(err)
		}
		ctx := context.Background()
		client := dep.Client()
		// The reader TC does read-committed point reads for as long as the
		// writers run; its samples are its own until readerDone closes.
		readerRes := harness.Result{Name: fmt.Sprintf("reader-with-%d-writers", tcs),
			Extra: []harness.Col{{Name: "note", Value: "read-committed, lock-free, never blocked"}}}
		stopReader, readerDone := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(readerDone)
			reader := core.TxnOptions{TC: tcs + 1, ReadOnly: true}
			g := s.kv(1).NewGen(99)
			for n := 0; ; n++ {
				select {
				case <-stopReader:
					return
				default:
				}
				key := fmt.Sprintf("p%d/%s", n%tcs, g.Key())
				t0 := time.Now()
				if err := client.RunTxn(ctx, reader, func(x *tc.Txn) error {
					_, _, err := x.ReadCommitted("users", key)
					return err
				}); err != nil {
					readerRes.Errors++
					continue
				}
				readerRes.Latencies = append(readerRes.Latencies, time.Since(t0))
			}
		}()
		gens := make([]*workload.Gen, tcs)
		for w := range gens {
			gens[w] = s.kv(0).NewGen(w)
		}
		res := harness.Run(fmt.Sprintf("writers=%d", tcs), tcs, s.TxnsPerW, func(w, i int) error {
			key := fmt.Sprintf("p%d/%s", w, gens[w].Key())
			return client.RunTxn(ctx, core.TxnOptions{TC: w + 1, Versioned: true}, func(x *tc.Txn) error {
				return x.Upsert("users", key, gens[w].Value())
			})
		})
		close(stopReader)
		<-readerDone
		res.Extra = []harness.Col{{Name: "note", Value: "disjoint update partitions, no 2PC"}}
		t.Add(res)
		readerRes.Txns, readerRes.Elapsed = uint64(len(readerRes.Latencies)), res.Elapsed
		t.Add(readerRes)
		dep.Close()
	}
	return t
}

// F2 reproduces Figure 2 and §6.3: the movie site (workload.Seed and
// W1–W4 define it). Users and their updates (W2, W3, W4) are partitioned
// across two updating TCs; movie review reads (W1) run on a separate
// reader TC as timestamp snapshots; Movies/Reviews partition by MId over
// two DCs, Users/MyReviews by UId over a third. Updating transactions are
// completely local to one TC — no distributed transactions — and no query
// touches more than two DCs.
func F2(s Scale) *harness.Report {
	p := workload.MoviePlacement{MovieDCs: 2, UserDCs: 1,
		Movies: s.Keys / 10, Users: s.Keys / 4, UpdateTCs: 2}
	dep, err := core.New(core.Options{
		TCs: p.UpdateTCs + 1, DCs: p.MovieDCs + p.UserDCs,
		Placement: p.Placement(),
	})
	if err != nil {
		panic(err)
	}
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()
	must(workload.Seed(ctx, client, p))

	rnds := make([]*rand.Rand, s.Workers)
	for i := range rnds {
		rnds[i] = rand.New(rand.NewSource(int64(200 + i)))
	}
	t := harness.NewReport()
	for _, w := range []struct {
		name, dcs, protocol string
		run                 func(rnd *rand.Rand, i int) error
	}{
		{"W2 add review", "2", "local txn at owner TC (no 2PC)", func(rnd *rand.Rand, i int) error {
			u, m := rnd.Intn(p.Users), rnd.Intn(p.Movies)
			return workload.W2(ctx, client, p, u, m, []byte(fmt.Sprintf("review of %d by %d (#%d)", m, u, i)))
		}},
		{"W3 update profile", "1", "local txn at owner TC", func(rnd *rand.Rand, i int) error {
			u := rnd.Intn(p.Users)
			return workload.W3(ctx, client, p, u, []byte(fmt.Sprintf("profile-%d-v%d", u, i)))
		}},
		{"W1 reviews of movie", "1", "snapshot scan at reader TC, no locks, no TC round trip", func(rnd *rand.Rand, i int) error {
			_, err := workload.W1(ctx, client, p, rnd.Intn(p.Movies))
			return err
		}},
		{"W4 reviews by user", "1", "locked scan of own partition", func(rnd *rand.Rand, i int) error {
			_, err := workload.W4(ctx, client, p, rnd.Intn(p.Users))
			return err
		}},
	} {
		res := harness.Run(w.name, s.Workers, s.TxnsPerW/2, func(worker, i int) error {
			return w.run(rnds[worker], i)
		})
		res.Extra = []harness.Col{{Name: "dcsTouched", Value: w.dcs}, {Name: "protocol", Value: w.protocol}}
		t.Add(res)
	}
	return t
}

// F1 deploys the Figure-1 architecture: two applications on separate TCs
// over four heterogeneous DCs (two record stores, an inverted-index DC,
// and a geo-prefix DC) and reports aggregate throughput per DC kind.
func F1(s Scale) *harness.Report {
	tables := []string{"photos", "accounts", "textidx", "shapes"}
	// Whole-table axes: each table lives on its own (heterogeneous) DC,
	// and ownership is per application — app1 (TC 1) owns everything but
	// the accounts table, which is app2's (TC 2).
	dep, err := core.New(core.Options{TCs: 2, DCs: 4,
		Placement: placement.MustParse(
			"photos: dc=0 owner=1; accounts: dc=1 owner=2; textidx: dc=2 owner=1; shapes: dc=3 owner=1")})
	if err != nil {
		panic(err)
	}
	defer dep.Close()
	ctx := context.Background()
	client := dep.Client()
	t := harness.NewReport()
	app1 := harness.Run("app1 photo+index", s.Workers, s.TxnsPerW/2, func(w, i int) error {
		id := fmt.Sprintf("p%d-%d", w, i)
		return client.RunTxn(ctx, core.TxnOptions{TC: 1}, func(x *tc.Txn) error {
			if err := x.Upsert("photos", "a1/"+id, []byte("blob")); err != nil {
				return err
			}
			if err := x.Upsert("textidx", "a1/word"+id+"#"+id, nil); err != nil {
				return err
			}
			return x.Upsert("shapes", "a1/9q8yy"+id+"#"+id, nil)
		})
	})
	app1.Extra = []harness.Col{{Name: "dcKind", Value: "record+inverted+geo"}}
	t.Add(app1)
	app2 := harness.Run("app2 accounts", s.Workers, s.TxnsPerW/2, func(w, i int) error {
		return client.RunTxn(ctx, core.TxnOptions{TC: 2}, func(x *tc.Txn) error {
			return x.Upsert("accounts", fmt.Sprintf("a2/u%d-%d", w, i), []byte("acct"))
		})
	})
	app2.Extra = []harness.Col{{Name: "dcKind", Value: "record"}}
	t.Add(app2)
	// Per-DC operation counts as real result rows: each DC's perform total
	// is its transaction column, labeled with the heterogeneous store kind.
	for i, dci := range dep.DCs {
		t.Add(harness.Result{Name: fmt.Sprintf("dc%d ops", i),
			Txns:  dci.Stats().Performs,
			Extra: []harness.Col{{Name: "dcKind", Value: tables[i]}}})
	}
	return t
}
