// Command unbundled-bench regenerates the experiment tables: the
// reproduction of the paper's figures and claims (internal/experiments
// holds one function per table, indexed in main below). Run with -quick
// for a fast smoke pass.
//
// The -throughput mode runs the open-loop TCP throughput measurement of
// the DC server runtime instead, at an offered -rate for -duration across
// -clients executors; -json emits the machine-readable report.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/cidr09/unbundled/internal/experiments"
	"github.com/cidr09/unbundled/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced smoke configuration")
	only := flag.String("only", "", "run a single experiment (E1..E9, F1, F2)")
	throughput := flag.Bool("throughput", false, "run the open-loop TCP throughput measurement instead of the experiment tables")
	rate := flag.Int("rate", 0, "throughput: offered transactions per second (0: default)")
	clients := flag.Int("clients", 0, "throughput: open-loop executor goroutines (0: default)")
	duration := flag.Duration("duration", 0, "throughput: offered window (0: default)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of a table")
	flag.Parse()

	if *throughput {
		o := experiments.ThroughputOptions{Rate: *rate, Clients: *clients, Duration: *duration}
		if *quick {
			if o.Rate == 0 {
				o.Rate = 2000
			}
			if o.Duration == 0 {
				o.Duration = time.Second
			}
			o.Warmup = 200 * time.Millisecond
		}
		rep := harness.NewReport()
		rep.Add(experiments.ThroughputRun(o))
		if *jsonOut {
			os.Stdout.Write(rep.JSON())
			fmt.Println()
			return
		}
		rep.Fprint(os.Stdout)
		return
	}

	s := experiments.DefaultScale()
	if *quick {
		s = experiments.QuickScale()
	}

	exps := []struct {
		id, title string
		run       func(experiments.Scale) *harness.Report
	}{
		{"E1", "unbundled vs monolithic kernel (§7 'longer code paths')", experiments.E1},
		{"E2", "abstract-LSN space vs per-record LSNs (§5.1.2)", experiments.E2},
		{"E3", "page-sync strategies 1/2/3 (§5.1.2)", experiments.E3},
		{"E4", "range locking: fetch-ahead vs static ranges (§3.1)", experiments.E4},
		{"E5", "system-transaction recovery: splits & consolidates (§5.2)", experiments.E5},
		{"E6", "partial failures: DC crash redo; TC crash targeted reset (§5.3)", experiments.E6},
		{"E7", "multiple TCs per DC; non-blocking readers, no 2PC (§6)", experiments.E7},
		{"E8", "DC instance scaling behind one TC (§1.1(3))", experiments.E8},
		{"E9", "snapshot vs locked reads under write contention", experiments.E9},
		{"F1", "Figure 1: heterogeneous TC/DC deployment", experiments.F1},
		{"F2", "Figure 2 + §6.3: movie site workloads W1–W4", experiments.F2},
	}

	for _, e := range exps {
		if *only != "" && *only != e.id {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.title)
		start := time.Now()
		rep := e.run(s)
		if *jsonOut {
			os.Stdout.Write(rep.JSON())
			fmt.Println()
		} else {
			rep.Fprint(os.Stdout)
		}
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
}
