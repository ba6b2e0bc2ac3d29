// Command unbundled-bench regenerates the experiment tables: the
// reproduction of the paper's figures and claims (internal/experiments
// holds one function per table, indexed in main below). Run with -quick
// for a fast smoke pass; -json emits the machine-readable report.
//
// The tables illustrate the paper; they are not the instrument a
// performance claim may cite. That is the repository benchmark:
// bash benchmark/run.sh (see BENCHMARK.json and benchmark/README.md).
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
	only := flag.String("only", "", "run a single experiment (E1, E6..E9, F1, F2)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of a table")
	flag.Parse()

	s := experiments.DefaultScale()
	if *quick {
		s = experiments.QuickScale()
	}

	exps := []struct {
		id, title string
		run       func(experiments.Scale) *harness.Report
	}{
		{"E1", "unbundled vs monolithic kernel (§7 'longer code paths'); a write transaction over 200µs", experiments.E1},
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
