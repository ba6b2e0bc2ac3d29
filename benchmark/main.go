// Command benchmark is the repository's benchmark: four closed-loop TC/DC
// workloads, seven end-to-end metrics on an untraced pass, and a traced
// pass that breaks the same transactions down per layer. BENCHMARK.json at
// the repository root names the workloads and metrics; README.md here
// explains them.
//
//	bash benchmark/run.sh --workload direct_fit --seed 1 --seconds 20 --trace 0
//
// Without --workload it runs every workload, both passes, each in a fresh
// process (peak RSS is a per-process figure).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// metric is one line of the glossary: the name BENCHMARK.json carries, its
// unit, and which way is better.
type metric struct {
	name, unit string
	higher     bool
}

var endToEnd = []metric{
	{"setup_s", "s", false},
	{"txn_per_s", "1/s", true},
	{"write_p50_ms", "ms", false},
	{"write_p95_ms", "ms", false},
	{"read_p50_ms", "ms", false},
	{"write_amp", "ratio", false},
	{"peak_rss_mb", "MiB", false},
}

var perLayer = []metric{
	{"core.retries", "count", false},
	{"core.fresh_read_p50_ms", "ms", false},
	{"core.write_p99.5_ms", "ms", false},
	{"tc.txn_self_us", "us", false},
	{"tc.begin_us", "us", false},
	{"tc.op_call_us", "us", false},
	{"tc.commit_us", "us", false},
	{"tc.checkpoint_ms", "ms", false},
	{"tc.commits", "count", true},
	{"tc.aborts", "count", false},
	{"tc.ops_sent", "count", false},
	{"tc.probes", "count", false},
	{"tc.redo_ops", "count", false},
	{"tc.redo_dc_ms", "ms", false},
	{"tc.restart_ms", "ms", false},
	{"lockmgr.txn_us", "us", false},
	{"lockmgr.acquires", "count", false},
	{"lockmgr.waits", "count", false},
	{"wal.append_force_us", "us", false},
	{"wal.bytes_per_txn", "B", false},
	{"wal.forces_per_txn", "ratio", false},
	{"wal.noop_forces", "count", false},
	{"wire.rtt_us", "us", false},
	{"wire.rtt_p99_us", "us", false},
	{"wire.codec_op_ns", "ns", false},
	{"wire.calls_per_txn", "ratio", false},
	{"wire.watermark_calls_per_txn", "ratio", false},
	{"wire.bytes_per_txn", "B", false},
	{"wire.resends", "count", false},
	{"wire.overloads", "count", false},
	{"dc.perform_us", "us", false},
	{"dc.perform_p99_us", "us", false},
	{"dc.watermark_us_per_txn", "us", false},
	{"dc.checkpoint_ms", "ms", false},
	{"dc.recover_ms", "ms", false},
	{"dc.performs", "count", false},
	{"dc.dup_skips", "count", false},
	{"dc.snapshot_reads", "count", true},
	{"dc.snapshot_waits", "count", false},
	{"dc.redo_lost_keys", "count", false},
	{"buffer.hit_rate", "ratio", true},
	{"buffer.evictions_per_txn", "ratio", false},
	{"buffer.flushes_per_txn", "ratio", false},
	{"buffer.flush_waits", "count", false},
	{"buffer.ablsn_bytes_frac", "ratio", false},
	{"storage.page_bytes_per_txn", "B", false},
	{"storage.page_reads_per_txn", "ratio", false},
	{"btree.apply_us", "us", false},
	{"btree.splits", "count", false},
	{"btree.consolidates", "count", false},
	{"btree.pages", "count", false},
	{"ablsn.in_max", "count", false},
	{"ablsn.in_total", "count", false},
	{"monolith.txn_per_s", "1/s", true},
	{"monolith.tax", "ratio", false},
	{"runtime.allocs_per_txn", "ratio", false},
	{"runtime.alloc_bytes_per_txn", "B", false},
	{"runtime.gc_cycles", "count", false},
	{"runtime.gc_pause_ms", "ms", false},
	{"harness.trace_overhead_frac", "ratio", false},
	{"harness.budget_gap_frac", "ratio", false},
	{"harness.machine_speed", "ratio", true},
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four, both passes, one process each)")
	seed := flag.Int64("seed", 1, "seed of the generated transaction stream")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the span log to this file as JSON")
	flag.Parse()
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds))
	}
	sp, ok := specByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := config{sp: sp, seed: *seed, seconds: *seconds, scale: 1, traceOut: *traceOut}
	out, table, err := runPass(cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(os.Stdout, cfg, out, table)
	if !out.correct() {
		os.Exit(1)
	}
}

func runPass(cfg config, traced bool) (*outcome, []metric, error) {
	if traced {
		out, err := runTraced(cfg)
		return out, perLayer, err
	}
	out, err := runEndToEnd(cfg)
	return out, endToEnd, err
}

// correct is the pass's verdict on the program's outputs: every key read
// back after the crash held the value the oracle expected.
func (o *outcome) correct() bool { return o.mismatches == 0 }

// report prints every metric by name with its unit, the notes behind them,
// and the result line last.
func report(w *os.File, cfg config, out *outcome, table []metric) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g\n", cfg.sp.name, cfg.seed, cfg.seconds)
	line := resultLine{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(table))}
	for _, m := range table {
		better := "lower"
		if m.higher {
			better = "higher"
		}
		// A metric whose layer is not on the workload's path (wire.* on a
		// direct deployment, monolith.* on a TCP one) is absent; the result
		// line still carries its name, with 0, because the driver expects
		// every name on every run.
		v, ok := out.metrics[m.name]
		text := "absent"
		if ok {
			text = strconv.FormatFloat(v, 'f', -1, 64)
		}
		fmt.Fprintf(w, "  %-30s %16s %-6s (%s is better)\n", m.name, text, m.unit, better)
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  verify_mismatches %d\n", out.attempted, out.failed, out.mismatches)
	sort.Strings(out.notes)
	for _, n := range out.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // floats and strings only
	}
	fmt.Fprintln(w, string(data))
}

// runAll re-executes this binary once per workload and pass.
func runAll(seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, sp := range specs {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", sp.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace %s: %v\n", sp.name, trace, err)
				code = 1
			}
		}
	}
	return code
}
