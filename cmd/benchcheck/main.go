// Command benchcheck is the comparer behind the CI bench-gate job. The
// job runs the repository benchmark (bash benchmark/run.sh --workload W
// --seed 1 --seconds 20 --trace 0) on the parent commit and on the change
// in alternating pairs and writes one line per run,
//
//	<parent|head> <workload> <the run's result line>
//
// and benchcheck decides. Workload names, metric names, directions and
// bounds come from BENCHMARK.json and nowhere else. It fails (exit 1) when
// a run was incorrect, when the change fails a larger share of operations
// than the parent, or when the change's median of an end-to-end metric is
// worse than the parent's by more than that metric's bound. A metric whose
// parent runs spread (inter-quartile, relative to the median) wider than
// its bound cannot show "unchanged"; it is reported UNRESOLVED instead of
// ok. -out writes the comparison as JSON: BENCH_<pr>.json, one point of
// the repository's performance trajectory.
//
// Lines whose side is parent-traced or head-traced carry the result of a
// traced pass (--trace 1). From those the report shows, side by side and
// without any verdict, the count-like per-layer metrics listed in
// layerCounts: what crossed the wire and reached the logs per transaction.
//
// -claim <workload>/<metric> adds the test a change that claims a gain has
// to pass (choosing-metrics §8): the k-th parent and k-th head run of that
// workload are a pair, the change must win at least nine tenths of at least
// ten pairs (a tie is a win for neither), and the two medians must differ,
// in the metric's better direction, by more than the distance between the
// quartiles of the parent's own runs. It prints CLAIM MET or CLAIM NOT MET,
// writes the tally into the JSON, and exits 1 when the claim is not met.
//
//	benchcheck -spec BENCHMARK.json -in bench-lines.txt -out BENCH_16.json
//	benchcheck -in bench-lines.txt -claim tcp_write/txn_per_s -out BENCH_20.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json the gate reads (encoding/json matches
// the lower-case keys to these fields without tags).
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// layerCounts names the per-layer metrics of a traced pass that are counts
// of work done, not timings: they follow from the code, not from the
// machine's speed, so a change that moves one changed what a transaction
// does. Report only — BENCHMARK.json gives per-layer metrics no bound.
// Names and units are taken from its per_layer list; one it does not
// declare is not reported.
var layerCounts = []string{
	"wire.calls_per_txn", "wire.watermark_calls_per_txn", "tc.ops_sent", "tc.redo_ops",
	"dc.performs", "dc.dup_skips", "wal.bytes_per_txn", "runtime.allocs_per_txn",
}

// run is one result line of the benchmark.
type run struct {
	Correct           bool
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 }
}

// runs holds the result lines by side ("parent", "head", and
// "parent-traced", "head-traced" for traced passes) and workload.
type runs map[string]map[string][]run

type quartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type metricReport struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Bound   float64   `json:"bound"`
	Parent  quartiles `json:"parent"`
	Head    quartiles `json:"head"`
	WorseBy float64   `json:"worse_by"` // fraction of the parent median; negative is better
	Verdict string    `json:"verdict"`  // ok, regressed or unresolved
}

// layerCount is one count-like per-layer metric, the median over each
// side's traced passes. It has no verdict.
type layerCount struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Parent float64 `json:"parent"`
	Head   float64 `json:"head"`
}

type workloadReport struct {
	Name              string         `json:"name"`
	ParentRuns        int            `json:"parent_runs"`
	HeadRuns          int            `json:"head_runs"`
	ParentFailedShare float64        `json:"parent_failed_share"`
	HeadFailedShare   float64        `json:"head_failed_share"`
	Metrics           []metricReport `json:"metrics"`
	LayerCounts       []layerCount   `json:"layer_counts,omitempty"`
}

type report struct {
	Workloads  []workloadReport `json:"workloads"`
	Claim      *claimReport     `json:"claim,omitempty"`
	Failures   []string         `json:"failures,omitempty"`
	Unresolved []string         `json:"unresolved,omitempty"`
}

// claimPairs is the fewest pairs a claim may rest on.
const claimPairs = 10

// claimReport is the verdict on one claimed gain, with the tally behind it.
type claimReport struct {
	Workload  string    `json:"workload"`
	Metric    string    `json:"metric"`
	Pairs     int       `json:"pairs"`
	HeadWins  int       `json:"head_wins"`
	Ties      int       `json:"ties"`
	Parent    quartiles `json:"parent"`
	Head      quartiles `json:"head"`
	ParentIQR float64   `json:"parent_iqr"`
	Met       bool      `json:"met"`
	Why       string    `json:"why"`
}

// parseRuns reads the "<side> <workload> <json>" lines.
func parseRuns(r io.Reader) (runs, error) {
	out := runs{"parent": {}, "head": {}, "parent-traced": {}, "head-traced": {}}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		f := strings.SplitN(sc.Text(), " ", 3)
		if len(f) != 3 || out[f[0]] == nil {
			return nil, fmt.Errorf("line %d: want \"<parent|head>[-traced] <workload> <result json>\"", n)
		}
		var one run
		if err := json.Unmarshal([]byte(f[2]), &one); err != nil {
			return nil, fmt.Errorf("line %d: %s %s produced no result line: %w", n, f[0], f[1], err)
		}
		out[f[0]][f[1]] = append(out[f[0]][f[1]], one)
	}
	return out, sc.Err()
}

// summarize returns the median and quartiles (linear interpolation) of one
// metric over a side's runs, and whether every run carried the metric.
func summarize(rs []run, metric string) (quartiles, bool) {
	vals := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	if len(vals) == 0 || len(vals) != len(rs) {
		return quartiles{}, false
	}
	slices.Sort(vals)
	at := func(p float64) float64 {
		x := p * float64(len(vals)-1)
		i := int(x)
		if i+1 == len(vals) {
			return vals[i]
		}
		return vals[i] + (x-float64(i))*(vals[i+1]-vals[i])
	}
	return quartiles{Median: at(0.5), Q1: at(0.25), Q3: at(0.75)}, true
}

// failedShare is failed over attempted operations across a side's runs.
func failedShare(rs []run) float64 {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compare applies the spec's bounds to the runs.
func compare(sp spec, rs runs) report {
	var rep report
	fail := func(format string, a ...any) { rep.Failures = append(rep.Failures, fmt.Sprintf(format, a...)) }
	for _, w := range sp.Workloads {
		parent, head := rs["parent"][w.Name], rs["head"][w.Name]
		wr := workloadReport{Name: w.Name, ParentRuns: len(parent), HeadRuns: len(head),
			ParentFailedShare: failedShare(parent), HeadFailedShare: failedShare(head)}
		if len(parent) == 0 || len(head) == 0 {
			fail("%s: %d parent and %d head runs; need at least one of each", w.Name, len(parent), len(head))
			rep.Workloads = append(rep.Workloads, wr)
			continue
		}
		for _, side := range []string{"parent", "head"} {
			for _, r := range rs[side][w.Name] {
				if !r.Correct {
					fail("%s: a %s run reported correct:false", w.Name, side)
				}
			}
		}
		if wr.HeadFailedShare > wr.ParentFailedShare {
			fail("%s: failed share of operations rose from %.4g to %.4g", w.Name, wr.ParentFailedShare, wr.HeadFailedShare)
		}
		for _, m := range sp.EndToEnd {
			p, pok := summarize(parent, m.Name)
			h, hok := summarize(head, m.Name)
			if !pok || !hok {
				fail("%s %s: metric missing from a result line", w.Name, m.Name)
				continue
			}
			mr := metricReport{Name: m.Name, Unit: m.Unit, Bound: m.Bound, Parent: p, Head: h, Verdict: "ok"}
			worse := h.Median - p.Median
			if m.Better == "higher" {
				worse = -worse
			}
			if p.Median != 0 {
				mr.WorseBy = worse / p.Median
			}
			switch {
			case worse > m.Bound*p.Median:
				mr.Verdict = "regressed"
				fail("%s %s: median %.6g -> %.6g %s is %.1f%% worse than parent, bound %.0f%%",
					w.Name, m.Name, p.Median, h.Median, m.Unit, 100*mr.WorseBy, 100*m.Bound)
			case p.Q3-p.Q1 > m.Bound*p.Median:
				mr.Verdict = "unresolved"
				rep.Unresolved = append(rep.Unresolved, w.Name+" "+m.Name)
			}
			wr.Metrics = append(wr.Metrics, mr)
		}
		for _, m := range sp.PerLayer {
			if !slices.Contains(layerCounts, m.Name) {
				continue
			}
			p, pok := summarize(rs["parent-traced"][w.Name], m.Name)
			h, hok := summarize(rs["head-traced"][w.Name], m.Name)
			if pok && hok {
				wr.LayerCounts = append(wr.LayerCounts, layerCount{m.Name, m.Unit, p.Median, h.Median})
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep
}

// checkClaim applies the pairs-won and beyond-the-spread rule to one
// "<workload>/<metric>" claim. The error is for a claim that names nothing
// the spec declares.
func checkClaim(sp spec, rs runs, claim string) (*claimReport, error) {
	workload, metric, _ := strings.Cut(claim, "/")
	declared, better := false, ""
	for _, w := range sp.Workloads {
		declared = declared || w.Name == workload
	}
	for _, m := range sp.EndToEnd {
		if m.Name == metric {
			better = m.Better
		}
	}
	if !declared || better == "" {
		return nil, fmt.Errorf("-claim %q: want <workload>/<metric>, a workload and an end-to-end metric that BENCHMARK.json declares", claim)
	}
	higher := better == "higher"
	parent, head := rs["parent"][workload], rs["head"][workload]
	c := &claimReport{Workload: workload, Metric: metric, Pairs: min(len(parent), len(head))}
	for k := 0; k < c.Pairs; k++ {
		p, pok := parent[k].Metrics[metric]
		h, hok := head[k].Metrics[metric]
		switch {
		case !pok || !hok:
			c.Why = fmt.Sprintf("pair %d lacks the metric", k+1)
			return c, nil
		case h.Value == p.Value:
			c.Ties++
		case (h.Value > p.Value) == higher:
			c.HeadWins++
		}
	}
	c.Parent, _ = summarize(parent, metric)
	c.Head, _ = summarize(head, metric)
	c.ParentIQR = c.Parent.Q3 - c.Parent.Q1
	gain := c.Head.Median - c.Parent.Median
	if !higher {
		gain = -gain
	}
	switch {
	case len(parent) != len(head):
		c.Why = fmt.Sprintf("%d parent and %d head runs do not pair up", len(parent), len(head))
	case c.Pairs < claimPairs:
		c.Why = fmt.Sprintf("%d pairs; a claim needs at least %d", c.Pairs, claimPairs)
	case 10*c.HeadWins < 9*c.Pairs:
		c.Why = fmt.Sprintf("head won %d of %d pairs (%d ties); a claim needs nine tenths", c.HeadWins, c.Pairs, c.Ties)
	case gain <= c.ParentIQR:
		c.Why = fmt.Sprintf("medians %.6g -> %.6g differ by %.4g, inside the parent's own quartile spread %.4g",
			c.Parent.Median, c.Head.Median, gain, c.ParentIQR)
	default:
		c.Met = true
		c.Why = fmt.Sprintf("head won %d of %d pairs; medians %.6g -> %.6g differ by %.4g, the parent's quartile spread is %.4g",
			c.HeadWins, c.Pairs, c.Parent.Median, c.Head.Median, gain, c.ParentIQR)
	}
	return c, nil
}

func (rep report) print(w io.Writer) {
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%s: %d parent / %d head runs, failed share %.4g -> %.4g\n",
			wr.Name, wr.ParentRuns, wr.HeadRuns, wr.ParentFailedShare, wr.HeadFailedShare)
		for _, m := range wr.Metrics {
			fmt.Fprintf(w, "  %-10s %-13s parent %10.5g [%.5g..%.5g]  head %10.5g [%.5g..%.5g] %-5s change %+.1f%% (positive is worse; bound %.0f%%)\n",
				strings.ToUpper(m.Verdict), m.Name, m.Parent.Median, m.Parent.Q1, m.Parent.Q3,
				m.Head.Median, m.Head.Q1, m.Head.Q3, m.Unit, 100*m.WorseBy, 100*m.Bound)
		}
		for _, c := range wr.LayerCounts {
			fmt.Fprintf(w, "  %-10s %-28s parent %12.6g  head %12.6g %s (traced pass, no verdict)\n",
				"REPORT", c.Name, c.Parent, c.Head, c.Unit)
		}
	}
	for _, u := range rep.Unresolved {
		fmt.Fprintf(w, "UNRESOLVED %s: the parent's own runs spread wider than the bound; this is not \"unchanged\"\n", u)
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	if c := rep.Claim; c != nil {
		verdict := "CLAIM NOT MET"
		if c.Met {
			verdict = "CLAIM MET"
		}
		fmt.Fprintf(w, "%s %s %s: %s\n", verdict, c.Workload, c.Metric, c.Why)
	}
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark declaration: workloads, end-to-end metrics, bounds")
	in := flag.String("in", "-", "file of \"<parent|head> <workload> <result json>\" lines (- for stdin)")
	out := flag.String("out", "", "write the comparison as JSON to this file (BENCH_<pr>.json)")
	claim := flag.String("claim", "", "<workload>/<metric> the change claims to improve: must win 9/10 of at least ten pairs and beat the parent's quartile spread")
	flag.Parse()

	var sp spec
	raw, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	if err != nil {
		fatal(fmt.Errorf("read %s: %w", *specPath, err))
	}
	src := os.Stdin
	if *in != "-" {
		if src, err = os.Open(*in); err != nil {
			fatal(err)
		}
		defer src.Close()
	}
	rs, err := parseRuns(src)
	if err != nil {
		fatal(err)
	}
	rep := compare(sp, rs)
	if *claim != "" {
		if rep.Claim, err = checkClaim(sp, rs, *claim); err != nil {
			fatal(err)
		}
	}
	rep.print(os.Stdout)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	if len(rep.Failures) > 0 {
		fmt.Printf("benchcheck: %d failure(s) against the BENCHMARK.json bounds\n", len(rep.Failures))
		os.Exit(1)
	}
	if rep.Claim != nil && !rep.Claim.Met {
		fmt.Println("benchcheck: the claimed gain is not met")
		os.Exit(1)
	}
	fmt.Printf("benchcheck: no end-to-end metric worse than parent beyond its bound (%d unresolved)\n", len(rep.Unresolved))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(2)
}
