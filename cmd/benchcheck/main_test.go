package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// testSpec is BENCHMARK.json cut down to two workloads, two end-to-end
// metrics, one of each direction, and two per-layer metrics, a timing and
// a count.
const testSpec = `{
  "workloads": [{"name": "w_a"}, {"name": "w_b"}],
  "end_to_end": [
    {"name": "txn_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "write_amp", "unit": "ratio", "better": "lower", "bound": 0.15}
  ],
  "per_layer": [
    {"name": "tc.txn_self_us", "unit": "us", "better": "lower"},
    {"name": "wire.calls_per_txn", "unit": "ratio", "better": "lower"}
  ]
}`

// line renders one input line the way the CI job writes it.
func line(side, workload string, correct bool, attempted, failed int, tps, amp float64) string {
	return fmt.Sprintf(`%s %s {"correct":%v,"attempted":%d,"failed":%d,"metrics":{"txn_per_s":{"value":%g,"unit":"1/s"},"write_amp":{"value":%g,"unit":"ratio"}}}`,
		side, workload, correct, attempted, failed, tps, amp)
}

// flat is three healthy pairs on both workloads, head within 2% of parent.
func flat() []string {
	var in []string
	for _, w := range []string{"w_a", "w_b"} {
		for i := 0; i < 3; i++ {
			in = append(in, line("parent", w, true, 1000, 0, 1000+float64(10*i), 3.0))
			in = append(in, line("head", w, true, 1000, 0, 990+float64(10*i), 3.05))
		}
	}
	return in
}

func check(t *testing.T, in []string) report {
	t.Helper()
	var sp spec
	if err := json.Unmarshal([]byte(testSpec), &sp); err != nil {
		t.Fatal(err)
	}
	rs, err := parseRuns(strings.NewReader(strings.Join(in, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return compare(sp, rs)
}

func verdict(rep report, workload, metric string) string {
	for _, w := range rep.Workloads {
		for _, m := range w.Metrics {
			if w.Name == workload && m.Name == metric {
				return m.Verdict
			}
		}
	}
	return "absent"
}

func TestWithinBoundPasses(t *testing.T) {
	rep := check(t, flat())
	if len(rep.Failures) != 0 || len(rep.Unresolved) != 0 {
		t.Fatalf("flat runs: failures %q unresolved %q", rep.Failures, rep.Unresolved)
	}
	if v := verdict(rep, "w_b", "write_amp"); v != "ok" {
		t.Fatalf("w_b write_amp verdict %q, want ok", v)
	}
	if got := rep.Workloads[0].Metrics[0].Parent.Median; got != 1010 {
		t.Fatalf("parent txn_per_s median %g, want 1010", got)
	}
}

func TestBeyondBoundFailsNamingMetricAndWorkload(t *testing.T) {
	in := flat()
	for i := 0; i < 4; i++ { // head's median w_b throughput halves; w_a untouched
		in = append(in, line("head", "w_b", true, 1000, 0, 500, 3.0))
	}
	rep := check(t, in)
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "w_b") || !strings.Contains(rep.Failures[0], "txn_per_s") {
		t.Fatalf("want exactly one failure naming w_b and txn_per_s, got %q", rep.Failures)
	}
	if v := verdict(rep, "w_b", "txn_per_s"); v != "regressed" {
		t.Fatalf("w_b txn_per_s verdict %q, want regressed", v)
	}
	if v := verdict(rep, "w_a", "txn_per_s"); v != "ok" {
		t.Fatalf("w_a txn_per_s verdict %q, want ok", v)
	}
}

func TestLowerIsBetterRegression(t *testing.T) {
	in := flat()
	for i := 0; i < 4; i++ { // write_amp 3.0 -> 3.6 is 20% worse against a 15% bound
		in = append(in, line("head", "w_a", true, 1000, 0, 1000, 3.6))
	}
	rep := check(t, in)
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "w_a write_amp") {
		t.Fatalf("want one failure on w_a write_amp, got %q", rep.Failures)
	}
}

func TestIncorrectRunFails(t *testing.T) {
	rep := check(t, append(flat(), line("head", "w_a", false, 1000, 0, 1000, 3.0)))
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "correct:false") {
		t.Fatalf("want one correct:false failure, got %q", rep.Failures)
	}
}

func TestHigherFailedShareFails(t *testing.T) {
	rep := check(t, append(flat(), line("head", "w_b", true, 1000, 7, 1000, 3.0)))
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "failed share") {
		t.Fatalf("want one failed-share failure, got %q", rep.Failures)
	}
	// The same failures on the parent side are not a regression.
	rep = check(t, append(flat(), line("parent", "w_b", true, 1000, 7, 1000, 3.0)))
	if len(rep.Failures) != 0 {
		t.Fatalf("parent-side failures must not fail the gate: %q", rep.Failures)
	}
}

func TestNoisyParentIsUnresolvedNotOK(t *testing.T) {
	var in []string
	for _, w := range []string{"w_a", "w_b"} {
		for _, tps := range []float64{600, 1000, 1400} { // IQR 400 of median 1000: wider than the 25% bound
			in = append(in, line("parent", w, true, 1000, 0, tps, 3.0))
			in = append(in, line("head", w, true, 1000, 0, 1000, 3.0))
		}
	}
	rep := check(t, in)
	if len(rep.Failures) != 0 {
		t.Fatalf("unexpected failures %q", rep.Failures)
	}
	if v := verdict(rep, "w_a", "txn_per_s"); v != "unresolved" {
		t.Fatalf("w_a txn_per_s verdict %q, want unresolved", v)
	}
	if len(rep.Unresolved) != 2 {
		t.Fatalf("want both workloads' txn_per_s listed unresolved, got %q", rep.Unresolved)
	}
	var out strings.Builder
	rep.print(&out)
	if !strings.Contains(out.String(), "UNRESOLVED w_a txn_per_s") {
		t.Fatalf("printed report does not call the metric out:\n%s", out.String())
	}
}

func TestMissingSideOrMalformedLine(t *testing.T) {
	rep := check(t, []string{line("parent", "w_a", true, 10, 0, 1, 1), line("head", "w_a", true, 10, 0, 1, 1)})
	if len(rep.Failures) != 1 || !strings.Contains(rep.Failures[0], "w_b") {
		t.Fatalf("a workload nobody ran must fail the gate, got %q", rep.Failures)
	}
	// A build that died prints no result line; the job still writes the prefix.
	if _, err := parseRuns(strings.NewReader("head w_a ")); err == nil {
		t.Fatal("an empty result line parsed")
	}
	if _, err := parseRuns(strings.NewReader("change w_a {}")); err == nil {
		t.Fatal("an unknown side parsed")
	}
}

func TestTracedPassIsReportedWithoutVerdict(t *testing.T) {
	if rep := check(t, flat()); rep.Workloads[0].LayerCounts != nil {
		t.Fatalf("no traced pass ran, yet layer counts are reported: %+v", rep.Workloads[0].LayerCounts)
	}
	// A traced pass reports per-layer metrics only. Head makes three times
	// the calls and takes ten times as long: both are the report's to show
	// and nobody's to judge, and only the count is shown.
	traced := func(side string, calls, selfUS float64) string {
		return fmt.Sprintf(`%s-traced w_a {"correct":true,"attempted":10,"failed":0,"metrics":{"wire.calls_per_txn":{"value":%g,"unit":"ratio"},"tc.txn_self_us":{"value":%g,"unit":"us"}}}`,
			side, calls, selfUS)
	}
	rep := check(t, append(flat(), traced("parent", 8, 15), traced("head", 24, 150)))
	if len(rep.Failures) != 0 || len(rep.Unresolved) != 0 {
		t.Fatalf("a traced pass reached a verdict: failures %q unresolved %q", rep.Failures, rep.Unresolved)
	}
	want := []layerCount{{Name: "wire.calls_per_txn", Unit: "ratio", Parent: 8, Head: 24}}
	if got := rep.Workloads[0].LayerCounts; len(got) != 1 || got[0] != want[0] {
		t.Fatalf("w_a layer counts %+v, want %+v", got, want)
	}
	if rep.Workloads[0].ParentRuns != 3 || rep.Workloads[1].LayerCounts != nil {
		t.Fatalf("traced lines leaked into the gated runs or another workload: %+v", rep.Workloads)
	}
	var out strings.Builder
	rep.print(&out)
	if !strings.Contains(out.String(), "REPORT") || !strings.Contains(out.String(), "wire.calls_per_txn") {
		t.Fatalf("printed report lacks the traced section:\n%s", out.String())
	}
}

// claimLines is ten pairs on w_a (w_b rides along flat): parent throughput
// 1000..1090, head the given values in run order.
func claimLines(head [10]float64) []string {
	in := flat()[6:] // w_b only
	for k, h := range head {
		in = append(in, line("parent", "w_a", true, 1000, 0, 1000+float64(10*k), 3.0))
		in = append(in, line("head", "w_a", true, 1000, 0, h, 3.0))
	}
	return in
}

func claim(t *testing.T, in []string, what string) *claimReport {
	t.Helper()
	var sp spec
	if err := json.Unmarshal([]byte(testSpec), &sp); err != nil {
		t.Fatal(err)
	}
	rs, err := parseRuns(strings.NewReader(strings.Join(in, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	c, err := checkClaim(sp, rs, what)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClaim(t *testing.T) {
	// Head wins nine pairs, loses one, and its median is far beyond the
	// parent's quartile spread (45): met.
	met := [10]float64{1300, 1310, 1320, 900, 1340, 1350, 1360, 1370, 1380, 1390}
	if c := claim(t, claimLines(met), "w_a/txn_per_s"); !c.Met || c.HeadWins != 9 || c.Pairs != 10 {
		t.Fatalf("nine wins of ten, well beyond the spread: %+v", c)
	}
	// One more loss — or a tie, which is a win for neither — is too few.
	tooFew := met
	tooFew[0] = 1000
	if c := claim(t, claimLines(tooFew), "w_a/txn_per_s"); c.Met || c.Ties != 1 || !strings.Contains(c.Why, "nine tenths") {
		t.Fatalf("eight wins, a tie and a loss: %+v", c)
	}
	// Ten wins of ten, each by 20: the medians differ by less than the
	// distance between the parent's quartiles.
	var inside [10]float64
	for k := range inside {
		inside[k] = 1020 + float64(10*k)
	}
	if c := claim(t, claimLines(inside), "w_a/txn_per_s"); c.Met || c.HeadWins != 10 || !strings.Contains(c.Why, "inside") {
		t.Fatalf("ten wins inside the parent's spread: %+v", c)
	}
	// A lower-is-better metric is won by the smaller value; three pairs are
	// not enough to claim anything.
	if c := claim(t, flat(), "w_b/write_amp"); c.Met || c.HeadWins != 0 || !strings.Contains(c.Why, "at least 10") {
		t.Fatalf("three pairs, head worse: %+v", c)
	}
	var out strings.Builder
	report{Claim: claim(t, claimLines(met), "w_a/txn_per_s")}.print(&out)
	if !strings.Contains(out.String(), "CLAIM MET w_a txn_per_s") {
		t.Fatalf("printed report lacks the verdict:\n%s", out.String())
	}
	var sp spec
	if err := json.Unmarshal([]byte(testSpec), &sp); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"w_a", "w_z/txn_per_s", "w_a/tc.txn_self_us"} {
		if _, err := checkClaim(sp, runs{}, bad); err == nil {
			t.Fatalf("claim %q names nothing the spec gates, yet was accepted", bad)
		}
	}
}
