package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// smoke is every workload at a twentieth of its key counts with a
// quarter-second window (which the window's one full-size slice outlasts):
// small enough for `go test -short`, large enough to cross several
// checkpoints, the redo tail, the crash and the verification.
func smoke(sp spec, seed int64) config {
	const scale = 0.05
	return config{sp: sp.scaled(scale), seed: seed, seconds: 0.25, scale: scale}
}

// TestSmoke runs both passes of every workload on two seeds and checks
// that each verifies after the crash, fails no operation, and emits every
// metric of its table.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				out, table, err := runPass(smoke(sp, seed), traced)
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", sp.name, seed, traced, err)
				}
				if !out.correct() || out.failed != 0 || out.attempted == 0 {
					t.Errorf("%s seed %d traced %v: attempted %d failed %d mismatches %d %v",
						sp.name, seed, traced, out.attempted, out.failed, out.mismatches, out.notes)
				}
				for _, m := range table {
					if _, ok := out.metrics[m.name]; ok == absent(sp, m.name) {
						t.Errorf("%s traced %v: metric %s emitted %v, off the workload's path %v", sp.name, traced, m.name, ok, !ok)
					}
				}
				if !traced {
					// A crash that skipped its redo tail must say so.
					if guarded := slices.Contains(out.notes, emptyTailNote); guarded != sp.mixed {
						t.Errorf("%s: guarded-crash note printed %v", sp.name, guarded)
					}
					for _, m := range table {
						if out.metrics[m.name] <= 0 {
							t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, m.name, out.metrics[m.name])
						}
					}
				}
			}
		}
	}
}

// absent reports the per-layer metrics whose layer is not on the
// workload's path.
func absent(sp spec, name string) bool {
	layer, _, _ := strings.Cut(name, ".")
	return layer == "wire" && !sp.tcp || layer == "monolith" && sp.tcp
}

// TestLayerSeparation checks on the smoke sizes that the layers the
// workloads are meant to isolate really are absent or present.
func TestLayerSeparation(t *testing.T) {
	metrics := map[string]map[string]float64{}
	for _, sp := range specs {
		cfg := smoke(sp, 1)
		if sp.name == "direct_big" {
			// Keep the property the workload exists for: more pages than
			// the default pool holds.
			cfg.sp = sp.scaled(0.2)
		}
		out, err := runTraced(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		metrics[sp.name] = out.metrics
	}
	for name, m := range metrics {
		sp, _ := specByName(name)
		if got := m["wire.calls_per_txn"] > 0; got != sp.tcp {
			t.Errorf("%s: wire.calls_per_txn = %v", name, m["wire.calls_per_txn"])
		}
		if got := m["monolith.txn_per_s"] > 0; got == sp.tcp {
			t.Errorf("%s: monolith.txn_per_s = %v", name, m["monolith.txn_per_s"])
		}
		if got := m["dc.snapshot_reads"] > 0; got != sp.mixed {
			t.Errorf("%s: dc.snapshot_reads = %v", name, m["dc.snapshot_reads"])
		}
	}
	if fit, big := metrics["direct_fit"]["buffer.evictions_per_txn"], metrics["direct_big"]["buffer.evictions_per_txn"]; big < 10*fit || big == 0 {
		t.Errorf("buffer.evictions_per_txn: direct_big %v, direct_fit %v", big, fit)
	}
	w := metrics["tcp_write"]
	if w["wire.rtt_us"]*w["wire.calls_per_txn"] < w["tc.txn_self_us"] {
		t.Errorf("tcp_write: wire %v us x %v calls is below the TC's own %v us",
			w["wire.rtt_us"], w["wire.calls_per_txn"], w["tc.txn_self_us"])
	}
}

// TestDroppedWriteIsCaught seeds the fault the oracle exists for: one
// upsert never reaches the system, and verification must say so.
func TestDroppedWriteIsCaught(t *testing.T) {
	cfg := smoke(specs[0], 1)
	cfg.dropWrite = true
	out, err := runEndToEnd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.mismatches != 1 || out.correct() {
		t.Errorf("dropped write: %d mismatches, correct %v; want exactly 1, false", out.mismatches, out.correct())
	}
}

// TestTraceOut checks that the span log is written and that every span
// names a parent that exists.
func TestTraceOut(t *testing.T) {
	cfg := smoke(specs[2], 1)
	cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
	if _, err := runTraced(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Logs) != cfg.sp.clients+1 {
		t.Fatalf("trace has %d logs, want one per TC plus the DC's", len(doc.Logs))
	}
	for _, l := range doc.Logs {
		if len(l.Spans) == 0 {
			t.Errorf("log %s is empty", l.Log)
		}
		for _, s := range l.Spans {
			if s.Parent >= int32(s.ID) || s.EndNs < s.StartNs {
				t.Fatalf("log %s span %d: parent %d, %d..%d", l.Log, s.ID, s.Parent, s.StartNs, s.EndNs)
			}
		}
	}
}

// TestManifest holds BENCHMARK.json to the tables this program prints.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("manifest has %d workloads, program %d", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why == "" {
			t.Errorf("workload %d: manifest %q (why %q), program %q", i, w.Name, w.Why, specs[i].name)
		}
	}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != better {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, got[i], m)
			}
			if bounded && (got[i].Bound <= 0 || got[i].Bound > 0.25) {
				t.Errorf("%s %s: bound %v", kind, m.name, got[i].Bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
