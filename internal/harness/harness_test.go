package harness

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestQuantileIsExact(t *testing.T) {
	// 1..100 ms, shuffled deterministically: 37 is a unit mod 101, so
	// i*37 mod 101 visits each of 1..100 once.
	var lat []time.Duration
	for i := 1; i <= 100; i++ {
		lat = append(lat, time.Duration(i*37%101)*time.Millisecond)
	}
	r := Result{Latencies: lat}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.50, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {0.999, 100 * time.Millisecond},
		{0, time.Millisecond}, {1, 100 * time.Millisecond}} {
		if got := r.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %v, want %v", c.q, got, c.want)
		}
	}
	// The old histogram rounded every quantile up to a power of two
	// microseconds; an exact one returns a recorded sample.
	odd := Result{Latencies: []time.Duration{3 * time.Microsecond, 700 * time.Microsecond, 5 * time.Microsecond}}
	if got := odd.Quantile(0.5); got != 5*time.Microsecond {
		t.Errorf("median of {3,700,5}µs = %v, want 5µs", got)
	}
	if got := (Result{}).Quantile(0.99); got != 0 {
		t.Errorf("Quantile of no samples = %v, want 0", got)
	}
}

func TestRunCountsAndRecordsEveryTransaction(t *testing.T) {
	boom := errors.New("boom")
	res := Run("mix", 3, 10, func(w, i int) error {
		if i == 4 {
			return boom
		}
		return nil
	})
	if res.Txns != 27 || res.Errors != 3 || len(res.Latencies) != 27 {
		t.Fatalf("txns=%d errors=%d samples=%d, want 27, 3, 27", res.Txns, res.Errors, len(res.Latencies))
	}
}

func TestReportJSONRoundTripsExtra(t *testing.T) {
	rep := NewReport()
	rep.Add(Result{Name: "row", Txns: 2, Elapsed: time.Second,
		Latencies: []time.Duration{2 * time.Millisecond, 4 * time.Millisecond},
		Extra:     []Col{{Name: "protocol", Value: "snapshot scan"}, {Name: "dcsTouched", Value: "1"}}})
	rep.Add(Result{Name: "bare"})
	var rows []struct {
		Name  string            `json:"name"`
		TPS   float64           `json:"tps"`
		P50Us int64             `json:"p50_us"`
		Extra map[string]string `json:"extra"`
	}
	if err := json.Unmarshal(rep.JSON(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "row" || rows[0].TPS != 2 || rows[0].P50Us != 2000 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Extra["protocol"] != "snapshot scan" || rows[0].Extra["dcsTouched"] != "1" || rows[1].Extra != nil {
		t.Fatalf("extra columns did not round-trip: %+v", rows)
	}
	var table strings.Builder
	rep.Fprint(&table)
	if head := strings.Fields(strings.SplitN(table.String(), "\n", 2)[0]); strings.Join(head[len(head)-2:], " ") != "protocol dcsTouched" {
		t.Fatalf("extra columns missing from the table header: %q", head)
	}
}
