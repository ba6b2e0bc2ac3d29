// Package harness is the one driver behind the experiment tables: a
// fixed-count closed loop (Run) that records every transaction's latency,
// and one canonical report shape (Report) that renders every result as an
// aligned table or JSON.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"
)

// Result summarizes one measured configuration.
type Result struct {
	Name    string
	Txns    uint64 // completed transactions
	Errors  uint64 // transactions that surfaced an error
	Elapsed time.Duration
	// Latencies holds one sample per completed transaction; Quantile
	// sorts it in place.
	Latencies []time.Duration
	// Extra holds named experiment-specific columns, rendered after the
	// standard ones in first-seen order.
	Extra []Col
}

// Col is one named extra column value.
type Col struct{ Name, Value string }

// Throughput returns completed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Txns) / r.Elapsed.Seconds()
}

// Quantile returns the exact q-quantile of the recorded latencies by the
// nearest-rank rule (the smallest sample with at least a fraction q of
// the samples at or below it); 0 with no samples.
func (r Result) Quantile(q float64) time.Duration {
	n := len(r.Latencies)
	if n == 0 {
		return 0
	}
	if !slices.IsSorted(r.Latencies) {
		slices.Sort(r.Latencies)
	}
	rank := int(math.Ceil(q * float64(n)))
	return r.Latencies[min(max(rank, 1), n)-1]
}

func (r Result) mean() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.Latencies {
		sum += d
	}
	return sum / time.Duration(len(r.Latencies))
}

// Run drives fn concurrently from `workers` goroutines until each has
// executed perWorker transactions (closed loop: each worker offers its
// next transaction only when the previous one finished); fn receives
// (worker, iteration) and reports success. Latency is recorded per
// transaction.
func Run(name string, workers, perWorker int, fn func(worker, i int) error) Result {
	lat := make([][]time.Duration, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat[w] = make([]time.Duration, 0, perWorker)
			for i := 0; i < perWorker; i++ {
				t0 := time.Now()
				if err := fn(w, i); err != nil {
					continue
				}
				lat[w] = append(lat[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	res := Result{Name: name, Elapsed: time.Since(start), Latencies: slices.Concat(lat...)}
	res.Txns = uint64(len(res.Latencies))
	res.Errors = uint64(workers*perWorker) - res.Txns
	return res
}

// Report is the canonical result collection: every experiment and
// benchmark accumulates Results into one and renders it through Table
// (aligned text) or JSON — there is no other rendering path.
type Report struct {
	results []Result
}

// NewReport returns an empty report.
func NewReport() *Report { return &Report{} }

// Add appends a result.
func (t *Report) Add(r Result) { t.results = append(t.results, r) }

// Results returns the accumulated results in insertion order.
func (t *Report) Results() []Result { return t.results }

// stdCols is the fixed column set every report row carries.
var stdCols = []string{"config", "txns", "errors", "tps", "mean", "p50", "p99", "p999"}

// header returns the full column list: the standard columns, then the
// union of extra column names in first-seen order.
func (t *Report) header() []string {
	h := append([]string(nil), stdCols...)
	seen := make(map[string]bool)
	for _, r := range t.results {
		for _, c := range r.Extra {
			if !seen[c.Name] {
				seen[c.Name] = true
				h = append(h, c.Name)
			}
		}
	}
	return h
}

func (t *Report) row(r Result, header []string) []string {
	vals := map[string]string{
		"config": r.Name,
		"txns":   fmt.Sprintf("%d", r.Txns),
		"errors": fmt.Sprintf("%d", r.Errors),
		"tps":    fmt.Sprintf("%.0f", r.Throughput()),
		"mean":   fmtDur(r.mean()),
		"p50":    fmtDur(r.Quantile(0.50)),
		"p99":    fmtDur(r.Quantile(0.99)),
		"p999":   fmtDur(r.Quantile(0.999)),
	}
	for _, c := range r.Extra {
		vals[c.Name] = c.Value
	}
	row := make([]string, len(header))
	for i, name := range header {
		row[i] = vals[name]
	}
	return row
}

// Fprint writes the aligned table.
func (t *Report) Fprint(w io.Writer) {
	header := t.header()
	rows := make([][]string, len(t.results))
	for i, r := range t.results {
		rows[i] = t.row(r, header)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) string {
		var sb strings.Builder
		for i, c := range cols {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		return strings.TrimRight(sb.String(), " ")
	}
	fmt.Fprintln(w, line(header))
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintln(w, line(sep))
	for _, row := range rows {
		fmt.Fprintln(w, line(row))
	}
}

// jsonResult is the stable machine shape of one result row.
type jsonResult struct {
	Name      string            `json:"name"`
	Txns      uint64            `json:"txns"`
	Errors    uint64            `json:"errors"`
	TPS       float64           `json:"tps"`
	MeanUs    int64             `json:"mean_us"`
	P50Us     int64             `json:"p50_us"`
	P99Us     int64             `json:"p99_us"`
	P999Us    int64             `json:"p999_us"`
	ElapsedMs float64           `json:"elapsed_ms"`
	Extra     map[string]string `json:"extra,omitempty"`
}

// JSON renders the report as an indented JSON array, one object per
// result, latencies in microseconds.
func (t *Report) JSON() []byte {
	out := make([]jsonResult, len(t.results))
	for i, r := range t.results {
		jr := jsonResult{
			Name:      r.Name,
			Txns:      r.Txns,
			Errors:    r.Errors,
			TPS:       r.Throughput(),
			MeanUs:    r.mean().Microseconds(),
			P50Us:     r.Quantile(0.50).Microseconds(),
			P99Us:     r.Quantile(0.99).Microseconds(),
			P999Us:    r.Quantile(0.999).Microseconds(),
			ElapsedMs: float64(r.Elapsed.Microseconds()) / 1000,
		}
		if len(r.Extra) > 0 {
			jr.Extra = make(map[string]string, len(r.Extra))
			for _, c := range r.Extra {
				jr.Extra[c.Name] = c.Value
			}
		}
		out[i] = jr
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil { // unreachable: the shape is marshalable by construction
		panic(err)
	}
	return buf
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
