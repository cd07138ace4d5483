package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// WritePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4). Output is deterministic: families
// sort by name, series by label signature, histogram buckets ascending.
// Histograms render in seconds with cumulative buckets; empty buckets are
// elided (the cumulative counts stay correct) except the mandatory +Inf.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := &errWriter{w: w}
	var lastFamily string
	for _, s := range r.snapshotSeries() {
		if s.name != lastFamily {
			if s.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", s.name, s.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, promType(s.kind))
			lastFamily = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s%s %d\n", s.name, s.sig, s.counter.Value())
		case kindCounterFunc:
			fmt.Fprintf(bw, "%s%s %d\n", s.name, s.sig, s.counterF())
		case kindGauge:
			fmt.Fprintf(bw, "%s%s %d\n", s.name, s.sig, s.gauge.Value())
		case kindGaugeFunc:
			fmt.Fprintf(bw, "%s%s %s\n", s.name, s.sig, formatFloat(s.gaugeF()))
		case kindHistogram:
			writePromHistogram(bw, s)
		}
	}
	return bw.err
}

func promType(k metricKind) string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// writePromHistogram renders one histogram series: cumulative _bucket
// lines for every non-empty bucket plus +Inf, then _sum and _count.
func writePromHistogram(w io.Writer, s *series) {
	snap := s.hist.Snapshot()
	var cum uint64
	for i, c := range snap.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLE(s, bucketUpperNS(i)/1e9), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, withLE(s, math.Inf(1)), snap.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", s.name, s.sig, formatFloat(float64(snap.SumNS)/1e9))
	fmt.Fprintf(w, "%s_count%s %d\n", s.name, s.sig, snap.Count)
}

// withLE appends the le label to a series' label signature.
func withLE(s *series, upperSeconds float64) string {
	le := "+Inf"
	if !math.IsInf(upperSeconds, 1) {
		le = formatFloat(upperSeconds)
	}
	if s.sig == "" {
		return `{le="` + le + `"}`
	}
	return s.sig[:len(s.sig)-1] + `,le="` + le + `"}`
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errWriter latches the first write error so render loops stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}

// Snapshot is a point-in-time view of a registry for embedding in JSON
// responses (/v1/stats): counters and gauges as flat series-name → value
// maps, histograms as per-series quantile summaries. Durations report in
// seconds to match the Prometheus endpoint.
type Snapshot struct {
	Counters   map[string]uint64           `json:"counters,omitempty"`
	Gauges     map[string]float64          `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// HistogramSummary is one histogram's quantile digest.
type HistogramSummary struct {
	Count       uint64  `json:"count"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P95Seconds  float64 `json:"p95_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
}

// Snapshot digests the registry. Keys are the full series name including
// the label signature (e.g. `serve_request_duration_seconds{endpoint="plan"}`).
func (r *Registry) Snapshot() Snapshot {
	var out Snapshot
	if r == nil {
		return out
	}
	out.Counters = make(map[string]uint64)
	out.Gauges = make(map[string]float64)
	out.Histograms = make(map[string]HistogramSummary)
	for _, s := range r.snapshotSeries() {
		key := s.name + s.sig
		switch s.kind {
		case kindCounter:
			out.Counters[key] = s.counter.Value()
		case kindCounterFunc:
			out.Counters[key] = s.counterF()
		case kindGauge:
			out.Gauges[key] = float64(s.gauge.Value())
		case kindGaugeFunc:
			out.Gauges[key] = s.gaugeF()
		case kindHistogram:
			snap := s.hist.Snapshot()
			out.Histograms[key] = HistogramSummary{
				Count:       snap.Count,
				MeanSeconds: float64(snap.Mean()) / 1e9,
				P50Seconds:  float64(snap.Quantile(0.50)) / 1e9,
				P95Seconds:  float64(snap.Quantile(0.95)) / 1e9,
				P99Seconds:  float64(snap.Quantile(0.99)) / 1e9,
			}
		}
	}
	return out
}
