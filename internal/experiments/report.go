// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). Each experiment returns a
// Report with the same rows/series the paper plots; `cmd/chimera-bench`
// prints them and the root bench_test.go wraps them as testing.B targets.
//
// Absolute numbers come from the calibrated simulator, not the authors'
// Piz Daint testbed; the shapes — who wins, by what factor, where
// crossovers fall — are the reproduction targets, listed per experiment in
// DESIGN.md §4's evaluation index.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Report is the printable result of one experiment.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Metrics exposes headline numbers for benchmarks and tests.
	Metrics map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Metrics: make(map[string]float64)}
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Fprint writes the report in the harness's standard layout.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		fmt.Fprintln(w, l)
	}
	fmt.Fprintln(w)
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	r.Fprint(&b)
	return b.String()
}
