package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"chimera/internal/experiments"
)

// TestOnlyRunsOnlyTheSelection: -only filters on the index's IDs before
// anything runs — an unselected experiment's harness is never invoked —
// and the selected reports print in index order.
func TestOnlyRunsOnlyTheSelection(t *testing.T) {
	var ran []string
	var all []experiments.Experiment
	for _, id := range []string{"table-2", "table-3", "figure-1", "figure-10"} {
		all = append(all, experiments.Experiment{ID: id, Run: func() (*experiments.Report, error) {
			ran = append(ran, id)
			return &experiments.Report{ID: id, Title: "t", Lines: []string{"row"}}, nil
		}})
	}
	for _, tc := range []struct {
		only string
		want []string
	}{
		{"table-2", []string{"table-2"}},
		{"figure-1", []string{"figure-1", "figure-10"}},
		{"nope", nil},
		{"", []string{"table-2", "table-3", "figure-1", "figure-10"}},
	} {
		ran = nil
		var out, want bytes.Buffer
		if err := run(&out, all, tc.only); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ran, tc.want) {
			t.Errorf("-only %q ran %v, want %v", tc.only, ran, tc.want)
		}
		for _, id := range tc.want {
			fmt.Fprintf(&want, "=== %s: t ===\nrow\n\n", id)
		}
		if out.String() != want.String() {
			t.Errorf("-only %q printed %q, want %q", tc.only, out.String(), want.String())
		}
	}
}
