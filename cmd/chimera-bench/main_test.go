package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chimera/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/figures.golden from current output")

// TestFigureSuiteGolden pins the whole paper-figure suite byte for byte —
// every table, figure, ablation and training demo, at two training
// iterations — so a refactor that moves any printed number fails here;
// -update regenerates the file after an intentional output change.
func TestFigureSuiteGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, experiments.All(2), ""); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "figures.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/chimera-bench -run TestFigureSuiteGolden -update` once): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, exp := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) || i < len(exp); i++ {
			var g, e []byte
			if i < len(got) {
				g = got[i]
			}
			if i < len(exp) {
				e = exp[i]
			}
			if !bytes.Equal(g, e) {
				t.Fatalf("figure suite drifted from %s at line %d:\n got: %s\nwant: %s\nIf the change is intentional, regenerate with -update.", path, i+1, g, e)
			}
		}
	}
}

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
