package trace

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chimera/internal/schedule"
)

var updateGolden = flag.Bool("update", false, "rewrite the SVG and Chrome-trace golden files from current output")

// goldenSVG compares one rendered schedule against its committed golden
// file; -update regenerates the files after an intentional renderer change.
func goldenSVG(t *testing.T, name string, s *schedule.Schedule, cm schedule.CostModel) string {
	t.Helper()
	got, err := SVG(s, cm)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/trace -update` once): %v", err)
	}
	if got != string(want) {
		t.Fatalf("SVG output drifted from golden %s.\nIf the change is intentional, regenerate with -update.\ngot:\n%s", path, got)
	}
	return got
}

// TestSVGGoldenChimeraD4: the D=4, N=4 bidirectional schedule under both
// unit-cost models, byte-for-byte.
func TestSVGGoldenChimeraD4(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	goldenSVG(t, "chimera_d4n4_equal.svg", s, schedule.UnitEqual)
	goldenSVG(t, "chimera_d4n4_practical.svg", s, schedule.UnitPractical)
}

// TestSVGGoldenGPipeD4: a baseline (single-replica) schedule golden.
func TestSVGGoldenGPipeD4(t *testing.T) {
	s, err := schedule.GPipe(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	goldenSVG(t, "gpipe_d4n4_equal.svg", s, schedule.UnitEqual)
}

// TestSVGGoldenD4N8: the N > D variants and two baselines under the
// practical model — forward doubling and backward halving (the 1F2B unit
// shape of §3.5), GEMS and DAPPLE — so a change to how any generator orders
// a worker's ops shows up as a drifted picture.
func TestSVGGoldenD4N8(t *testing.T) {
	for _, tc := range []struct {
		file  string
		build func() (*schedule.Schedule, error)
	}{
		{"chimera_d4n8_doubling_practical.svg", func() (*schedule.Schedule, error) {
			return schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: schedule.ForwardDoubling})
		}},
		{"chimera_d4n8_halving_practical.svg", func() (*schedule.Schedule, error) {
			return schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: schedule.BackwardHalving})
		}},
		{"gems_d4n8_practical.svg", func() (*schedule.Schedule, error) { return schedule.GEMS(4, 8) }},
		{"dapple_d4n8_practical.svg", func() (*schedule.Schedule, error) { return schedule.DAPPLE(4, 8) }},
	} {
		s, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		goldenSVG(t, tc.file, s, schedule.UnitPractical)
	}
}

// TestSVGStructure: structural invariants that hold for any renderer
// refactor — one background row plus one rect per op, backwards darker,
// every worker labelled, header carries the makespan.
func TestSVGStructure(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	out, err := SVG(s, schedule.UnitPractical)
	if err != nil {
		t.Fatal(err)
	}
	ops := 0
	for w := 0; w < s.D; w++ {
		ops += len(s.Workers[w])
	}
	if got, want := strings.Count(out, "<rect "), ops+s.D; got != want {
		t.Fatalf("%d rects for %d ops + %d row backgrounds", got, ops, s.D)
	}
	for w := 0; w < s.D; w++ {
		if !strings.Contains(out, fmt.Sprintf(">P%d</text>", w)) {
			t.Fatalf("missing worker label P%d", w)
		}
	}
	ro, err := s.Readout(schedule.UnitPractical.ReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Release()
	if !strings.Contains(out, fmt.Sprintf("makespan %d", ro.Makespan())) {
		t.Fatal("header does not state the makespan")
	}
	// Backward ops use the darker palette entry of replica 0 (down).
	if !strings.Contains(out, `fill="#2171b5"`) || !strings.Contains(out, `fill="#6baed6"`) {
		t.Fatal("missing forward/backward palette colors for the down pipeline")
	}
	// Up-pipeline replica colors must appear too (bidirectional schedule).
	if !strings.Contains(out, `fill="#fc9272"`) || !strings.Contains(out, `fill="#cb181d"`) {
		t.Fatal("missing forward/backward palette colors for the up pipeline")
	}
	if !strings.HasPrefix(out, "<svg xmlns=") || !strings.HasSuffix(out, "</svg>\n") {
		t.Fatal("not a well-formed standalone SVG document")
	}
}
