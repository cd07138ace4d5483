package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"chimera/internal/schedule"
)

// TestChromeTraceGolden pins ChromeTrace byte-for-byte: Chimera D=4 N=8
// under each concatenation (direct, forward doubling, backward halving) in
// the practical model, and the GPipe D=4 N=4 baseline in the equal model.
// Regenerate with -update after an intentional renderer change.
func TestChromeTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		file  string
		cm    schedule.CostModel
		build func() (*schedule.Schedule, error)
	}{
		{"chrome_chimera_d4n8_direct_practical.json", schedule.UnitPractical, func() (*schedule.Schedule, error) {
			return schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: schedule.Direct})
		}},
		{"chrome_chimera_d4n8_doubling_practical.json", schedule.UnitPractical, func() (*schedule.Schedule, error) {
			return schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: schedule.ForwardDoubling})
		}},
		{"chrome_chimera_d4n8_halving_practical.json", schedule.UnitPractical, func() (*schedule.Schedule, error) {
			return schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: schedule.BackwardHalving})
		}},
		{"chrome_gpipe_d4n4_equal.json", schedule.UnitEqual, func() (*schedule.Schedule, error) {
			return schedule.GPipe(4, 4)
		}},
	} {
		s, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ChromeTrace(s, tc.cm)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.file)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run `go test ./internal/trace -update` once): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Chrome trace drifted from golden %s.\nIf the change is intentional, regenerate with -update.", path)
		}
	}
}
