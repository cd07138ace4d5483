package serve

import (
	"strings"
	"testing"

	"chimera/internal/schedule"
)

// TestResolveConcat: every listed name resolves to its mode, "" is direct,
// and anything else is an error naming the accepted set.
func TestResolveConcat(t *testing.T) {
	for _, tc := range []struct {
		name string
		want schedule.ConcatMode
		ok   bool
	}{
		{"", schedule.Direct, true},
		{"direct", schedule.Direct, true},
		{"doubling", schedule.ForwardDoubling, true},
		{"halving", schedule.BackwardHalving, true},
		{"halve", 0, false},
		{"Direct", 0, false},
		{"bogus", 0, false},
	} {
		got, err := ResolveConcat(tc.name)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), strings.Join(ConcatModes(), ", ")) {
				t.Errorf("ResolveConcat(%q): err %v, want one listing %v", tc.name, err, ConcatModes())
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ResolveConcat(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range ConcatModes() {
		if _, err := ResolveConcat(name); err != nil {
			t.Errorf("listed mode %q does not resolve: %v", name, err)
		}
	}
}
