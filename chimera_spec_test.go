package chimera_test

import (
	"reflect"
	"testing"

	"chimera"
)

// TestFacadeBuildSpec covers the unified ScheduleSpec entry point's
// scheduler axis (TestFacadeSchemes builds every scheme through it).
func TestFacadeBuildSpec(t *testing.T) {
	reshaped, err := chimera.Build(chimera.ScheduleSpec{
		Scheme: "chimera", Scheduler: "heft", D: 4, N: 8,
		SpeedFactors: []float64{1, 1, 2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reshaped.Scheduler != "heft" {
		t.Fatalf("Scheduler = %q, want heft", reshaped.Scheduler)
	}
	if err := reshaped.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := chimera.Build(chimera.ScheduleSpec{Scheme: "chimera", Scheduler: "bogus", D: 4, N: 4}); err == nil {
		t.Fatal("unknown scheduler must error")
	}
}

// TestFacadeSchedulers pins the policy-axis vocabulary next to Schemes.
func TestFacadeSchedulers(t *testing.T) {
	want := []string{"fixed", "heft", "cpop", "lb"}
	if got := chimera.Schedulers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Schedulers() = %v, want %v", got, want)
	}
}
