package sim

import (
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// TestValidateChecksDepth: Validate is the one rule for what the simulator
// accepts, so a model that does not split into the schedule's D stages is
// refused there, with model's own error, and every entry point refuses it
// with that same text.
func TestValidateChecksDepth(t *testing.T) {
	s, err := schedule.ByName("gpipe", 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: model.BERT48(), Schedule: s, MicroBatch: 8, W: 1}
	const want = "model: 48 layers do not split evenly into 5 stages"
	check := func(name string, err error) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Errorf("%s: got %v, want %q", name, err, want)
		}
	}
	c := cfg
	check("Validate", c.Validate())
	_, err = Run(cfg)
	check("Run", err)
	_, _, err = FitsMemory(cfg)
	check("FitsMemory", err)
	_, _, err = AutoRun(cfg)
	check("AutoRun", err)
	// The depth is the last check: an earlier rule still reports first.
	c = cfg
	c.MicroBatch = 0
	if err := c.Validate(); err == nil || err.Error() == want {
		t.Errorf("MicroBatch 0 at D=5: got %v, want the micro-batch error", err)
	}
}

// TestFitsMemoryRejectsInvalid: FitsMemory validates what Run validates.
func TestFitsMemoryRejectsInvalid(t *testing.T) {
	s, err := schedule.ByName("gpipe", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := FitsMemory(Config{Model: model.BERT48(), MicroBatch: 1, W: 1}); err == nil {
		t.Error("FitsMemory accepted a nil schedule")
	}
	if _, _, err := FitsMemory(Config{Model: model.BERT48(), Schedule: s, MicroBatch: 0, W: 1}); err == nil {
		t.Error("FitsMemory accepted MicroBatch 0")
	}
	if _, _, err := FitsMemory(Config{Model: model.BERT48(), Schedule: s, MicroBatch: 1, W: 0}); err == nil {
		t.Error("FitsMemory accepted W 0")
	}
}

// TestFitsMemoryAllocFree: on a schedule whose residency profile is already
// cached, a fit prices straight off the profile and allocates nothing —
// for the fixed placement, a list policy's and an asynchronous scheme's.
func TestFitsMemoryAllocFree(t *testing.T) {
	specs := []schedule.Spec{
		{Scheme: "chimera", D: 8, N: 16},
		{Scheme: "chimera", Scheduler: "heft", D: 8, N: 16, SpeedFactors: []float64{1, 1, 2, 1, 1, 1, 1.5, 1}},
		{Scheme: "pipedream", D: 8, N: 16},
	}
	for _, spec := range specs {
		s, err := schedule.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Model: model.BERT48(), Schedule: s, MicroBatch: 4, W: 2, ZeRO: true}
		if spec.Scheduler != "" {
			cfg.SpeedFactors = spec.SpeedFactors
		}
		s.Residency()
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := FitsMemory(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if raceEnabled {
			t.Logf("%s/%s: FitsMemory %v allocs/op under -race (not gated)", spec.Scheme, spec.Scheduler, allocs)
		} else if allocs != 0 {
			t.Errorf("%s/%s: FitsMemory allocates %v times per call, want 0", spec.Scheme, spec.Scheduler, allocs)
		}
	}
}
