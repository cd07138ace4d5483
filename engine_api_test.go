package chimera_test

import (
	"reflect"
	"testing"

	"chimera"
)

// sweepSpecs builds a small mixed grid through the public facade.
func sweepSpecs() []chimera.SweepSpec {
	m := chimera.BERT48()
	dev, net := chimera.PizDaintNode(), chimera.AriesNetwork()
	var specs []chimera.SweepSpec
	for _, scheme := range []string{"chimera", "dapple", "gpipe"} {
		for _, d := range []int{2, 4, 8} {
			w := 16 / d
			b := 2
			n := 128 / (w * b)
			specs = append(specs, chimera.SweepSpec{
				Sched:      chimera.SweepScheduleKey{Scheme: scheme, D: d, N: n},
				Model:      m,
				MicroBatch: b, W: w,
				AutoRecompute: true,
				Device:        dev, Network: net,
			})
		}
	}
	return specs
}

// TestFacadeSweep: the facade sweep returns one outcome per spec, in order,
// identical to a serial private engine.
func TestFacadeSweep(t *testing.T) {
	specs := sweepSpecs()
	got := chimera.Sweep(specs)
	if len(got) != len(specs) {
		t.Fatalf("%d outcomes for %d specs", len(got), len(specs))
	}
	want := chimera.NewEngine(1).Sweep(specs)
	for i := range want {
		if (want[i].Err == nil) != (got[i].Err == nil) {
			t.Fatalf("outcome %d: error mismatch: %v vs %v", i, want[i].Err, got[i].Err)
		}
		if want[i].Err != nil {
			continue
		}
		if !reflect.DeepEqual(want[i].Result, got[i].Result) {
			t.Fatalf("outcome %d: shared-engine sweep differs from serial engine", i)
		}
	}
}

// TestFacadePlanPrivateMatchesShared: Plan on a private engine matches Plan
// on the shared default (a nil engine).
func TestFacadePlanPrivateMatchesShared(t *testing.T) {
	req := chimera.PlanRequest{
		Model: chimera.BERT48(), P: 16, MiniBatch: 128,
		Device: chimera.PizDaintNode(), Network: chimera.AriesNetwork(), MaxB: 16,
	}
	def, err := chimera.Plan(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	private, err := chimera.Plan(chimera.NewEngine(2), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def, private) {
		t.Fatal("Plan on a private engine diverged from the shared engine")
	}
}

// TestFacadeEngineStats: the default engine accumulates cache traffic once
// sweeps run through it.
func TestFacadeEngineStats(t *testing.T) {
	specs := sweepSpecs()
	chimera.Sweep(specs)
	chimera.Sweep(specs)
	st := chimera.DefaultEngine().Stats()
	if st.OutcomeHits == 0 {
		t.Fatal("repeat facade sweep produced no cache hits")
	}
	if st.HitRate() <= 0 || st.HitRate() > 1 {
		t.Fatalf("implausible hit rate %f", st.HitRate())
	}
}
