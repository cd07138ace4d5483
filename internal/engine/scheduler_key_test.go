package engine

import (
	"reflect"
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// TestSchedulerKeyCanonical pins the placement-policy axis of the cache key:
// "fixed" and no-signal list keys collapse onto the fixed representative,
// heterogeneous list keys survive, and keyOf stays buildSchedule's inverse
// for re-shaped schedules.
func TestSchedulerKeyCanonical(t *testing.T) {
	e := New()
	fixed := ChimeraKey(8, 16, 0, schedule.Direct)
	aliases := []ScheduleKey{
		{Scheme: "chimera", D: 8, N: 16, Scheduler: "fixed"},
		{Scheme: "chimera", D: 8, N: 16, Scheduler: "fixed", Speed: "1,1,1,1,1,1,1,1"},
		{Scheme: "chimera", D: 8, N: 16, Scheduler: "heft"},
		{Scheme: "chimera", D: 8, N: 16, Scheduler: "heft", Speed: "1.5,1.5,1.5,1.5,1.5,1.5,1.5,1.5"},
	}
	for _, alias := range aliases {
		if got := e.canonical(alias); got != e.canonical(fixed) {
			t.Errorf("canonical(%+v) = %+v, want the fixed representative %+v", alias, got, e.canonical(fixed))
		}
	}

	het := ScheduleKey{Scheme: "chimera", D: 8, N: 16, Scheduler: "heft", Speed: "1,1,1,1,2,1,1,1"}
	if got := e.canonical(het); got.Scheduler != "heft" || got.Speed != het.Speed {
		t.Fatalf("heterogeneous key collapsed: %+v", got)
	}
	s, err := e.Schedule(het)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheduler != "heft" {
		t.Fatalf("built schedule's Scheduler = %q, want heft", s.Scheduler)
	}
	if got := keyOf(s); got != e.canonical(het) {
		t.Fatalf("keyOf = %+v, want %+v", got, e.canonical(het))
	}

	// One cache entry serves the fixed key and all its aliases.
	e = New()
	for _, k := range append(aliases, fixed) {
		if _, err := e.Schedule(k); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.ScheduleMisses != 1 {
		t.Fatalf("%d schedule constructions for aliased keys, want 1", st.ScheduleMisses)
	}
}

// TestListScheduledEvaluationDeterministic: a list-scheduled spec must
// evaluate bit-identically on a serial engine and a wide pool —
// the engine-level replay-determinism guarantee of the conformance suite.
func TestListScheduledEvaluationDeterministic(t *testing.T) {
	var specs []Spec
	for _, pol := range schedule.Schedulers() {
		for _, scheme := range []string{"chimera", "gpipe", "dapple"} {
			specs = append(specs, Spec{
				Sched: ScheduleKey{
					Scheme: scheme, D: 8, N: 16,
					Scheduler: pol, Speed: "1,1,1,1,2,1,1,1",
				},
				Model: model.BERT48(), MicroBatch: 2, W: 4,
				AutoRecompute: true,
				SpeedFactors:  "1,1,1,1,2,1,1,1",
				Device:        sim.PizDaintNode(), Network: sim.AriesNetwork(),
			})
		}
	}
	serial := New(Workers(1)).Sweep(specs)
	parallel := New(Workers(8)).Sweep(specs)
	for i := range specs {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("spec %d: serial err %v, parallel err %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Fatalf("spec %d (%+v): serial and pooled results differ", i, specs[i].Sched)
		}
	}
}
