package schedule_test

import (
	"reflect"
	"testing"

	"chimera/internal/refinterp"
	"chimera/internal/schedule"
)

// oracleComputeEnd is Timeline.ComputeEnd as it stood before the read-out:
// a full scan for each worker's latest finish. It survives only here.
func oracleComputeEnd(tl *schedule.Timeline) []int64 {
	out := make([]int64, len(tl.End))
	for w, ends := range tl.End {
		for _, e := range ends {
			if e > out[w] {
				out[w] = e
			}
		}
	}
	return out
}

// oracleGradReady is Schedule.GradReady as it stood before the read-out: a
// walk of every op, keeping per (replica, stage) the latest backward finish
// in a map. It survives only here.
func oracleGradReady(s *schedule.Schedule, tl *schedule.Timeline) []map[schedule.StagePlacement]int64 {
	out := make([]map[schedule.StagePlacement]int64, s.D)
	for w, ops := range s.Workers {
		out[w] = make(map[schedule.StagePlacement]int64)
		for i, op := range ops {
			if op.Kind != schedule.Backward {
				continue
			}
			key := schedule.StagePlacement{Replica: op.Replica, Stage: op.Stage}
			if tl.End[w][i] > out[w][key] {
				out[w][key] = tl.End[w][i]
			}
		}
	}
	return out
}

// checkReadout requires the read-outs of a graph replay of s under rc to
// equal the old scan and map walk applied to the reference interpreter's
// timeline, and grad-ready entries to arrive ordered by (stage, replica).
func checkReadout(t *testing.T, name string, s *schedule.Schedule, rc schedule.ReplayConfig) {
	t.Helper()
	want, err := refinterp.ReplayWith(s, rc)
	if err != nil {
		t.Fatalf("%s: interpreter replay: %v", name, err)
	}
	ro, err := s.Readout(rc)
	if err != nil {
		t.Fatalf("%s: graph read-out: %v", name, err)
	}
	defer ro.Release()
	if ro.Makespan() != want.Makespan {
		t.Fatalf("%s: read-out makespan %d, interpreter %d", name, ro.Makespan(), want.Makespan)
	}
	if got, w := ro.BubbleRatio(), want.BubbleRatio(); got != w {
		t.Fatalf("%s: read-out bubble ratio %v, interpreter %v", name, got, w)
	}
	ends, ready := oracleComputeEnd(want), oracleGradReady(s, want)
	for w := 0; w < s.D; w++ {
		if got := ro.ComputeEnd(w); got != ends[w] {
			t.Fatalf("%s: worker %d compute-end %d, scan of the interpreter timeline %d", name, w, got, ends[w])
		}
		got := ro.GradReady(w)
		if len(got) != len(ready[w]) {
			t.Fatalf("%s: worker %d has %d grad-ready entries, map walk %d", name, w, len(got), len(ready[w]))
		}
		for i, gr := range got {
			if at, ok := ready[w][gr.StagePlacement]; !ok || at != gr.At {
				t.Fatalf("%s: worker %d placement %+v ready at %d, map walk (%d, %v)", name, w, gr.StagePlacement, gr.At, at, ok)
			}
			if i > 0 {
				prev := got[i-1]
				if prev.Stage > gr.Stage || (prev.Stage == gr.Stage && prev.Replica >= gr.Replica) {
					t.Fatalf("%s: worker %d grad-ready entries not ordered by (stage, replica): %+v before %+v", name, w, prev, gr)
				}
			}
		}
	}
}

// TestReadoutEquivalence: makespan, compute-end and grad-ready read straight
// off the kernel's finish array must equal what the old full-scan ComputeEnd
// and map GradReady derived from the reference interpreter's timeline, over
// the whole equivalence grid.
func TestReadoutEquivalence(t *testing.T) {
	for _, c := range equivSchedules(t) {
		for _, m := range equivCostModels {
			checkReadout(t, c.name+"/"+m.name, c.s, m.cm.ReplayConfig())
		}
		checkReadout(t, c.name+"/hetero", c.s, heteroReplayConfig)
	}
}

// TestIdleWorkerReadout pins the worker a list scheduler leaves without ops
// under a severe straggler: an empty timeline row and zero busy time through
// the timeline path; compute-end 0 and no grad-ready entries through the
// read-out path.
func TestIdleWorkerReadout(t *testing.T) {
	for _, policy := range []string{"heft", "lb"} {
		s, err := schedule.Build(schedule.Spec{
			Scheme: "chimera", Scheduler: policy, D: 8, N: 16,
			SpeedFactors: []float64{1, 1, 1, 1, 64, 1, 1, 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		w := idleWorker(s)
		if w < 0 {
			t.Fatalf("%s: the straggler kept ops; the case no longer covers an idle worker", policy)
		}
		rc := schedule.CostModel{FUnit: 173, BUnit: 391, P2P: 29}.ReplayConfig()
		tl, err := s.ReplayWith(rc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refinterp.ReplayWith(s, rc)
		if err != nil {
			t.Fatal(err)
		}
		assertTimelinesEqual(t, policy, "idle", tl, want)
		if len(tl.Start[w]) != 0 || len(tl.End[w]) != 0 || tl.BusyTime[w] != 0 {
			t.Fatalf("%s: idle worker %d has timeline rows %v/%v, busy %d", policy, w, tl.Start[w], tl.End[w], tl.BusyTime[w])
		}
		tl.Release()
		ro, err := s.Readout(rc)
		if err != nil {
			t.Fatal(err)
		}
		if ro.ComputeEnd(w) != 0 || len(ro.GradReady(w)) != 0 {
			t.Fatalf("%s: idle worker %d reads compute-end %d, grad-ready %v", policy, w, ro.ComputeEnd(w), ro.GradReady(w))
		}
		if ro.Makespan() != want.Makespan {
			t.Fatalf("%s: read-out makespan %d, interpreter %d", policy, ro.Makespan(), want.Makespan)
		}
		ro.Release()
		checkReadout(t, policy+"/idle", s, rc)
	}
}

// TestReleaseIsIdempotent: a Timeline and the Readout it views share one
// pooled backing; releasing either, twice, or a reference timeline, is safe.
func TestReleaseIsIdempotent(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := s.Replay(schedule.UnitPractical)
	if err != nil {
		t.Fatal(err)
	}
	want := tl.Makespan
	tl.Release()
	tl.Release()
	ref, err := refinterp.Replay(s, schedule.UnitPractical)
	if err != nil {
		t.Fatal(err)
	}
	ref.Release()
	var none *schedule.Timeline
	none.Release()
	// Two live replays must not share backing after the double release.
	a, _ := s.Replay(schedule.UnitPractical)
	b, _ := s.Replay(schedule.UnitEqual)
	if a.Makespan != want || !reflect.DeepEqual(a.End, ref.End) {
		t.Fatalf("a double release let two replays share one backing: makespan %d, want %d", a.Makespan, want)
	}
	a.Release()
	b.Release()
}
