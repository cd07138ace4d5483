package sim

import (
	"slices"
	"sort"
	"testing"

	"chimera/internal/model"
	"chimera/internal/refinterp"
	"chimera/internal/schedule"
)

// oracleGradReady derives worker w's gradient-ready times from a reference
// timeline: the latest backward finish per (stage, replica) placement,
// ordered by (stage, replica).
func oracleGradReady(s *schedule.Schedule, tl *schedule.Timeline, w int) []schedule.GradReady {
	at := make(map[schedule.StagePlacement]int64)
	for i, op := range s.Workers[w] {
		pl := schedule.StagePlacement{Replica: op.Replica, Stage: op.Stage}
		if op.Kind == schedule.Backward && tl.End[w][i] > at[pl] {
			at[pl] = tl.End[w][i]
		}
	}
	out := make([]schedule.GradReady, 0, len(at))
	for pl, t := range at {
		out = append(out, schedule.GradReady{StagePlacement: pl, At: t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Replica < out[j].Replica
	})
	return out
}

// TestRunReadoutsMatchReference: Run's result is a function of four
// read-outs of the graph replay under its own replayConfig — makespan,
// bubble ratio, each worker's compute-end and its gradient-ready times — so
// each must equal what the reference interpreter's timeline gives under the
// same config: across the §3.5 variants, heterogeneous speed factors, a
// list-placed schedule whose straggler is left with no ops (compute-end 0,
// no allreduces), the asynchronous schemes, and PipeDream at 2N, the probe
// asyncFinish replays for its steady state.
func TestRunReadoutsMatchReference(t *testing.T) {
	build := func(spec schedule.Spec) *schedule.Schedule {
		s, err := schedule.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	straggler := []float64{1, 1, 1, 1, 64, 1, 1, 1}
	idle := build(schedule.Spec{Scheme: "chimera", Scheduler: "heft", D: 8, N: 16, SpeedFactors: straggler})
	if w := 4; len(idle.Workers[w]) != 0 {
		t.Fatalf("heft kept %d ops on the 64× straggler; the case no longer covers an idle worker", len(idle.Workers[w]))
	}
	for name, c := range map[string]struct {
		s       *schedule.Schedule
		factors []float64
	}{
		"chimera":       {build(schedule.Spec{Scheme: "chimera", D: 8, N: 16}), nil},
		"chimera-f2":    {build(schedule.Spec{Scheme: "chimera", D: 8, N: 16, F: 2}), nil},
		"doubling":      {build(schedule.Spec{Scheme: "chimera", D: 8, N: 24, Concat: schedule.ForwardDoubling}), nil},
		"halving":       {build(schedule.Spec{Scheme: "chimera", D: 8, N: 16, Concat: schedule.BackwardHalving}), nil},
		"hetero-fixed":  {build(schedule.Spec{Scheme: "chimera", D: 8, N: 16}), straggler},
		"heft-idle":     {idle, straggler},
		"lb":            {build(schedule.Spec{Scheme: "chimera", Scheduler: "lb", D: 8, N: 16, SpeedFactors: straggler}), straggler},
		"gpipe":         {build(schedule.Spec{Scheme: "gpipe", D: 8, N: 16}), nil},
		"pipedream":     {build(schedule.Spec{Scheme: "pipedream", D: 8, N: 16}), nil},
		"pipedream-2N":  {build(schedule.Spec{Scheme: "pipedream", D: 8, N: 32}), nil},
		"pipedream-2bw": {build(schedule.Spec{Scheme: "pipedream-2bw", D: 8, N: 16}), nil},
	} {
		cfg := Config{
			Model: model.BERT48(), Schedule: c.s, MicroBatch: 4, W: 2,
			SpeedFactors: c.factors, Device: PizDaintNode(), Network: AriesNetwork(),
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rc := cfg.replayConfig()
		want, err := refinterp.ReplayWith(c.s, rc)
		if err != nil {
			t.Fatalf("%s: reference replay: %v", name, err)
		}
		ro, err := c.s.Readout(rc)
		if err != nil {
			t.Fatalf("%s: graph read-out: %v", name, err)
		}
		if got := ro.Makespan(); got != want.Makespan {
			t.Errorf("%s: makespan %d, reference %d", name, got, want.Makespan)
		}
		if got, w := ro.BubbleRatio(), want.BubbleRatio(); got != w {
			t.Errorf("%s: bubble ratio %v, reference %v", name, got, w)
		}
		for w := 0; w < c.s.D; w++ {
			var end int64
			if ends := want.End[w]; len(ends) > 0 {
				end = slices.Max(ends)
			}
			if got := ro.ComputeEnd(w); got != end {
				t.Errorf("%s: worker %d compute-end %d, reference %d", name, w, got, end)
			}
			if got, ready := ro.GradReady(w), oracleGradReady(c.s, want, w); !slices.Equal(got, ready) {
				t.Errorf("%s: worker %d grad-ready %v, reference %v", name, w, got, ready)
			}
		}
		ro.Release()
	}
}
