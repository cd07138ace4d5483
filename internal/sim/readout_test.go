package sim

import (
	"reflect"
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// TestRunCoresAgree: Run reads makespan, bubble ratio, compute-end and
// grad-ready through one interface from either core — the graph's finish
// array or a walk of the reference interpreter's timeline — and the Result
// must not depend on which: across sync strategies, the §3.5 variants, the
// asynchronous schemes, and a list-placed schedule whose straggler is left
// with no ops (compute-end 0, no allreduces).
func TestRunCoresAgree(t *testing.T) {
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
		"pipedream-2bw": {build(schedule.Spec{Scheme: "pipedream-2bw", D: 8, N: 16}), nil},
	} {
		for _, sync := range []SyncStrategy{SyncEagerOpt, SyncEager, SyncPostHoc} {
			cfg := Config{
				Model: model.BERT48(), Schedule: c.s, MicroBatch: 4, W: 2, Sync: sync,
				SpeedFactors: c.factors, Device: PizDaintNode(), Network: AriesNetwork(),
			}
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, sync, err)
			}
			cfg.ReferenceReplay = true
			want, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%v: reference core: %v", name, sync, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%v: graph core %+v, reference core %+v", name, sync, *got, *want)
			}
		}
	}
}
