package perfmodel

import (
	"fmt"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// benchRequests are three points of the repository benchmark's plan grid
// (bench/plan.go): default MaxB, so the B sweep starts at 64 and the long
// N = B̂/(W·B) schedules of the small-B end are in play.
func benchRequests() []PlanRequest {
	shape := func(layers, hidden, heads, seq int) model.Config {
		return model.Config{Name: "bench", Layers: layers, Hidden: hidden, Heads: heads, Vocab: 50257, SeqLen: seq}
	}
	return []PlanRequest{
		{Model: shape(48, 1024, 16, 128), P: 32, MiniBatch: 1024, Device: sim.PizDaintNode(), Network: sim.AriesNetwork()},
		{Model: shape(64, 1280, 20, 512), P: 64, MiniBatch: 512, Device: sim.V100Node(), Network: sim.NVLinkIBNetwork()},
		{Model: shape(96, 2048, 32, 256), P: 128, MiniBatch: 1024, Device: sim.PizDaintNode(), Network: sim.AriesNetwork()},
	}
}

// benchPlan plans benchRequests once per iteration on a single-worker
// engine, resetting it before every plan when cold.
func benchPlan(b *testing.B, e *engine.Engine, cold bool) {
	reqs := benchRequests()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			if cold {
				e.Reset()
			}
			if _, err := PlanOn(e, req); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkPlanCold resets the engine before every plan: the closed-form
// residency profiles of the memory fit, the schedules the chosen candidates
// replay (and no other), their graphs, critical paths and the prediction
// replays are all paid for, as on a one-shot chimera-plan.
func BenchmarkPlanCold(b *testing.B) { benchPlan(b, engine.New(engine.Workers(1)), true) }

// BenchmarkPlanWarm plans on a primed engine: memory fit, memo hits and one
// prediction replay per candidate (Eq. 1's compute term; its free regions
// are memoized) are what is left.
func BenchmarkPlanWarm(b *testing.B) {
	e := engine.New(engine.Workers(1))
	for _, req := range benchRequests() {
		if _, err := PlanOn(e, req); err != nil {
			b.Fatal(err)
		}
	}
	benchPlan(b, e, false)
}

// BenchmarkPredictWithCritical is one Eq. 1 evaluation on a compiled
// schedule: two priced replays and the free-region read-out, nothing cached
// between calls. The hetero cases add per-worker speed factors, which
// multiply the number of distinct op shapes by D.
func BenchmarkPredictWithCritical(b *testing.B) {
	for _, dn := range [][2]int{{16, 64}, {32, 256}} {
		d, n := dn[0], dn[1]
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: n})
		if err != nil {
			b.Fatal(err)
		}
		cf, cb, err := schedule.CriticalPath(s)
		if err != nil {
			b.Fatal(err)
		}
		speed := make([]float64, d)
		for w := range speed {
			speed[w] = 1 + 0.05*float64(w%4)
		}
		for _, c := range []struct {
			name    string
			factors []float64
		}{{"homog", nil}, {"hetero", speed}} {
			cfg := sim.Config{
				Model: model.GPT2(), Schedule: s, MicroBatch: 2, W: 4, SpeedFactors: c.factors,
				Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
			}
			b.Run(fmt.Sprintf("D%dN%d/%s", d, n, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := PredictWithCritical(cfg, cf, cb); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
