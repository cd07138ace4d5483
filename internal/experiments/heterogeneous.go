package experiments

import (
	"fmt"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// AblationHeterogeneous opens the heterogeneous-cluster scenario: a
// straggler-severity sweep asking how much of Chimera's bubble advantage
// survives one slow worker. One pipeline worker (a middle stage, where a
// bidirectional pipeline has the least slack) runs 1.1×–2× slower than its
// peers; every scheme is re-simulated through the engine's per-worker
// speed-factor seam and compared against its own homogeneous throughput and
// against DAPPLE/1F1B at the same severity.
//
// The sweep is a scheme × scheduler matrix: besides each scheme's fixed
// placement, every list policy's re-shaped placement is evaluated at the
// same severity. On Bert-48 the re-shapes stack six-layer stage groups'
// weights and mostly lose to the fixed placement — the memory-bound regime;
// TestListSchedulerBeatsFixedUnderStraggler runs the same matrix on
// GPT-2-32, whose four-layer stages leave the headroom where they win.
func AblationHeterogeneous() (*Report, error) {
	r := newReport("ablation-heterogeneous", "Straggler severity sweep (Bert-48, D=8, W=4, one slow middle worker)")
	m := model.BERT48()
	severities := []float64{1.0, 1.1, 1.25, 1.5, 2.0}

	// base[scheme] is the homogeneous throughput the retained fraction is
	// measured against.
	base := make(map[string]float64, len(stragglerSchemes))
	for _, sev := range severities {
		enc := stragglerSpeed(sev)
		tp := make(map[string]float64, len(stragglerSchemes))
		bestReshape, bestReshapeTp := "", 0.0
		for _, scheme := range stragglerSchemes {
			for _, sched := range schedule.Schedulers() {
				if sched != "fixed" && sev == 1.0 {
					continue // uniform factors: every policy defers to fixed
				}
				out := stragglerCell(m, scheme, sched, enc)
				res, _ := outcomePoint(out)
				if res == nil {
					if out.Err != nil {
						return nil, out.Err
					}
					if sched != "fixed" {
						// Re-shaped placements may stack too many stage
						// groups' weights for the device — a real data
						// point, not a sweep failure.
						r.Metrics[fmt.Sprintf("%s:%s:%.2f", scheme, sched, sev)] = 0
						continue
					}
					return nil, fmt.Errorf("ablation-heterogeneous: %s D=%d infeasible", scheme, stragglerD)
				}
				if sched != "fixed" {
					r.Metrics[fmt.Sprintf("%s:%s:%.2f", scheme, sched, sev)] = res.Throughput
					if res.Throughput > bestReshapeTp {
						bestReshape, bestReshapeTp = scheme+"/"+sched, res.Throughput
					}
					continue
				}
				tp[scheme] = res.Throughput
				if sev == 1.0 {
					base[scheme] = res.Throughput
				}
				r.Metrics[fmt.Sprintf("%s:%.2f", scheme, sev)] = res.Throughput
			}
		}
		line := fmt.Sprintf("straggler ×%.2f:", sev)
		for _, scheme := range stragglerSchemes {
			retained := tp[scheme] / base[scheme]
			line += fmt.Sprintf("  %s %7.1f seq/s (%.0f%%)", scheme, tp[scheme], 100*retained)
			r.Metrics[fmt.Sprintf("retained:%s:%.2f", scheme, sev)] = retained
		}
		adv := tp["chimera"] / tp["dapple"]
		line += fmt.Sprintf("  chimera/1F1B %.3fx", adv)
		r.Metrics[fmt.Sprintf("advantage:%.2f", sev)] = adv
		if bestReshape != "" {
			line += fmt.Sprintf("  best re-shape %s %.1f", bestReshape, bestReshapeTp)
		}
		r.addf("%s", line)
	}
	r.addf("one ×2 straggler costs every synchronous scheme its slowest worker's pace;")
	r.addf("the ratio row shows how much of Chimera's bubble advantage survives it;")
	r.addf("scheme:scheduler metrics give the list-policy re-shapes at each severity")
	return r, nil
}

// The straggler matrix's fixed configuration: D=8 pipelines of W=4 replicas
// at micro-batch B=4 over N=16 micro-batches (B̂ = W·B·N = 256) on Piz
// Daint, one middle worker — where a bidirectional pipeline has the least
// slack — slowed.
const (
	stragglerD = 8
	stragglerN = 16
	stragglerB = 4
	stragglerW = 4
)

var stragglerSchemes = []string{"chimera", "gpipe", "dapple"}

// stragglerSpeed encodes the per-worker speed factors with the middle
// worker running sev× slower than its peers.
func stragglerSpeed(sev float64) string {
	factors := make([]float64, stragglerD)
	for i := range factors {
		factors[i] = 1
	}
	factors[stragglerD/2] = sev
	return sim.EncodeSpeedFactors(factors)
}

// stragglerCell evaluates one cell of the scheme × scheduler matrix: scheme
// under sched's placement of model m, simulated with the speed factors enc.
func stragglerCell(m model.Config, scheme, sched, enc string) engine.Outcome {
	plat := pizDaint()
	key := engine.ScheduleKey{Scheme: scheme, D: stragglerD, N: stragglerN}
	if scheme == "chimera" {
		key = engine.ChimeraKey(stragglerD, stragglerN, 0, 0)
	}
	if sched != "fixed" {
		key.Scheduler = sched
		key.Speed = enc
	}
	return eng.Evaluate(engine.Spec{
		Sched: key, Model: m, MicroBatch: stragglerB, W: stragglerW,
		AutoRecompute: true, SpeedFactors: enc,
		Device: plat.dev, Network: plat.net,
	})
}
