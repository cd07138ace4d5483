package perfmodel

import (
	"reflect"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/sim"
)

func hetPlanRequest(scheduler string, factors []float64) PlanRequest {
	return PlanRequest{
		Model: model.GPT2Small32(), P: 32, MiniBatch: 512,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(), MaxB: 8,
		SpeedFactors: sim.EncodeSpeedFactors(factors),
		Scheduler:    scheduler,
	}
}

// TestPlanSchedulerAxis: "auto" on a heterogeneous pipeline sweeps fixed
// plus every list policy, rows stay sorted, and at a severe straggler the
// best list-scheduled prediction beats the fixed placement. GPT2Small32 has
// the memory headroom that lets a list policy actually move stage groups
// off the straggler (BERT48's per-stage weights pin every worker to two
// groups, capping the reshaping gain).
func TestPlanSchedulerAxis(t *testing.T) {
	factors := []float64{1, 1, 1, 1, 2, 1, 1, 1}
	preds, err := PlanOn(engine.Default(), hetPlanRequest("auto", factors))
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]*Prediction{}
	for i, p := range preds {
		if i > 0 && p.Throughput > preds[i-1].Throughput {
			t.Fatal("plan not sorted by throughput")
		}
		if byPolicy[p.Scheduler] == nil {
			byPolicy[p.Scheduler] = p
		}
	}
	for _, pol := range []string{"", "heft", "cpop", "lb"} {
		if byPolicy[pol] == nil {
			t.Fatalf("no prediction for policy %q in %d rows", pol, len(preds))
		}
	}
	if best := preds[0]; best.Scheduler == "" {
		t.Fatalf("best prediction under a 2× straggler is the fixed placement (%.1f samples/s); expected a list policy to lead",
			best.Throughput)
	}
	if fixed := byPolicy[""]; !(byPolicy["heft"].Throughput > fixed.Throughput) {
		t.Fatalf("heft %.1f not above fixed %.1f", byPolicy["heft"].Throughput, fixed.Throughput)
	}
}

// TestPlanSchedulerUniformCollapses: with homogeneous factors the policy
// axis collapses to the fixed placement, bit-identical to a pre-policy plan.
func TestPlanSchedulerUniformCollapses(t *testing.T) {
	base, err := PlanOn(engine.Default(), PlanRequest{
		Model: model.GPT2Small32(), P: 32, MiniBatch: 512,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(), MaxB: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []string{"fixed", "heft", "auto"} {
		got, err := PlanOn(engine.Default(), hetPlanRequest(sel, nil))
		if err != nil {
			t.Fatalf("%s: %v", sel, err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("scheduler %q with homogeneous factors diverged from the fixed plan", sel)
		}
	}
}

// TestPlanSchedulerUnknownRejected covers the validation path.
func TestPlanSchedulerUnknownRejected(t *testing.T) {
	if _, err := PlanOn(engine.Default(), hetPlanRequest("peft", []float64{1, 2})); err == nil {
		t.Fatal("unknown scheduler name must be rejected")
	}
}
