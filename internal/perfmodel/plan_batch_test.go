package perfmodel

import (
	"reflect"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/sim"
)

// TestPlanBatchOnMatchesSequential: a batch's per-request predictions and
// errors must be exactly what sequential PlanOn calls produce — the batch
// endpoint's byte-identity contract rests on this equality.
func TestPlanBatchOnMatchesSequential(t *testing.T) {
	reqs := planRequests()
	// Add an infeasible request (no even-D factorization of P=7) and a
	// duplicate of the first, so the batch path carries per-request errors
	// and repeated grids without cross-talk.
	reqs = append(reqs, PlanRequest{Model: model.BERT48(), P: 7, MiniBatch: 512,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork()})
	reqs = append(reqs, reqs[0])

	preds, errs := PlanBatchOn(engine.New(engine.Workers(4)), reqs)
	if len(preds) != len(reqs) || len(errs) != len(reqs) {
		t.Fatalf("batch returned %d/%d results for %d requests", len(preds), len(errs), len(reqs))
	}
	for i, req := range reqs {
		want, wantErr := PlanOn(engine.New(engine.Workers(1)), req)
		if (wantErr == nil) != (errs[i] == nil) {
			t.Fatalf("request %d: batch err %v, sequential err %v", i, errs[i], wantErr)
		}
		if wantErr != nil {
			if errs[i].Error() != wantErr.Error() {
				t.Fatalf("request %d: batch error %q != sequential %q", i, errs[i], wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(want, preds[i]) {
			t.Fatalf("request %d (%s P=%d): batch predictions diverge from sequential:\nbatch: %v\nseq:   %v",
				i, req.Model.Name, req.P, dump(preds[i]), dump(want))
		}
	}
}

// TestPlanBatchOnDoesNotMutateInput: normalization (MaxB default, scheduler
// resolution) must happen on a private copy.
func TestPlanBatchOnDoesNotMutateInput(t *testing.T) {
	reqs := []PlanRequest{{Model: model.BERT48(), P: 16, MiniBatch: 128,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork()}}
	before := reqs[0]
	if _, errs := PlanBatchOn(engine.New(engine.Workers(2)), reqs); errs[0] != nil {
		t.Fatal(errs[0])
	}
	if reqs[0] != before {
		t.Fatalf("PlanBatchOn mutated the caller's request: %+v -> %+v", before, reqs[0])
	}
}

// TestPlanBatchOnEmpty: a zero-request batch is a cheap no-op.
func TestPlanBatchOnEmpty(t *testing.T) {
	preds, errs := PlanBatchOn(engine.New(engine.Workers(1)), nil)
	if len(preds) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch returned %d/%d results", len(preds), len(errs))
	}
}
