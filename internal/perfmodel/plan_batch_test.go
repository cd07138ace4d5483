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

// TestPlanDefaultsPlatform: a request without a device or network plans on
// the simulator's defaults, Piz Daint on Aries, exactly as one that names
// them. The memory fit always applied them; Eq. 1 must price on the same
// device, not divide by a zero peak rate.
func TestPlanDefaultsPlatform(t *testing.T) {
	named := PlanRequest{
		Model: model.Config{Name: "l24", Layers: 24, Hidden: 1024, Heads: 16, Vocab: 30522, SeqLen: 128},
		P:     16, MiniBatch: 256, Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
	}
	want, err := PlanOn(engine.New(engine.Workers(1)), named)
	if err != nil || len(want) == 0 {
		t.Fatalf("named platform: %d rows (%v)", len(want), err)
	}
	for name, mutate := range map[string]func(*PlanRequest){
		"zero device":  func(r *PlanRequest) { r.Device = sim.Device{} },
		"zero network": func(r *PlanRequest) { r.Network = sim.Network{} },
		"zero both":    func(r *PlanRequest) { r.Device, r.Network = sim.Device{}, sim.Network{} },
	} {
		req := named
		mutate(&req)
		got, err := PlanOn(engine.New(engine.Workers(1)), req)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: (%v)\n got %+v\nwant %+v", name, err, dump(got), dump(want))
		}
	}
}
