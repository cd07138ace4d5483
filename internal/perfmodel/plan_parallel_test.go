package perfmodel

import (
	"reflect"
	"sync"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/sim"
)

func planRequests() []PlanRequest {
	dev, net := sim.PizDaintNode(), sim.AriesNetwork()
	return []PlanRequest{
		{Model: model.BERT48(), P: 32, MiniBatch: 512, Device: dev, Network: net, MaxB: 32},
		{Model: model.BERT48(), P: 16, MiniBatch: 128, Device: dev, Network: net, MaxB: 16},
		{Model: model.GPT2Small32(), P: 16, MiniBatch: 64, Device: dev, Network: net, MaxB: 4},
		{Model: model.BERT48Seq512(), P: 8, MiniBatch: 64,
			Device: sim.V100Node(), Network: sim.NVLinkIBNetwork(), MaxB: 8},
	}
}

// TestPlanOnParallelMatchesSerial: the engine-parallel planner must produce
// the exact ranking and predictions of a serial reference on a fresh engine across
// request shapes.
func TestPlanOnParallelMatchesSerial(t *testing.T) {
	for _, req := range planRequests() {
		serial, err := PlanOn(engine.New(engine.Workers(1)), req)
		if err != nil {
			t.Fatalf("%s P=%d: %v", req.Model.Name, req.P, err)
		}
		parallel, err := PlanOn(engine.New(engine.Workers(8)), req)
		if err != nil {
			t.Fatalf("%s P=%d: %v", req.Model.Name, req.P, err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("%s P=%d: serial and parallel plans differ:\nserial:   %v\nparallel: %v",
				req.Model.Name, req.P, dump(serial), dump(parallel))
		}
	}
}

func dump(preds []*Prediction) []Prediction {
	out := make([]Prediction, len(preds))
	for i, p := range preds {
		out[i] = *p
	}
	return out
}

// TestPlanConcurrentCallers: many goroutines planning on one shared engine
// (the facade's situation) all get the reference answer; run under -race
// this stresses the planner's use of the shared caches.
func TestPlanConcurrentCallers(t *testing.T) {
	reqs := planRequests()
	want := make([][]*Prediction, len(reqs))
	for i, req := range reqs {
		var err error
		want[i], err = PlanOn(engine.New(engine.Workers(1)), req)
		if err != nil {
			t.Fatal(err)
		}
	}
	shared := engine.New(engine.Workers(4))
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req PlanRequest) {
				defer wg.Done()
				got, err := PlanOn(shared, req)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(want[i], got) {
					t.Errorf("request %d: concurrent plan diverged from reference", i)
				}
			}(i, req)
		}
	}
	wg.Wait()
}

// TestPlanDeterministicRanking: ties cannot reorder across runs — the
// comparator is total on (Throughput, D, B).
func TestPlanDeterministicRanking(t *testing.T) {
	req := planRequests()[0]
	first, err := PlanOn(engine.Default(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := PlanOn(engine.Default(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d: plan ranking not reproducible", i)
		}
	}
}
