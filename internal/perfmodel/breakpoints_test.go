package perfmodel

import (
	"errors"
	"slices"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/sim"
)

// FuzzPlanBreakpoints: Breakpoints is the planner's grid, listed. Over
// random (layers, B̂, P) the list ascends without repeats and stays within its
// bound, and PlanOn answers with a prediction, or with an error other than
// ErrInfeasible, only at a P the list holds.
func FuzzPlanBreakpoints(f *testing.F) {
	for _, seed := range [][3]int{{48, 64, 16}, {30, 3, 18}, {30, 3, 12}, {12, 96, 36}, {48, 384, 40}, {30, 2, 10}, {30, 4, 30}, {7, 5, 14}, {1, 1, 2}} {
		f.Add(seed[0], seed[1], seed[2])
	}
	e := engine.New(engine.Workers(1))
	f.Fuzz(func(t *testing.T, layers, miniBatch, p int) {
		// Fold into layers ≤ 64, B̂ ≤ 512, P ≤ 256; in-range values map to
		// themselves.
		layers = 1 + int(uint(layers-1)%64)
		miniBatch = 1 + int(uint(miniBatch-1)%512)
		p = 1 + int(uint(p-1)%256)
		ps := Breakpoints(layers, miniBatch, p)
		for i, q := range ps {
			if q < 2 || q > p || (i > 0 && q <= ps[i-1]) {
				t.Fatalf("Breakpoints(%d, %d, %d) = %v: not ascending within [2, %d]", layers, miniBatch, p, ps, p)
			}
		}
		preds, err := PlanOn(e, PlanRequest{
			Model: model.Config{Name: "fuzz", Layers: layers, Hidden: 64, Heads: 4, Vocab: 1000, SeqLen: 32},
			P:     p, MiniBatch: miniBatch, MaxB: 4,
			Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
		})
		if !slices.Contains(ps, p) && !errors.Is(err, ErrInfeasible) {
			t.Fatalf("P=%d is off the grid %v (layers %d, B̂ %d), yet PlanOn answered %v, %v", p, ps, layers, miniBatch, preds, err)
		}
	})
}
