package perfmodel

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// twoPassPlanOne is planOne as it stood before residency profiles: a plain
// sweep over B and then a recompute sweep over the same keys, each step
// building the full (D, N) schedule and asking FitsMemory about it. It
// survives only here, as the reference the one-pass search is checked
// against.
func twoPassPlanOne(e *engine.Engine, req PlanRequest, w, d int, sched string, factors []float64) (*Prediction, error) {
	perPipe := req.MiniBatch / w
	speed := ""
	if sched != "" {
		speed = sim.EncodeSpeedFactors(factors)
	}
	for _, allowRecompute := range []bool{false, true} {
		for b := req.MaxB; b >= 1; b /= 2 {
			if perPipe%b != 0 {
				continue
			}
			n := perPipe / b
			key := engine.ChimeraKey(d, n, 0, schedule.Direct)
			if sched != "" {
				key.Scheduler = sched
				key.Speed = speed
			}
			sch, err := e.Schedule(key)
			if err != nil {
				continue
			}
			cfg := sim.Config{
				Model: req.Model, Schedule: sch, MicroBatch: b, W: w,
				SpeedFactors: factors,
				Device:       req.Device, Network: req.Network,
			}
			plain, withRec, err := sim.FitsMemory(cfg)
			if err != nil {
				return nil, err
			}
			if !plain && !(allowRecompute && withRec) {
				continue
			}
			cfg.Recompute = !plain
			cf, cb, err := e.CriticalPath(key)
			if err != nil {
				return nil, err
			}
			pred, err := PredictWithCritical(cfg, cf, cb)
			if err != nil {
				return nil, err
			}
			pred.Scheduler = sched
			return pred, nil
		}
	}
	return nil, nil
}

// oracleRequests is the request set of equivalence test (c): a stride
// through the benchmark's plan grid (inline model shapes × P × B̂ × both
// platforms), heterogeneous "auto" requests that sweep every placement
// policy, recompute-only and mixed-fit shapes, and an infeasible request.
func oracleRequests() []PlanRequest {
	var out []PlanRequest
	shapes := []struct{ hidden, heads, seq int }{
		{1024, 16, 128}, {1280, 20, 512}, {1536, 16, 1024}, {2048, 32, 256}, {2560, 32, 512},
	}
	platforms := []struct {
		dev sim.Device
		net sim.Network
	}{{sim.PizDaintNode(), sim.AriesNetwork()}, {sim.V100Node(), sim.NVLinkIBNetwork()}}
	i := 0
	for _, layers := range []int{24, 32, 48, 64, 96} {
		for _, sh := range shapes {
			for _, p := range []int{8, 16, 32, 64, 128} {
				for _, bhat := range []int{128, 256, 512, 1024} {
					for _, pf := range platforms {
						// 1000 grid points; every 11th keeps all five values of
						// every axis in play at a tenth of the cost.
						if i++; i%11 != 0 {
							continue
						}
						out = append(out, PlanRequest{
							Model: model.Config{
								Name:   fmt.Sprintf("bench-l%d-h%d-s%d", layers, sh.hidden, sh.seq),
								Layers: layers, Hidden: sh.hidden, Heads: sh.heads, Vocab: 50257, SeqLen: sh.seq,
							},
							P: p, MiniBatch: bhat, Device: pf.dev, Network: pf.net,
						})
					}
				}
			}
		}
	}
	out = append(out, planRequests()...)
	for _, factors := range [][]float64{
		{1, 1, 1, 1, 2, 1, 1, 1},
		{1, 1.25, 1.5, 1.75},
		{1.5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3},
	} {
		for _, sel := range []string{"auto", "heft"} {
			req := hetPlanRequest(sel, factors)
			out = append(out, req)
			req.MaxB, req.MiniBatch = 64, 1024 // long schedules under list placement
			out = append(out, req)
		}
	}
	// An odd mini-batch: N is not a power of two, so partial trailing units.
	out = append(out, PlanRequest{
		Model: model.BERT48(), P: 8, MiniBatch: 8 * 3 * 5 * 7,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(), MaxB: 32,
	})
	// Infeasible: nothing fits a device this small.
	tiny := sim.PizDaintNode()
	tiny.MemBytes = 1 << 20
	out = append(out, PlanRequest{
		Model: model.GPT2(), P: 16, MiniBatch: 256, Device: tiny, Network: sim.AriesNetwork(),
	})
	return out
}

// TestPlanMatchesTwoPassSearch is equivalence test (c): PlanOn's rankings
// are deeply equal to the two-pass reference's — every field of every row,
// errors included — on cold engines.
func TestPlanMatchesTwoPassSearch(t *testing.T) {
	reqs := oracleRequests()
	if testing.Short() {
		reqs = reqs[len(reqs)-30:]
	}
	feasible, infeasible, recompute := 0, 0, 0
	for i, req := range reqs {
		got, gerr := PlanOn(engine.New(engine.Workers(1)), req)
		wants, werrs := planBatch(engine.New(engine.Workers(1)), []PlanRequest{req}, twoPassPlanOne)
		want, werr := wants[0], werrs[0]
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("request %d %+v: error %v, reference %v", i, req, gerr, werr)
		}
		if errors.Is(werr, ErrInfeasible) {
			if !errors.Is(gerr, ErrInfeasible) {
				t.Fatalf("request %d: ErrInfeasible not preserved: %v", i, gerr)
			}
			infeasible++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("request %d %+v:\n got %+v\nwant %+v", i, req, dump(got), dump(want))
		}
		feasible++
		for _, p := range want {
			if p.Recompute {
				recompute++
			}
		}
	}
	if !testing.Short() && (infeasible == 0 || recompute == 0) {
		t.Fatalf("request set lost its coverage: %d infeasible, %d recompute rows", infeasible, recompute)
	}
	t.Logf("%d feasible plans (%d recompute rows) and %d infeasible equal the two-pass reference", feasible, recompute, infeasible)
}

// TestWarmPlanMatchesCold: a shared engine answers a request from memo
// entries other requests filled — graphs, critical paths, residency
// profiles, none of which depends on a request input beyond its key — so
// every request planned on one shared engine, first in order and then in
// reverse, must equal its plan on a fresh engine, errors included, and the
// reverse pass misses no memo table.
func TestWarmPlanMatchesCold(t *testing.T) {
	reqs := oracleRequests()
	if testing.Short() {
		reqs = reqs[len(reqs)-30:]
	}
	cold := make([][]*Prediction, len(reqs))
	coldErrs := make([]error, len(reqs))
	for i, req := range reqs {
		cold[i], coldErrs[i] = PlanOn(engine.New(engine.Workers(1)), req)
	}
	reg := obs.NewRegistry()
	shared := engine.New(engine.Workers(1), engine.Observe(reg))
	misses := func() map[string]uint64 {
		out := map[string]uint64{}
		for series, v := range reg.Snapshot().Counters {
			if strings.HasPrefix(series, "engine_cache_misses_total") {
				out[series] = v
			}
		}
		return out
	}
	var forward map[string]uint64
	for _, reverse := range []bool{false, true} {
		if reverse {
			forward = misses()
		}
		for j := range reqs {
			i := j
			if reverse {
				i = len(reqs) - 1 - j
			}
			got, err := PlanOn(shared, reqs[i])
			if !reflect.DeepEqual(got, cold[i]) || !reflect.DeepEqual(err, coldErrs[i]) {
				t.Fatalf("request %d (reverse %v) on the shared engine:\n got %+v (%v)\nwant %+v (%v)", i, reverse, dump(got), err, dump(cold[i]), coldErrs[i])
			}
		}
	}
	if after := misses(); len(forward) == 0 || !reflect.DeepEqual(after, forward) {
		t.Fatalf("memo misses after the forward pass %v, after the reverse pass %v; the reverse pass should hit every entry", forward, after)
	}
}

// TestPlanOneUnresolvableProfiles: planOne derives its stage table once per
// candidate, and must still not ask for it before a memory fit resolves.
// At an odd D no Chimera schedule exists, so no B has a fit and the
// candidate reports nothing — as the reference does — even though 48
// layers do not split into 5 stages either: partitioning earlier would
// turn a silently skipped candidate into an error.
func TestPlanOneUnresolvableProfiles(t *testing.T) {
	req := PlanRequest{
		Model: model.BERT48(), P: 15, MiniBatch: 192, MaxB: 64,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
	}
	const w, d = 3, 5
	if _, err := req.Model.Partition(d); err == nil {
		t.Fatal("test premise: the model must not partition at this depth")
	}
	e := engine.New(engine.Workers(1))
	if err := (schedule.ChimeraConfig{D: d, N: req.MiniBatch / w}).Validate(); err == nil {
		t.Fatal("test premise: Chimera must reject this depth")
	}
	want, werr := twoPassPlanOne(e, req, w, d, "", nil)
	got, gerr := planOne(e, req, w, d, "", nil)
	if want != nil || werr != nil {
		t.Fatalf("reference reported (%+v, %v), want nothing", want, werr)
	}
	if got != nil || gerr != nil {
		t.Fatalf("planOne reported (%+v, %v), reference nothing", got, gerr)
	}
}
