package perfmodel

import (
	"reflect"
	"sort"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/refinterp"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// closurePerNodePredict is PredictWithCritical as it stood before per-shape
// pricing: both replays call the cost closures once per node (here through
// the reference interpreter), compute-end is a full scan of the timeline and
// grad-ready a map filled by a walk of every op. It survives only here, as
// the reference the read-out path is checked against. One deliberate
// difference: the old body summed a worker's unoverlapped costs in map
// iteration order, which made a sum of more than two terms vary from call
// to call; the copy sums in (stage, replica) order.
func closurePerNodePredict(cfg sim.Config, cf, cb int) (*Prediction, error) {
	s := cfg.Schedule
	if err := cfg.Model.CheckDepth(s.D); err != nil {
		return nil, err
	}
	stages := make([]model.Stage, s.D) // the oracle's own table
	for i := range stages {
		stages[i] = cfg.Model.Stage(i, s.D)
	}
	b := float64(cfg.MicroBatch)
	rate := cfg.Device.PeakFLOPS * cfg.Device.Efficiency(b)
	btMult := 2.0
	if cfg.Recompute {
		btMult = 3.0
	}
	const quantum = 1e-9
	ftOf := func(stage int) float64 { return float64(stages[stage].FwdFLOPs(1)) * b / rate }
	factor := func(w int) float64 {
		if len(cfg.SpeedFactors) == 0 {
			return 1
		}
		return cfg.SpeedFactors[w]
	}
	tlC, err := refinterp.ReplayWith(s, schedule.ReplayConfig{
		OpCost: func(w int, op schedule.Op) int64 {
			c := ftOf(op.Stage) * float64(len(op.Micros))
			if op.Kind == schedule.Backward {
				c = btMult * ftOf(op.Stage) * float64(len(op.Micros))
				if op.Half != 0 {
					c /= 2
				}
			}
			return int64(factor(w) * c / quantum)
		},
		EdgeCost: func(schedule.Op) int64 { return 0 },
	})
	if err != nil {
		return nil, err
	}
	var meanFLOPs float64
	for _, st := range stages {
		meanFLOPs += float64(st.FwdFLOPs(1))
	}
	meanFLOPs /= float64(len(stages))
	ft := meanFLOPs * b / rate
	p2p := cfg.Network.P2PCost(cfg.Model.BoundaryBytes(cfg.MicroBatch))
	compute := float64(tlC.Makespan)*quantum + p2p*float64(cf+cb)

	unitCM := schedule.CostModel{FUnit: 1000, BUnit: int64(1000 * btMult)}
	tl, err := refinterp.ReplayWith(s, schedule.ReplayConfig{
		OpCost: func(w int, op schedule.Op) int64 {
			return int64(factor(w) * float64(unitCM.Cost(op)))
		},
		EdgeCost: func(schedule.Op) int64 { return unitCM.P2P },
	})
	if err != nil {
		return nil, err
	}
	scale := ft / 1000
	r := len(s.Replicas) * cfg.W
	var unoverlapped float64
	for w, ops := range s.Workers {
		var end int64
		ready := map[schedule.StagePlacement]int64{}
		for i, op := range ops {
			if tl.End[w][i] > end {
				end = tl.End[w][i]
			}
			if op.Kind != schedule.Backward {
				continue
			}
			key := schedule.StagePlacement{Replica: op.Replica, Stage: op.Stage}
			if tl.End[w][i] > ready[key] {
				ready[key] = tl.End[w][i]
			}
		}
		keys := make([]schedule.StagePlacement, 0, len(ready))
		for pl := range ready {
			keys = append(keys, pl)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Stage != keys[j].Stage {
				return keys[i].Stage < keys[j].Stage
			}
			return keys[i].Replica < keys[j].Replica
		})
		var u float64
		for _, pl := range keys {
			cost := cfg.Network.AllReduceCost(cfg.Allreduce, r, stages[pl.Stage].Params()*4)
			slack := float64(end-ready[pl]) * scale
			if slack >= 0.25*cost {
				if cost > slack {
					u += cost - slack
				}
			} else {
				u += cost
			}
		}
		if u > unoverlapped {
			unoverlapped = u
		}
	}
	t := compute + unoverlapped
	return &Prediction{
		W: cfg.W, D: s.D, B: cfg.MicroBatch, N: s.N, Recompute: cfg.Recompute,
		Cf: cf, Cb: cb, IterTime: t,
		Throughput: float64(cfg.MicroBatch*s.N*cfg.W) / t,
	}, nil
}

// assertPredictMatchesOracle compares PredictWithCritical to the closure-
// per-node reference on cfg, plain and with recomputation.
func assertPredictMatchesOracle(t *testing.T, name string, cfg sim.Config) {
	t.Helper()
	cf, cb, err := schedule.CriticalPath(cfg.Schedule)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, rec := range []bool{false, true} {
		cfg.Recompute = rec
		got, err := PredictWithCritical(cfg, cf, cb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := closurePerNodePredict(cfg, cf, cb)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s recompute=%v:\n got %+v\nwant %+v", name, rec, *got, *want)
		}
	}
}

// TestPredictMatchesClosurePerNode is equivalence test (c) of the per-shape
// kernel: every configuration the planner ranks for the oracle request set
// (a stride through the benchmark grid, heterogeneous requests sweeping
// every placement policy) predicts bit-identically to the closure-per-node
// reference, plain and with recomputation — as do heterogeneous fixed
// placements and the forward-doubling and backward-halving schedules the
// planner never picks.
func TestPredictMatchesClosurePerNode(t *testing.T) {
	reqs := oracleRequests()
	if testing.Short() {
		reqs = reqs[len(reqs)-20:]
	}
	e := engine.New(engine.Workers(1))
	checked, listPlaced := 0, 0
	for i, req := range reqs {
		preds, err := PlanOn(e, req)
		if err != nil {
			continue // infeasible or malformed requests rank nothing
		}
		factors, err := sim.DecodeSpeedFactors(req.SpeedFactors)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range preds {
			key := engine.ChimeraKey(p.D, p.N, 0, schedule.Direct)
			if p.Scheduler != "" {
				key.Scheduler, key.Speed = p.Scheduler, req.SpeedFactors
				listPlaced++
			}
			sch, err := e.Schedule(key)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			assertPredictMatchesOracle(t, req.Model.Name, sim.Config{
				Model: req.Model, Schedule: sch, MicroBatch: p.B, W: p.W, SpeedFactors: factors,
				Device: req.Device, Network: req.Network,
			})
			checked++
		}
	}
	if listPlaced == 0 {
		t.Fatal("request set lost its list-placed coverage")
	}
	for _, c := range []schedule.ChimeraConfig{
		{D: 4, N: 8, Concat: schedule.ForwardDoubling},
		{D: 4, N: 8, Concat: schedule.BackwardHalving},
		{D: 8, N: 24, Concat: schedule.ForwardDoubling}, // odd residual unit
		{D: 8, N: 16, Concat: schedule.BackwardHalving},
		{D: 8, N: 16, F: 2, Concat: schedule.ForwardDoubling},
		{D: 8, N: 16, F: 4},
	} {
		s, err := schedule.Chimera(c)
		if err != nil {
			t.Fatal(err)
		}
		graded := []float64{1, 1.25, 1.5, 1.75, 1, 2, 1, 1}[:c.D]
		for _, factors := range [][]float64{nil, graded} {
			assertPredictMatchesOracle(t, "variant", sim.Config{
				Model: model.BERT48(), Schedule: s, MicroBatch: 4, W: 2, SpeedFactors: factors,
				Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
			})
			checked++
		}
	}
	t.Logf("%d configurations (%d list-placed) × {plain, recompute} equal the closure-per-node reference", checked, listPlaced)
}

// TestPredictDeterministic: with more than two placements per worker
// (f > 1) the unoverlapped allreduce cost is a float sum of more than two
// terms, and must not depend on the order a map happens to iterate in.
func TestPredictDeterministic(t *testing.T) {
	for _, f := range []int{2, 4} {
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: 8, N: 16, F: f})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{
			Model: model.BERT48(), Schedule: s, MicroBatch: 4, W: 4,
			Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
		}
		seen := map[float64]int{}
		for i := 0; i < 2000; i++ {
			p, err := Predict(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seen[p.IterTime]++
		}
		if len(seen) != 1 {
			t.Fatalf("F=%d: 2000 predictions of one configuration returned %d distinct IterTime values: %v", f, len(seen), seen)
		}
	}
}
