package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"chimera/internal/engine"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/serve"
	"chimera/internal/sim"
)

// planCase is one committed plan problem: the wire request, the digest of
// the response an independent reference engine produced for it, and the two
// work measures the homogeneity filter selected it by.
type planCase struct {
	ID      string            `json:"id"`
	Request serve.PlanRequest `json:"request"`
	Digest  string            `json:"digest"`
	// VisitedOps sums the op counts of every schedule a cold plan builds
	// (the greedy B search visits schedules it then rejects for memory);
	// ChosenOps sums them over the candidates that reach the ranking, which
	// is what a warm plan replays.
	VisitedOps int `json:"visited_ops"`
	ChosenOps  int `json:"chosen_ops"`

	resolved perfmodel.PlanRequest
}

// planGrid is the candidate set the request list is filtered from: inline
// model dimensions × P × B̂ × both calibrated platforms.
func planGrid() []serve.PlanRequest {
	var out []serve.PlanRequest
	shapes := []struct{ hidden, heads, seq int }{
		{1024, 16, 128}, {1280, 20, 512}, {1536, 16, 1024}, {2048, 32, 256}, {2560, 32, 512},
	}
	for _, layers := range []int{24, 32, 48, 64, 96} {
		for _, sh := range shapes {
			for _, p := range []int{8, 16, 32, 64, 128} {
				for _, bhat := range []int{128, 256, 512, 1024} {
					for _, platform := range []string{"pizdaint", "v100"} {
						out = append(out, serve.PlanRequest{
							Model: serve.ModelRef{
								Name:   fmt.Sprintf("bench-l%d-h%d-s%d", layers, sh.hidden, sh.seq),
								Layers: layers, Hidden: sh.hidden, Heads: sh.heads, Vocab: 50257, SeqLen: sh.seq,
							},
							P: p, MiniBatch: bhat,
							Platform: serve.PlatformRef{Preset: platform},
						})
					}
				}
			}
		}
	}
	return out
}

// Homogeneity bands. A case is kept when both work measures fall inside
// their band, so neither the cold nor the warm round has an op that costs
// more than a few times the cheapest: the p95 then sits inside one cost
// mode and no single op can approach 2 % of a round.
const (
	visitedOpsMin, visitedOpsMax = 10000, 23000
	chosenOpsMin, chosenOpsMax   = 1500, 12000
	// planCasesMax caps the list; the filter keeps the first that many in
	// grid order.
	planCasesMax = 200
)

// homogeneous applies the bands to a candidate list.
func homogeneous(cases []planCase) []planCase {
	var out []planCase
	for _, c := range cases {
		if c.VisitedOps < visitedOpsMin || c.VisitedOps > visitedOpsMax {
			continue
		}
		if c.ChosenOps < chosenOpsMin || c.ChosenOps > chosenOpsMax {
			continue
		}
		if out = append(out, c); len(out) == planCasesMax {
			break
		}
	}
	return out
}

// planCandidates is PlanOn's (W, D) grid: every even depth that divides the
// workers and the layers and leaves a whole per-pipeline mini-batch.
func planCandidates(req perfmodel.PlanRequest) []int {
	var ds []int
	for d := 2; d <= req.P; d += 2 {
		if req.P%d == 0 && req.Model.Layers%d == 0 && req.MiniBatch%(req.P/d) == 0 {
			ds = append(ds, d)
		}
	}
	return ds
}

// planWork tallies what one traced plan touched.
type planWork struct {
	visitedOps, chosenOps int
	candidates            int
	// chosen lists the schedules whose predictions reached the ranking; the
	// traced pass replays them after the op to price the two replays hidden
	// inside PredictWithCritical.
	chosen []*schedule.Schedule
}

// planTraced is perfmodel.PlanOn rebuilt from the layers' exported calls so
// that each call can carry a span: the same candidate grid fanned over the
// engine pool, the same greedy max-B search per candidate, the same ranking
// order. It handles what the benchmark's requests use — fixed placement, no
// speed factors — and its ranking is checked against the same golden digest
// as PlanOn's, so a drift between the two shows as an incorrect op.
//
// cold says the engine was reset before the op: every schedule and
// critical-path lookup is then a build, and the graph compile is split out
// by forcing it before the critical-path probe. On a primed engine the same lookups
// are memo hits and no build or compile span is recorded.
func planTraced(tr *tracer, op int, e *engine.Engine, req perfmodel.PlanRequest, cold bool) ([]*perfmodel.Prediction, planWork, error) {
	root := tr.begin("perfmodel.plan", op, noParent)
	ds := planCandidates(req)
	preds := make([]*perfmodel.Prediction, len(ds))
	errs := make([]error, len(ds))
	works := make([]planWork, len(ds))
	e.ForEach(len(ds), func(i int) {
		preds[i], errs[i] = planOneTraced(tr, op, root, e, req, ds[i], cold, &works[i])
	})
	var out []*perfmodel.Prediction
	var work planWork
	for i, p := range preds {
		work.visitedOps += works[i].visitedOps
		if errs[i] != nil || p == nil {
			continue
		}
		out = append(out, p)
		work.chosenOps += works[i].chosenOps
		work.chosen = append(work.chosen, works[i].chosen...)
	}
	work.candidates = len(out)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Throughput != b.Throughput {
			return a.Throughput > b.Throughput
		}
		if a.D != b.D {
			return a.D < b.D
		}
		return a.B > b.B
	})
	tr.end(root)
	if len(out) == 0 {
		return nil, work, fmt.Errorf("bench: no feasible configuration for P=%d B̂=%d", req.P, req.MiniBatch)
	}
	return out, work, nil
}

func planOneTraced(tr *tracer, op, parent int, e *engine.Engine, req perfmodel.PlanRequest, d int, cold bool, work *planWork) (*perfmodel.Prediction, error) {
	w := req.P / d
	perPipe := req.MiniBatch / w
	for _, allowRecompute := range []bool{false, true} {
		// A reset engine builds each schedule on the first sweep over B; the
		// recompute sweep revisits the same keys and finds them cached.
		lookup := "engine.memo_hit"
		if cold && !allowRecompute {
			lookup = "schedule.build"
		}
		for b := req.MaxB; b >= 1; b /= 2 {
			if perPipe%b != 0 {
				continue
			}
			key := engine.ChimeraKey(d, perPipe/b, 0, schedule.Direct)
			sp := tr.begin(lookup, op, parent)
			sch, err := e.Schedule(key)
			tr.end(sp)
			if err != nil {
				continue
			}
			if !allowRecompute {
				work.visitedOps += sch.OpsTotal()
			}
			cfg := sim.Config{Model: req.Model, Schedule: sch, MicroBatch: b, W: w, Device: req.Device, Network: req.Network}
			sp = tr.begin("sim.fits_memory", op, parent)
			plain, withRec, err := sim.FitsMemory(cfg)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if !plain && !(allowRecompute && withRec) {
				continue
			}
			cfg.Recompute = !plain
			critical := "engine.memo_hit"
			if cold {
				// PlanOn compiles a schedule's graph lazily, inside its first
				// critical-path probe; forcing it here splits the two costs.
				sp = tr.begin("schedule.compile", op, parent)
				_, err = sch.Graph()
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				critical = "schedule.critical_path"
			}
			sp = tr.begin(critical, op, parent)
			cf, cb, err := e.CriticalPath(key)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			sp = tr.begin("perfmodel.predict", op, parent)
			pred, err := perfmodel.PredictWithCritical(cfg, cf, cb)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			work.chosenOps += sch.OpsTotal()
			work.chosen = append(work.chosen, sch)
			return pred, nil
		}
	}
	return nil, nil
}

// unitReplay is the cost shape PredictWithCritical replays under: a closure
// doing a little float arithmetic per op and a constant edge cost.
var unitReplay = schedule.ReplayConfig{
	OpCost: func(w int, op schedule.Op) int64 {
		c := 1000.0 * float64(len(op.Micros))
		if op.Kind == schedule.Backward {
			c *= 2
		}
		return int64(c)
	},
	EdgeCost: func(schedule.Op) int64 { return 10 },
}

// shadowReplay names the spans shadowReplays records.
const shadowReplay = "shadow.replay"

// shadowReplays prices the replays PredictWithCritical ran inside an op by
// running the same count — two per ranked candidate — on the same compiled
// graphs right after it. They are recorded under the op's id but outside
// its interval, so they never count towards its latency.
func shadowReplays(tr *tracer, op int, chosen []*schedule.Schedule) {
	for _, sch := range chosen {
		g, err := sch.Graph()
		if err != nil {
			continue
		}
		for range 2 {
			sp := tr.begin(shadowReplay, op, noParent)
			g.ReplayWith(unitReplay).Release()
			tr.end(sp)
		}
	}
}

// planWorkload is plan_cold (reset before every op) or plan_warm (primed
// once per round). Both run the same request list in the same seeded order.
type planWorkload struct {
	cold  bool
	cases []planCase
	order []int // one round's op sequence: indices into cases
}

// planPasses is how many seeded permutations of the request list make one
// round; sized so a round is about a second of timed work.
const (
	planColdPasses = 1
	planWarmPasses = 4
)

func newPlanWorkload(cold bool, seed int64) (*planWorkload, error) {
	cases, err := loadPlanCases()
	if err != nil {
		return nil, err
	}
	passes := planWarmPasses
	if cold {
		passes = planColdPasses
	}
	rng := rand.New(rand.NewSource(seed))
	var order []int
	for range passes {
		order = append(order, rng.Perm(len(cases))...)
	}
	return &planWorkload{cold: cold, cases: cases, order: order}, nil
}

func (w *planWorkload) name() string {
	if w.cold {
		return "plan_cold"
	}
	return "plan_warm"
}

// keys: an op's work is its request. A cold op always meets a just-reset
// engine and a warm op one that holds everything the request needs, so every
// plan of one request, in any pass of any round, repeats the same work.
func (w *planWorkload) keys() []int { return w.order }

type planRound struct {
	w *planWorkload
	e *engine.Engine
	t *tracer
}

// setup builds a fresh engine and plans the whole list once. On plan_warm
// that pass is what fills the schedule, graph and critical-path caches the
// timed ops read; on plan_cold every op resets the engine again, and the pass
// only warms what a reset keeps — the process-wide replay arenas — which a
// fresh daemon's first request would otherwise pay for once.
//
// The engine's pool is one worker: a plan's candidates are evaluated on the
// caller's thread, one after the other, and the op's time is the work it
// does. With a pool of two on the sandbox's two shared cores an op waited for
// the host to run the second thread, and its time followed the host.
func (w *planWorkload) setup(tr *tracer) (round, error) {
	e := engine.New(engine.Workers(1))
	for i := range w.cases {
		if _, err := perfmodel.PlanOn(e, w.cases[i].resolved); err != nil {
			return nil, fmt.Errorf("priming %s: %w", w.cases[i].ID, err)
		}
	}
	return &planRound{w: w, e: e, t: tr}, nil
}

func (r *planRound) close() {}

func (r *planRound) do(i int) (time.Time, time.Time, bool) {
	c := &r.w.cases[r.w.order[i]]
	if r.w.cold {
		r.e.Reset()
	}
	var preds []*perfmodel.Prediction
	var err error
	var end time.Time
	begin := time.Now()
	if t := r.t.forOp(i); t == nil {
		preds, err = perfmodel.PlanOn(r.e, c.resolved)
		end = time.Now()
	} else {
		var work planWork
		preds, work, err = planTraced(t, i, r.e, c.resolved, r.w.cold)
		end = time.Now()
		shadowReplays(t, i, work.chosen)
	}
	return begin, end, err == nil && planDigest(c.resolved, preds) == c.Digest
}

// settle leaves a plan_cold engine holding one cold plan of the list's first
// request, whatever request the seeded order ended on: heap_live_mb is then
// what one cold plan keeps alive, the same plan on every seed.
func (r *planRound) settle() {
	if r.w.cold {
		r.e.Reset()
		_, _ = perfmodel.PlanOn(r.e, r.w.cases[0].resolved) // planned without error in set-up
	}
}

// counters reports the engine's exact cache counts for the round.
func (r *planRound) counters() map[string]float64 {
	st := r.e.Stats()
	share := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	}
	return map[string]float64{
		"engine.schedule_hit_share": share(st.ScheduleHits, st.ScheduleMisses),
		"engine.critical_hit_share": share(st.CriticalHits, st.CriticalMisses),
	}
}
