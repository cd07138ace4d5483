// Package perfmodel implements the paper's §3.4 performance model and the
// configuration selection it drives:
//
//	T = (Ft + Comm_p2p)·Cf + (Bt + Comm_p2p)·Cb + max_i Comm_unoverlapped(i)
//
// where Cf and Cb are the number of forward and backward passes on the
// pipeline's critical path, Ft/Bt come from micro-benchmarks (here: the
// simulator's calibrated compute model), p2p uses the α-β cost, and
// allreduce uses Rabenseifner's cost with the eager-overlap accounting of
// §3.2. Because Chimera greatly alleviates the bubble problem, the planner
// greedily picks the maximum micro-batch size B that fits device memory and
// uses the model only to choose (W, D) — the paper's reduced tuning space.
//
// PlanBatchOn fans the (W, D) candidates out over the shared
// internal/engine worker pool and reuses its memoized critical paths; the
// fixed placement's memory fit is closed-form (sim.ChimeraFit), and for a
// homogeneous candidate so are Eq. 1's compute term and free regions, so a
// plan builds and replays no schedule. The ranking is deterministic and
// identical whether the engine runs on one worker or many.
package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// Prediction is the model's estimate for one configuration. Its json tags
// are its wire shape: /v1/plan rows and fleet plans encode it directly.
type Prediction struct {
	W         int     `json:"w"`
	D         int     `json:"d"`
	B         int     `json:"b"`
	N         int     `json:"n"`
	Recompute bool    `json:"recompute"`
	Cf        int     `json:"cf"`
	Cb        int     `json:"cb"`
	IterTime  float64 `json:"iter_time"`
	// Throughput is sequences per second (the ranking key).
	Throughput float64 `json:"throughput"`
	// Scheduler is the placement policy behind the prediction: "" for the
	// scheme's fixed placement, otherwise a schedule.Schedulers() name.
	// Omitted when empty, so fixed-placement rows keep their pre-policy
	// encoding.
	Scheduler string `json:"scheduler,omitempty"`
}

// Predict evaluates Eq. 1 for a Chimera configuration. It accepts, rejects
// and defaults cfg exactly as sim.Run does.
func Predict(cfg sim.Config) (*Prediction, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cf, cb, err := schedule.CriticalPath(cfg.Schedule)
	if err != nil {
		return nil, err
	}
	return predictBuilt(cfg, cf, cb)
}

// PredictWithCritical evaluates Eq. 1 with precomputed critical-path counts
// (Cf, Cb). The counts depend only on the schedule's dependency structure,
// so callers sweeping many configurations over shared schedules (the
// planner, the experiment grids) obtain them once from the engine's memo
// instead of re-probing per configuration.
func PredictWithCritical(cfg sim.Config, cf, cb int) (*Prediction, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return predictBuilt(cfg, cf, cb)
}

// predictBuilt is Eq. 1 over the full replay of cfg.Schedule, validated by
// the caller.
func predictBuilt(cfg sim.Config, cf, cb int) (*Prediction, error) {
	s := cfg.Schedule
	return predict(cfg, &replayed{n: s.N, replicas: len(s.Replicas), built: s}, s.D, cf, cb)
}

// replayed is what Eq. 1 reads of a schedule: its micro-batch and replica
// counts, and its read-outs under a cost model — replayed on the built
// schedule itself, or on the engine's graph for its key, which the engine
// builds only when a term has no closed form.
type replayed struct {
	n, replicas int
	built       *schedule.Schedule
	e           *engine.Engine
	key         engine.ScheduleKey
}

// readout calls both replays statically so that rc's closures stay on the
// caller's stack.
func (s *replayed) readout(rc schedule.ReplayConfig) (*schedule.Readout, error) {
	if s.built != nil {
		return s.built.Readout(rc)
	}
	g, err := s.e.Graph(s.key)
	if err != nil {
		return nil, err
	}
	return g.Readout(rc), nil
}

// freeRegions is the schedule's replay under cm with worker w's op costs
// scaled by factors[w] (none: 1), read as free regions. With every factor 1
// an engine-backed key is the fixed placement (the planner's keys are
// Chimera's, and a list policy defers to it on a homogeneous cluster), so
// schedule.ChimeraConfig.FreeRegions answers in closed form where it has
// one; a built schedule, any other factors and any other key replay.
func (s *replayed) freeRegions(cm schedule.CostModel, factors []float64) (schedule.FreeRegions, error) {
	if s.built == nil && !slices.ContainsFunc(factors, func(f float64) bool { return f != 1 }) {
		cfg := schedule.ChimeraConfig{D: s.key.D, N: s.key.N, F: s.key.F, Concat: s.key.Concat}
		if f, ok, err := cfg.FreeRegions(cm); ok || err != nil {
			return f, err
		}
	}
	ro, err := s.readout(schedule.ReplayConfig{
		OpCost: func(w int, op schedule.Op) int64 {
			f := 1.0
			if len(factors) != 0 {
				f = factors[w]
			}
			return int64(f * float64(cm.Cost(op)))
		},
		EdgeCost: func(schedule.Op) int64 { return cm.P2P },
	})
	if err != nil {
		return schedule.FreeRegions{}, err
	}
	defer ro.Release()
	return ro.FreeRegions(), nil
}

// oneMicro is the micro-batch list of a probe op: computeMakespan prices a
// direct schedule's ops, which carry one micro-batch each.
var oneMicro = []int{0}

// computeMakespan is the replay of the schedule's d stages under opCost with
// no p2p latency, read as its makespan: Eq. 1's compute term. With every
// factor 1 an engine-backed key is the fixed placement (as for
// freeRegions), and with equalBody — stages 0 … d−2 of equal FLOPs — opCost
// prices its ops by kind and by body or head stage alone, so
// schedule.ChimeraConfig.ComputeMakespan answers in closed form where it
// has one, from the four costs opCost itself gives a body and a head op; a
// built schedule, any other factors, any other key and costs outside the
// form's cone replay.
func (s *replayed) computeMakespan(opCost func(int, schedule.Op) int64, d int, equalBody bool, factors []float64) (int64, error) {
	if s.built == nil && equalBody && !slices.ContainsFunc(factors, func(f float64) bool { return f != 1 }) {
		cfg := schedule.ChimeraConfig{D: s.key.D, N: s.key.N, F: s.key.F, Concat: s.key.Concat}
		c := schedule.ComputeCosts{
			F:     opCost(0, schedule.Op{Kind: schedule.Forward, Stage: 0, Micros: oneMicro}),
			B:     opCost(0, schedule.Op{Kind: schedule.Backward, Stage: 0, Micros: oneMicro}),
			HeadF: opCost(0, schedule.Op{Kind: schedule.Forward, Stage: d - 1, Micros: oneMicro}),
			HeadB: opCost(0, schedule.Op{Kind: schedule.Backward, Stage: d - 1, Micros: oneMicro}),
		}
		if m, ok, err := cfg.ComputeMakespan(c); ok || err != nil {
			return m, err
		}
	}
	ro, err := s.readout(schedule.ReplayConfig{OpCost: opCost, EdgeCost: func(schedule.Op) int64 { return 0 }})
	if err != nil {
		return 0, err
	}
	defer ro.Release()
	return ro.Makespan(), nil
}

// predict is Eq. 1 over cfg.Model split into d stages, a depth it splits
// into, and the caller's replay of the schedule; it reads nothing of
// cfg.Schedule.
func predict(cfg sim.Config, s *replayed, d, cf, cb int) (*Prediction, error) {
	// Micro-benchmarked Ft per stage (the embedding and head stages are
	// heavier than the repeated middle stages; at extreme depths — one
	// layer per stage — the head becomes the pipeline's rate limiter, so a
	// single average Ft misrepresents the critical path). The compute term
	// (Ft·Cf + Bt·Cb) is the makespan of the schedule under the per-stage
	// costs and no communication: for a homogeneous Chimera candidate a
	// closed form, the largest of a few path families' costs, otherwise a
	// replay of the dependency structure. The p2p term keeps Eq. 1's
	// (Cf+Cb)·Comm_p2p form.
	b := float64(cfg.MicroBatch)
	rate := cfg.Device.PeakFLOPS * cfg.Device.Efficiency(b)
	btMult := 2.0
	if cfg.Recompute {
		btMult = 3.0
	}
	const quantum = 1e-9
	ftOf := func(stage int) float64 { return float64(cfg.Model.Stage(stage, d).FwdFLOPs(1)) * b / rate }
	// factor(w) is the heterogeneous-cluster seam: per-worker compute-time
	// multipliers (1 when the cluster is homogeneous; ×1.0 is exact, so the
	// homogeneous prediction is bit-identical to the factor-free one).
	factor := func(w int) float64 {
		if len(cfg.SpeedFactors) == 0 {
			return 1
		}
		return cfg.SpeedFactors[w]
	}
	var meanFLOPs float64
	equalBody, body := true, cfg.Model.Stage(0, d).FwdFLOPs(1) // stages 0 … D−2 carry equal FLOPs
	for i := range d {
		fl := cfg.Model.Stage(i, d).FwdFLOPs(1)
		meanFLOPs += float64(fl)
		equalBody = equalBody && (i == d-1 || fl == body)
	}
	meanFLOPs /= float64(d)
	makespan, err := s.computeMakespan(func(w int, op schedule.Op) int64 {
		c := ftOf(op.Stage) * float64(len(op.Micros))
		if op.Kind == schedule.Backward {
			c = btMult * ftOf(op.Stage) * float64(len(op.Micros))
			if op.Half != 0 {
				c /= 2
			}
		}
		return int64(factor(w) * c / quantum)
	}, d, equalBody, cfg.SpeedFactors)
	if err != nil {
		return nil, err
	}
	ft := meanFLOPs * b / rate
	p2p := cfg.Network.P2PCost(cfg.Model.BoundaryBytes(cfg.MicroBatch))
	compute := float64(makespan)*quantum + p2p*float64(cf+cb)

	// Unoverlapped gradient synchronization: per worker, allreduce costs
	// exceeding the free region between gradient completion and the end of
	// local compute (§3.4, Fig. 6), read off a unit-cost replay or its
	// closed form. Per-worker speed factors scale its unit costs so a
	// straggler's gradients complete late.
	free, err := s.freeRegions(schedule.CostModel{FUnit: 1000, BUnit: int64(1000 * btMult)}, cfg.SpeedFactors)
	if err != nil {
		return nil, err
	}
	scale := ft / 1000 // seconds per replay unit
	r := s.replicas * cfg.W
	// A stage's allreduce prices its parameters alone, and every stage has
	// the same layers: the embedding stage 0, the middle stages and the head
	// stage D−1 take three costs, each computed once.
	allreduce := func(stage int) float64 {
		return cfg.Network.AllReduceCost(cfg.Allreduce, r, cfg.Model.Stage(stage, d).Params()*4)
	}
	costs := [3]float64{allreduce(0), 0, allreduce(d - 1)}
	if d > 2 {
		costs[1] = allreduce(1)
	}
	var unoverlapped float64
	var regions [2]schedule.FreeRegion // a Chimera worker's two placements
	for w := range d {
		// Placements arrive ordered by (stage, replica): the float sum below
		// does not commute, so a fixed order is what makes the prediction a
		// function of its inputs.
		var u float64
		for _, fr := range free.AppendWorker(regions[:0], w) {
			class := min(int(fr.Stage), 1)
			if int(fr.Stage) == d-1 {
				class = 2
			}
			cost := costs[class]
			slack := float64(fr.Slack) * scale
			// Mirror the eager-sync-opt semantics: a stage with a
			// meaningful free region launches eagerly and only its spill
			// remains; middle stages pay the full cost after compute.
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
		W: cfg.W, D: d, B: cfg.MicroBatch, N: s.n, Recompute: cfg.Recompute,
		Cf: cf, Cb: cb, IterTime: t,
		Throughput: float64(cfg.MicroBatch*s.n*cfg.W) / t,
	}, nil
}

// PlanRequest describes a configuration-selection problem: P workers, a
// target mini-batch size, and the platform.
type PlanRequest struct {
	Model     model.Config
	P         int // total workers = W·D
	MiniBatch int // B̂
	Device    sim.Device
	Network   sim.Network
	// MaxB caps the greedy micro-batch search (power-of-two sweep).
	MaxB int
	// SpeedFactors describes a heterogeneous pipeline in
	// sim.EncodeSpeedFactors' canonical string form ("" = homogeneous):
	// factor i is the compute-time multiplier of the worker hosting pipeline
	// position i. PlanRequest doubles as chimera-serve's plan-cache key, so
	// it must stay a comparable value type — hence the string, not a slice.
	// When set, the search is restricted to configurations whose pipeline
	// depth D equals the factor count (the factors describe those workers).
	SpeedFactors string
	// Scheduler selects the placement-policy axis of the search: "" or
	// "fixed" plans the scheme's own placement only; a schedule.Schedulers()
	// name plans that policy; "auto" sweeps fixed plus every list policy and
	// lets the ranking decide. With homogeneous (or absent) speed factors
	// every list policy defers to the fixed placement, so the search
	// collapses to fixed and predictions are bit-identical to pre-policy
	// plans.
	Scheduler string
}

// ErrInfeasible reports that a plan request admits no feasible (W, D, B)
// configuration at all — every candidate fails divisibility or memory.
// Callers searching over worker counts (the fleet allocator) match it with
// errors.Is to distinguish "this P cannot host the job" from a real error.
var ErrInfeasible = errors.New("no feasible configuration")

// PlanOn enumerates feasible (W, D, B) Chimera configurations for the
// request and returns them ranked by predicted throughput (best first). For
// each (W, D) it greedily selects the maximum power-of-two micro-batch size
// that fits device memory (with recomputation as fallback), the paper's §3.4
// strategy. Candidates are evaluated concurrently on e, whose pool size and
// caches the caller controls. The returned ranking is deterministic:
// throughput descending, with ties broken by smaller D then larger B.
func PlanOn(e *engine.Engine, req PlanRequest) ([]*Prediction, error) {
	preds, errs := PlanBatchOn(e, []PlanRequest{req})
	return preds[0], errs[0]
}

// PlanBatchOn plans every request in one engine fan-out: the (W, D, policy)
// candidate grids of all requests are concatenated and evaluated as a single
// sweep over the worker pool, so a batch of N plans costs one pool traversal
// (and co-scheduled candidates share the engine's schedule/critical-path
// memos within the same pass) instead of N sequential fan-outs. Results and
// errors are positional: preds[i]/errs[i] belong to reqs[i], and each is
// identical to what PlanOn would return for that request alone — PlanOn is
// this function at batch size one.
func PlanBatchOn(e *engine.Engine, reqs []PlanRequest) ([][]*Prediction, []error) {
	return planBatch(e, reqs, planOne)
}

// candidateSearch is planOne's shape: the greedy max-B search at one
// (W, D, scheduler) candidate.
type candidateSearch func(e *engine.Engine, req PlanRequest, w, d int, sched string, factors []float64) (*Prediction, error)

// planBatch is PlanBatchOn over a given per-candidate search; the seam lets
// the equivalence suite run the same grid and ranking over its reference
// search.
func planBatch(e *engine.Engine, reqs []PlanRequest, one candidateSearch) ([][]*Prediction, []error) {
	type candidate struct {
		req   int // index into reqs
		d     int
		sched string
	}
	outPreds := make([][]*Prediction, len(reqs))
	outErrs := make([]error, len(reqs))
	factorsOf := make([][]float64, len(reqs))
	// Normalize into a private copy: the MaxB and platform defaults must
	// reach planOne without mutating the caller's slice. The platform's are
	// the simulator's own, which the memory fit applies anyway; Eq. 1 needs
	// them too.
	norm := make([]PlanRequest, len(reqs))
	copy(norm, reqs)
	reqs = norm
	var cands []candidate
	for ri := range reqs {
		req := &reqs[ri]
		if req.MaxB == 0 {
			req.MaxB = 64
		}
		req.Device, req.Network = sim.DefaultPlatform(req.Device, req.Network)
		factors, err := sim.DecodeSpeedFactors(req.SpeedFactors)
		if err != nil {
			outErrs[ri] = fmt.Errorf("perfmodel: %w", err)
			continue
		}
		scheds, err := plannerSchedulers(req.Scheduler, factors)
		if err != nil {
			outErrs[ri] = fmt.Errorf("perfmodel: %w", err)
			continue
		}
		factorsOf[ri] = factors
		grid(req.Model.Layers, req.MiniBatch, req.P, func(p, d int) {
			// The factors name the workers of one pipeline; only depths that
			// match describe the cluster being planned for.
			if p != req.P || (len(factors) != 0 && d != len(factors)) {
				return
			}
			for _, sched := range scheds {
				cands = append(cands, candidate{ri, d, sched})
			}
		})
	}
	preds := make([]*Prediction, len(cands))
	errs := make([]error, len(cands))
	e.ForEach(len(cands), func(i int) {
		c := cands[i]
		req := reqs[c.req]
		preds[i], errs[i] = one(e, req, req.P/c.d, c.d, c.sched, factorsOf[c.req])
	})
	for i, p := range preds {
		if errs[i] != nil || p == nil {
			continue
		}
		outPreds[cands[i].req] = append(outPreds[cands[i].req], p)
	}
	for ri := range reqs {
		if outErrs[ri] != nil {
			continue
		}
		out := outPreds[ri]
		if len(out) == 0 {
			outPreds[ri] = nil
			outErrs[ri] = fmt.Errorf("perfmodel: %w for P=%d B̂=%d", ErrInfeasible, reqs[ri].P, reqs[ri].MiniBatch)
			continue
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Throughput != b.Throughput {
				return a.Throughput > b.Throughput
			}
			if a.D != b.D {
				return a.D < b.D
			}
			if a.B != b.B {
				return a.B > b.B
			}
			return a.Scheduler < b.Scheduler // fixed ("") before list policies
		})
	}
	return outPreds, outErrs
}

// grid visits the planner's (P, D) grid up to maxP workers, D ascending:
// W = P/D pipelines of depth D, with D even and dividing the layer count and
// W dividing the mini-batch B̂.
func grid(layers, miniBatch, maxP int, visit func(p, d int)) {
	for d := 2; d <= min(layers, maxP); d += 2 {
		if layers%d != 0 {
			continue
		}
		for w := 1; w <= miniBatch && w*d <= maxP; w++ {
			if miniBatch%w == 0 {
				visit(w*d, d)
			}
		}
	}
}

// Breakpoints lists, ascending, the worker counts P ≤ maxP at which the
// planner's grid holds a candidate. Plan answers every other P with
// ErrInfeasible before building anything, so a job's best throughput can
// only change at these points.
func Breakpoints(layers, miniBatch, maxP int) []int {
	var ps []int
	grid(layers, miniBatch, maxP, func(p, _ int) { ps = append(ps, p) })
	slices.Sort(ps)
	return slices.Compact(ps)
}

// ValidateScheduler checks a planner placement selector (PlanRequest's and
// a fleet cluster's Scheduler): "" or "fixed", a schedule.Schedulers() name,
// or "auto". It is the selector's one check; the planner, the fleet
// allocator and the wire codec all call it.
func ValidateScheduler(name string) error {
	if name == "" || name == "auto" {
		return nil
	}
	if _, err := schedule.SchedulerByName(name); err != nil {
		return fmt.Errorf("unknown scheduler %q (have %s, auto)", name, strings.Join(schedule.Schedulers(), ", "))
	}
	return nil
}

// plannerSchedulers expands a PlanRequest's scheduler selector into the
// placement policies to sweep ("" denotes the fixed placement). With no
// heterogeneity signal in the factors, every list policy defers to the fixed
// placement, so the sweep collapses to fixed alone — planning the aliases
// would only duplicate ranking rows.
func plannerSchedulers(name string, factors []float64) ([]string, error) {
	if err := ValidateScheduler(name); err != nil {
		return nil, err
	}
	if name == "" || name == "fixed" || schedule.UniformSpeed(factors) {
		return []string{""}, nil
	}
	if name != "auto" {
		return []string{name}, nil
	}
	out := []string{""}
	for _, s := range schedule.Schedulers() {
		if s != "fixed" {
			out = append(out, s)
		}
	}
	return out, nil
}

// planOne finds the greedy max-B configuration at fixed (W, D, scheduler):
// the largest power-of-two B that fits device memory without recomputation;
// only if no B fits plainly, the largest B that fits with recomputation.
// sched "" plans the fixed placement; a policy name plans the re-shaped
// schedule that policy produces for the request's speed factors.
//
// The search is one pass over B, largest first: it stops at the first B
// that fits plainly, remembering on the way the first that fits with
// recomputation. The fixed placement's memory does not depend on speed
// factors, and sim.ChimeraFit prices it once per candidate and answers
// each B in closed form, so its search builds no schedule and reads no
// residency profile; a list policy's fit is sim.FitsMemory on its own
// memoized schedule, whose profile the schedule caches. No stage table is
// built: every stage is model.Config.Stage(i, D), derived where it is
// read. For the (D, N = B̂/(W·B)) the search settles on, the fixed
// placement's (Cf, Cb) are closed-form (engine.CriticalPath), and
// without speed factors so are Eq. 1's compute term
// (schedule.ChimeraConfig.ComputeMakespan) and free regions
// (schedule.ChimeraConfig.FreeRegions): a homogeneous candidate, cold or
// warm, builds no schedule, writes no graph and replays nothing. Speed
// factors replay both terms on the candidate's one memoized graph
// (engine.Graph): the first replay builds and compiles the schedule, the
// second reuses it.
// BenchmarkPlanCold and BenchmarkPlanWarm give the cost of three plans:
// 119 allocs and ≈ 46–56 µs cold, 95 allocs and ≈ 40–51 µs warm (busy
// 2-core Xeon host, -cpu 1).
func planOne(e *engine.Engine, req PlanRequest, w, d int, sched string, factors []float64) (*Prediction, error) {
	perPipe := req.MiniBatch / w
	// The canonical factor encoding is loop-invariant: encode it once.
	speed := ""
	if sched != "" {
		speed = sim.EncodeSpeedFactors(factors)
	}
	keyOf := func(b int) engine.ScheduleKey {
		key := engine.ChimeraKey(d, perPipe/b, 0, schedule.Direct)
		if sched != "" {
			key.Scheduler, key.Speed = sched, speed
		}
		return key
	}
	// No B builds at a depth Chimera rejects (its rules read N only as
	// N ≥ 1), and the candidate reports nothing.
	if (schedule.ChimeraConfig{D: d, N: perPipe}).Validate() != nil {
		return nil, nil
	}
	cfg := sim.Config{
		Model: req.Model, W: w, SpeedFactors: factors,
		Device: req.Device, Network: req.Network,
	}
	var fixed sim.ChimeraFit
	if sched == "" {
		// Every B has a fit at a depth Chimera builds: price it once.
		if err := fixed.Price(cfg, d); err != nil {
			return nil, err
		}
	}
	plainB, recB := 0, 0 // first B fitting plainly / with recomputation
	for b := req.MaxB; b >= 1 && plainB == 0; b /= 2 {
		if perPipe%b != 0 {
			continue
		}
		var plain, withRec bool
		if sched == "" {
			plain, withRec = fixed.Fits(b, perPipe/b)
		} else {
			// A B whose schedule does not resolve has no fit; the fit
			// prices the profile cached on the memoized schedule. Eq. 1's
			// cfg is left as it is.
			s, err := e.Schedule(keyOf(b))
			if err != nil {
				continue
			}
			fit := cfg
			fit.Schedule, fit.MicroBatch = s, b
			if plain, withRec, err = sim.FitsMemory(fit); err != nil {
				return nil, err
			}
		}
		switch {
		case plain:
			plainB = b
		case withRec && recB == 0:
			// Keep going: a smaller B that fits without recomputation
			// outranks any B that needs it.
			recB = b
		}
	}
	cfg.MicroBatch = plainB
	if plainB == 0 {
		if recB == 0 {
			return nil, nil
		}
		cfg.MicroBatch, cfg.Recompute = recB, true
	}
	key := keyOf(cfg.MicroBatch)
	cf, cb, err := e.CriticalPath(key)
	if err != nil {
		return nil, err
	}
	pred, err := predict(cfg, &replayed{
		n: key.N, replicas: 2, // F = 1: one down and one up replica
		e: e, key: key,
	}, d, cf, cb)
	if err != nil {
		return nil, err
	}
	pred.Scheduler = sched
	return pred, nil
}

// ModelError returns |predicted − simulated| / simulated iteration time for
// a configuration — the §4.2.2 accuracy metric (paper: within 10%).
func ModelError(cfg sim.Config) (float64, error) {
	pred, err := Predict(cfg)
	if err != nil {
		return 0, err
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return 0, err
	}
	return math.Abs(pred.IterTime-res.IterTime) / res.IterTime, nil
}
