package fleet

import (
	"errors"
	"fmt"
	"sort"

	"chimera/internal/engine"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// node is one cluster node with its straggler factor and, for elastic
// joins, its procurement class and price rate (initial cluster nodes are
// on-demand and free).
type node struct {
	ID     int
	Factor float64
	Class  string
	Price  float64
}

// JobAllocation is one job's share of the cluster and the plan chosen for
// it.
type JobAllocation struct {
	// Job is the job's name; Priority its effective objective weight.
	Job      string
	Priority float64
	// Nodes is how many nodes the policy assigned; NodeIDs lists them
	// (ordered fastest first). NodesUsed = W·D of the chosen plan — a job
	// may idle assigned nodes its best plan cannot use.
	Nodes     int
	NodesUsed int
	NodeIDs   []int
	// StragglerFactor is the speed factor of the slowest node the plan
	// uses (1 on a homogeneous cluster): synchronous training runs at that
	// node's pace, so Throughput = Plan.Throughput / StragglerFactor.
	// List-scheduled plans (Scheduler != "") fold the per-node factors into
	// the prediction itself and report StragglerFactor 1, keeping the
	// Throughput = Plan.Throughput / StragglerFactor identity.
	StragglerFactor float64
	// Scheduler is the placement policy behind the chosen plan: "" for the
	// scheme's fixed placement, otherwise a schedule.Schedulers() name.
	Scheduler string
	// Plan is the §3.4 selection for NodesUsed workers; nil when the
	// job's share admits no feasible configuration (Throughput 0).
	Plan       *perfmodel.Prediction
	Throughput float64
	// Weighted is Priority · Throughput, the job's term in the objective.
	Weighted float64
}

// Allocation is the result of one fleet-allocation problem: per-job shares
// in job input order plus the fleet-wide objective value.
type Allocation struct {
	Policy Policy
	// Nodes echoes the cluster size; NodesAllocated counts nodes assigned
	// to jobs; NodesUsed counts nodes actually driven by chosen plans.
	Nodes          int
	NodesAllocated int
	NodesUsed      int
	// WeightedThroughput is Σ priority·throughput over the jobs.
	WeightedThroughput float64
	Jobs               []JobAllocation
}

// Allocator runs fleet allocations on one engine, memoizing every (job, P)
// plan it evaluates. Reuse one Allocator across allocations (the fleet
// simulator re-allocates at every arrival/departure event) so repeated
// candidate plans are cache hits; construct with NewAllocator.
type Allocator struct {
	eng *engine.Engine
	// plans memoizes best-prediction plan outcomes keyed by the full
	// PlanRequest — the same comparable key chimera-serve's plan cache
	// uses. The engine underneath additionally shares schedule and
	// critical-path memos with every other engine user.
	plans *engine.Memo[perfmodel.PlanRequest, planResult]
	// met holds the instrument handles attached by Observe (nil =
	// uninstrumented).
	met *fleetMetrics
}

type planResult struct {
	pred *perfmodel.Prediction
	err  error
}

// NewAllocator builds an allocator on e (nil selects the shared default
// engine) with an unbounded plan memo — the right retention for batch
// callers whose request population is bounded by their job mixes.
func NewAllocator(e *engine.Engine) *Allocator {
	return NewAllocatorCap(e, 0)
}

// NewAllocatorCap is NewAllocator with the plan memo bounded to capacity
// entries under LRU eviction (capacity <= 0 = unbounded) — the policy a
// long-running daemon needs so an endless stream of distinct fleet
// requests cannot grow memory without limit (chimera-serve passes its
// CacheCapacity).
func NewAllocatorCap(e *engine.Engine, capacity int) *Allocator {
	if e == nil {
		e = engine.Default()
	}
	return &Allocator{eng: e, plans: engine.NewMemoCap[perfmodel.PlanRequest, planResult](capacity)}
}

// PlanStats reports the allocator's plan-memo hit and miss counts — how
// much of the greedy search repeated candidate plans absorbed.
func (a *Allocator) PlanStats() (hits, misses uint64) { return a.plans.Stats() }

// AllocateOn solves one fleet-allocation problem on e (nil selects the
// shared default engine) with a throwaway plan memo; callers that allocate
// repeatedly should hold a NewAllocator instead.
func AllocateOn(e *engine.Engine, req Request) (*Allocation, error) {
	return NewAllocator(e).Allocate(req)
}

// Allocate solves the request with its policy. The result is deterministic:
// job order is input order, every selection carries a total tie-break, and
// nothing depends on the engine's pool size.
func (a *Allocator) Allocate(req Request) (*Allocation, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	defer a.observeAllocate()()
	pool := sortedPool(req.Cluster)
	var shares [][]node
	var err error
	switch req.policy() {
	case EqualSplit:
		shares = equalSplit(pool, len(req.Jobs))
	case PlannerGuided:
		shares, err = a.plannerGuided(req, pool)
		if err != nil {
			return nil, err
		}
	}
	out := &Allocation{Policy: req.policy(), Nodes: req.Cluster.Nodes, Jobs: make([]JobAllocation, len(req.Jobs))}
	for i, j := range req.Jobs {
		v, err := a.jobValue(req.Cluster, j, shares[i])
		if err != nil {
			return nil, err
		}
		ja := JobAllocation{
			Job: j.Name, Priority: j.priority(),
			Nodes: len(shares[i]), NodeIDs: nodeIDs(shares[i]),
			StragglerFactor: 1,
		}
		if v.pred != nil {
			ja.Plan, ja.NodesUsed = v.pred, v.used
			ja.StragglerFactor = v.factor
			ja.Scheduler = v.pred.Scheduler
			ja.Throughput = v.tp
			ja.Weighted = j.priority() * v.tp
		}
		out.Jobs[i] = ja
		out.NodesAllocated += ja.Nodes
		out.NodesUsed += ja.NodesUsed
		out.WeightedThroughput += ja.Weighted
	}
	return out, nil
}

// sortedPool returns the cluster's nodes ordered fastest first (factor
// ascending, node id as the total tie-break).
func sortedPool(c Cluster) []node {
	pool := make([]node, c.Nodes)
	for i := range pool {
		f := 1.0
		if len(c.SpeedFactors) != 0 {
			f = c.SpeedFactors[i]
		}
		pool[i] = node{ID: i, Factor: f}
	}
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].Factor != pool[j].Factor {
			return pool[i].Factor < pool[j].Factor
		}
		return pool[i].ID < pool[j].ID
	})
	return pool
}

// equalSplit hands every job the same number of node quanta (leftover
// quanta go to the lowest-indexed jobs), carving contiguous runs of the
// fastest-first pool in job input order.
func equalSplit(pool []node, jobs int) [][]node {
	quanta := len(pool) / Quantum
	per, extra := quanta/jobs, quanta%jobs
	shares := make([][]node, jobs)
	next := 0
	for i := range shares {
		q := per
		if i < extra {
			q++
		}
		n := q * Quantum
		shares[i] = pool[next : next+n : next+n]
		next += n
	}
	return shares
}

// planBest returns the memoized best §3.4 prediction for a job on p
// homogeneous workers; nil (no error) when p admits no feasible
// configuration.
func (a *Allocator) planBest(c Cluster, j Job, p int) (*perfmodel.Prediction, error) {
	return a.plan(perfmodel.PlanRequest{
		Model: j.Model, P: p, MiniBatch: j.MiniBatch, MaxB: j.MaxB,
		Device: c.Device, Network: c.Network,
	})
}

// planList is planBest with the share's actual per-node factors and the
// cluster's placement policy: the planner sweeps list-scheduled placements
// re-shaped around the stragglers (restricted to D = node count, so the
// factors describe exactly those workers). The prediction already pays the
// stragglers positionally — no division by the slowest factor afterwards.
func (a *Allocator) planList(c Cluster, j Job, factors []float64) (*perfmodel.Prediction, error) {
	return a.plan(perfmodel.PlanRequest{
		Model: j.Model, P: len(factors), MiniBatch: j.MiniBatch, MaxB: j.MaxB,
		Device: c.Device, Network: c.Network,
		SpeedFactors: sim.EncodeSpeedFactors(factors),
		Scheduler:    c.Scheduler,
	})
}

// plan memoizes the best prediction for a full PlanRequest; nil (no error)
// when the request admits no feasible configuration.
func (a *Allocator) plan(req perfmodel.PlanRequest) (*perfmodel.Prediction, error) {
	out := a.plans.Do(req, func() planResult {
		preds, err := perfmodel.PlanOn(a.eng, req)
		if err != nil {
			if errors.Is(err, perfmodel.ErrInfeasible) {
				return planResult{}
			}
			return planResult{err: err}
		}
		return planResult{pred: preds[0]}
	})
	return out.pred, out.err
}

// jobValue is the best achievable (plan, throughput) for a job holding the
// given nodes: the plan may use any even prefix of the fastest-first node
// list, paying the straggler factor of the slowest node it uses. Selection
// is total: throughput descending, then fewer nodes used.
type jobValue struct {
	pred   *perfmodel.Prediction
	used   int
	factor float64
	tp     float64
}

func (a *Allocator) jobValue(c Cluster, j Job, nodes []node) (jobValue, error) {
	vals, err := a.prefixValues(c, j, nodes)
	if err != nil {
		return jobValue{}, err
	}
	return vals[len(nodes)/Quantum*Quantum], nil
}

// plannerGuided grows every job from zero nodes over the whole pool — the
// static entry point of the concave-envelope greedy (see greedyGrow).
func (a *Allocator) plannerGuided(req Request, pool []node) ([][]node, error) {
	shares := make([][]node, len(req.Jobs))
	rest := pool[:len(pool)/Quantum*Quantum] // whole quanta only
	shares, _, err := a.greedyGrow(req.Cluster, req.Jobs, shares, rest, nil)
	return shares, err
}

// greedyGrow repeatedly grants front quanta of rest to the job with the
// best marginal weighted-throughput gain *per quantum*, starting from the
// given shares (all-empty for a static allocation; the surviving shares of
// churn-touched jobs when the elastic simulator re-plans incrementally).
// Because plan throughput is a step function of the worker count (jumps
// where a new (W, D, B) becomes feasible), the marginal gain of a single
// quantum is usually zero just below a step; each round therefore considers
// every extension size k and ranks them by gain/k — the concave-envelope
// greedy — granting the winner exactly its k quanta. Ties break totally:
// higher rate, then lower job index, then smaller extension. When no
// extension improves any job, the remainder stays free and is returned.
// evals, when non-nil, counts job evaluations (one per job per round) — the
// re-plan work measure the elastic benchmark reports.
func (a *Allocator) greedyGrow(c Cluster, jobs []Job, shares [][]node, rest []node, evals *int) ([][]node, []node, error) {
	type jobEval struct {
		vals []jobValue
		err  error
	}
	evaled := make([]jobEval, len(jobs))
	for len(rest) >= Quantum {
		// Each round's job evaluations are independent, so they go to the
		// engine pool as one irregular task set (the per-job cost varies
		// wildly with share size and plan-memo warmth). Every evaluation
		// nests further ForEach calls — PlanOn fans its (W, D, B) grid out
		// on the same engine — which the work-stealing pool runs in place
		// on the submitting worker's deque. The rate scan below stays
		// serial in job input order, so the selection (and *evals, counted
		// in the same order) is identical to the sequential loop's.
		a.eng.ForEach(len(jobs), func(i int) {
			// One pass over the job's share extended by the whole
			// remaining pool yields its value at every candidate size.
			vals, err := a.prefixValues(c, jobs[i], withNodes(shares[i], rest))
			evaled[i] = jobEval{vals: vals, err: err}
		})
		bestJob, bestK, bestRate := -1, 0, 0.0
		for i, j := range jobs {
			if evaled[i].err != nil {
				return nil, nil, evaled[i].err
			}
			if evals != nil {
				*evals++
			}
			vals := evaled[i].vals
			base := len(shares[i]) / Quantum * Quantum
			cur := vals[base].tp
			for k := 1; k*Quantum <= len(rest); k++ {
				gain := j.priority() * (vals[base+k*Quantum].tp - cur)
				if gain <= 0 {
					continue
				}
				if rate := gain / float64(k); rate > bestRate {
					bestJob, bestK, bestRate = i, k, rate
				}
			}
		}
		if bestJob < 0 {
			break // no extension helps anyone — leave the rest idle
		}
		shares[bestJob] = withNodes(shares[bestJob], rest[:bestK*Quantum])
		rest = rest[bestK*Quantum:]
	}
	return shares, rest, nil
}

// prefixValues returns, for every even prefix length m of nodes, the best
// jobValue achievable within the first m nodes (the running maximum the
// greedy's rate scan reads). Index by prefix length; odd entries are
// unused. The straggler factor of a prefix is the *maximum* factor within
// it — correct for any node order, which matters for the elastic warm
// start, where a surviving share concatenated with the free pool is not
// fastest-first (on a sorted pool the maximum is simply the last node, so
// the static path is unchanged). A job's MaxNodes cap truncates the scan:
// beyond it the value is flat, so capped jobs saturate instead of
// absorbing ever more quanta.
func (a *Allocator) prefixValues(c Cluster, j Job, nodes []node) ([]jobValue, error) {
	vals := make([]jobValue, len(nodes)+1)
	factors := make([]float64, len(nodes))
	for i, n := range nodes {
		factors[i] = n.Factor
	}
	var best jobValue
	maxFactor := 0.0
	for q := Quantum; q <= len(nodes); q += Quantum {
		for _, n := range nodes[q-Quantum : q] {
			if n.Factor > maxFactor {
				maxFactor = n.Factor
			}
		}
		if j.MaxNodes > 0 && q > j.MaxNodes {
			vals[q] = best
			continue
		}
		pred, err := a.planBest(c, j, q)
		if err != nil {
			return nil, err
		}
		if pred != nil {
			if tp := pred.Throughput / maxFactor; best.pred == nil || tp > best.tp {
				best = jobValue{pred: pred, used: q, factor: maxFactor, tp: tp}
			}
		}
		// The list-scheduled bid: only worth planning when the prefix is
		// genuinely heterogeneous — on uniform factors every policy defers
		// to the fixed placement and the candidate duplicates the one above.
		if c.Scheduler != "" && !schedule.UniformSpeed(factors[:q]) {
			hp, err := a.planList(c, j, factors[:q])
			if err != nil {
				return nil, err
			}
			if hp != nil && (best.pred == nil || hp.Throughput > best.tp) {
				best = jobValue{pred: hp, used: q, factor: 1, tp: hp.Throughput}
			}
		}
		vals[q] = best
	}
	return vals, nil
}

// withNodes appends extra nodes to a share without aliasing the pool slice
// it grew from (shares of different jobs must never share backing arrays).
func withNodes(share, extra []node) []node {
	out := make([]node, 0, len(share)+len(extra))
	out = append(out, share...)
	return append(out, extra...)
}

func nodeIDs(nodes []node) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	return out
}

// String renders the allocation as a compact table (the chimera-fleet CLI's
// human output).
func (al *Allocation) String() string {
	s := fmt.Sprintf("policy %s on %d nodes: weighted throughput %.1f (allocated %d, driving %d)\n",
		al.Policy, al.Nodes, al.WeightedThroughput, al.NodesAllocated, al.NodesUsed)
	for _, j := range al.Jobs {
		if j.Plan == nil {
			s += fmt.Sprintf("  %-16s prio %-4g nodes %-3d  infeasible in its share\n", j.Job, j.Priority, j.Nodes)
			continue
		}
		pol := ""
		if j.Scheduler != "" {
			pol = " [" + j.Scheduler + "]"
		}
		s += fmt.Sprintf("  %-16s prio %-4g nodes %-3d uses %-3d W=%-3d D=%-3d B=%-3d %6.1f seq/s (×%g straggler)%s weighted %.1f\n",
			j.Job, j.Priority, j.Nodes, j.NodesUsed, j.Plan.W, j.Plan.D, j.Plan.B, j.Throughput, j.StragglerFactor, pol, j.Weighted)
	}
	return s
}
