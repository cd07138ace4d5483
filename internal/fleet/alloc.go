package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"chimera/internal/engine"
	"chimera/internal/perfmodel"
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
	// critical-path memos with every other engine user. The search itself
	// never probes it per candidate: a planCurve resolves each (job, P) slot
	// through it once and is read by index afterwards.
	plans *engine.Memo[perfmodel.PlanRequest, planResult]
	// curveHits counts candidate-plan values read from already-resolved
	// curve slots; planned counts planner runs. With the memo's own hit
	// count they are the bid counters PlanStats reports.
	curveHits atomic.Uint64
	planned   atomic.Uint64
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

// PlanStats reports the allocator's bid counters — how much of the greedy
// search repeated candidate plans absorbed. Every candidate-plan value the
// search reads counts once: as a hit when it came from a resolved curve slot
// or the plan memo, as a miss when the planner had to run.
func (a *Allocator) PlanStats() (hits, misses uint64) {
	memoHits, _ := a.plans.Stats()
	return a.curveHits.Load() + memoHits, a.planned.Load()
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
	// One plan curve per request job, alive for this call only: the plan
	// memo stays the one retained cache.
	bids := make([]bidder, len(req.Jobs))
	for i, j := range req.Jobs {
		bids[i] = bidder{curve: newPlanCurve(req.Cluster, j, len(pool)), prio: j.priority()}
	}
	var shares [][]node
	switch req.policy() {
	case EqualSplit:
		shares = equalSplit(pool, len(req.Jobs))
	case PlannerGuided:
		// Grow every job from zero nodes over the pool's whole quanta — the
		// static entry point of the concave-envelope greedy (see greedyGrow).
		var err error
		shares, _, err = a.greedyGrow(bids, make([][]node, len(req.Jobs)), pool[:len(pool)/Quantum*Quantum], nil)
		if err != nil {
			return nil, err
		}
	}
	out := &Allocation{Policy: req.policy(), Nodes: req.Cluster.Nodes, Jobs: make([]JobAllocation, len(req.Jobs))}
	for i, j := range req.Jobs {
		v, err := a.jobValue(bids[i].curve, shares[i])
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

// plan returns the best §3.4 prediction for a full PlanRequest through the
// plan memo; a zero result (no prediction, no error) means the request
// admits no feasible configuration. It never waits on another caller's
// planner run: scan calls plan from goroutines that are not pool bodies (a
// live sim and its what-if forks apply concurrently), and such a caller can
// be inside PlanOn waiting for a slot token. Pool bodies parked on its
// single-flight entry would be holding the very tokens it waits for. Two
// concurrent first requests for one key may therefore both run the planner
// — they compute equal results and the memo keeps one.
func (a *Allocator) plan(req perfmodel.PlanRequest) planResult {
	if out, ok := a.plans.Cached(req); ok {
		return out
	}
	a.planned.Add(1)
	var out planResult
	preds, err := perfmodel.PlanOn(a.eng, req)
	switch {
	case err == nil:
		out.pred = preds[0]
	case !errors.Is(err, perfmodel.ErrInfeasible):
		out.err = err
	}
	a.plans.Put(req, out)
	return out
}

// planCurve is one (cluster, job) pair's plan table over the worker count:
// slot P/Quantum−1 holds the best §3.4 prediction for the job on P
// homogeneous workers (or its infeasibility, or the planner's error), nil
// until someone needs it. A slot is resolved through the plan memo and
// published with an atomic store, and is immutable afterwards, so any
// number of scans — a live sim, its what-if forks, two pool bodies bidding
// for two instances of one job — read and fill one curve without a lock
// (none could be held across the planner, see plan). Racing resolvers
// publish equal values. The table covers the job's MaxNodes cap, or the
// pool for an uncapped job, and is re-published larger when joins outgrow
// it; a store that loses that race is simply resolved again from the memo.
//
// A curve lives as long as its owner — an ElasticSim (one per vocabulary
// job, shared with its forks) or a single Allocate call — so the plan memo
// stays the allocator's only retained cache.
type planCurve struct {
	// req is the job's plan request with P unset, sched the cluster's
	// list-scheduling policy ("" = none), maxNodes the job's cap (0 = none).
	req      perfmodel.PlanRequest
	sched    string
	maxNodes int
	slots    atomic.Pointer[[]atomic.Pointer[planResult]]
}

// newPlanCurve builds the job's empty curve sized for a pool of nodes.
func newPlanCurve(c Cluster, j Job, nodes int) *planCurve {
	cv := &planCurve{
		req: perfmodel.PlanRequest{
			Model: j.Model, MiniBatch: j.MiniBatch, MaxB: j.MaxB,
			Device: c.Device, Network: c.Network,
		},
		sched: c.Scheduler, maxNodes: j.MaxNodes,
	}
	if j.MaxNodes > 0 && j.MaxNodes < nodes {
		nodes = j.MaxNodes
	}
	slots := make([]atomic.Pointer[planResult], nodes/Quantum)
	cv.slots.Store(&slots)
	return cv
}

// saturated reports whether n nodes reach the job's cap: beyond it the
// job's value is flat, so capped jobs saturate instead of absorbing ever
// more quanta.
func (cv *planCurve) saturated(n int) bool { return cv.maxNodes > 0 && n >= cv.maxNodes }

// table returns the slot table, grown to hold slot index i.
func (cv *planCurve) table(i int) []atomic.Pointer[planResult] {
	for {
		old := cv.slots.Load()
		if i < len(*old) {
			return *old
		}
		grown := make([]atomic.Pointer[planResult], max(2*len(*old), i+1))
		for k := range *old {
			grown[k].Store((*old)[k].Load())
		}
		cv.slots.CompareAndSwap(old, &grown)
	}
}

// publish stores slot p's resolution and returns the stored value.
func (cv *planCurve) publish(p int, out planResult) *planResult {
	idx := p/Quantum - 1
	cv.table(idx)[idx].Store(&out)
	return &out
}

// request is the job's plan request on p homogeneous workers.
func (cv *planCurve) request(p int) perfmodel.PlanRequest {
	req := cv.req
	req.P = p
	return req
}

// planList is the list-scheduled bid: the job planned on the prefix's actual
// per-node factors under the cluster's placement policy. The planner sweeps
// list-scheduled placements re-shaped around the stragglers (restricted to
// D = node count, so the factors describe exactly those workers), and the
// prediction already pays the stragglers positionally — no division by the
// slowest factor afterwards. The bid depends on the factor sequence, not on
// (job, P), so it cannot live on the curve and stays on the plan memo.
func (a *Allocator) planList(cv *planCurve, factors []float64) planResult {
	req := cv.request(len(factors))
	req.SpeedFactors = sim.EncodeSpeedFactors(factors)
	req.Scheduler = cv.sched
	return a.plan(req)
}

// jobValue is the best achievable (plan, throughput) for a job holding the
// given nodes: the plan may use any even prefix of the node list, paying
// the straggler factor of the slowest node it uses. Selection is total:
// throughput descending, then fewer nodes used.
type jobValue struct {
	pred   *perfmodel.Prediction
	used   int
	factor float64
	tp     float64
}

// prefixScan is the state of a walk along a job's node list: the best
// jobValue achievable within the nodes walked so far — the running maximum
// every search in this package reads — and what extending the walk needs.
// The zero value is a walk of no nodes. Because the state is a value, a
// scan can be resumed: fork it, extend the fork over a candidate's extra
// nodes, and the original still stands for the shared base.
//
// The straggler factor of a prefix is the *maximum* factor within it —
// correct for any node order, which matters for the elastic warm start,
// where a surviving share concatenated with the free pool is not
// fastest-first (on a sorted pool the maximum is simply the last node).
type prefixScan struct {
	best      jobValue
	maxFactor float64
	// n counts the nodes walked; an odd n holds a node waiting for its
	// pair, which may arrive with the next extension.
	n int
	// first and mixed track prefix uniformity for the list-scheduled bid;
	// factors is the walked factor sequence, kept only when the cluster
	// names a scheduler.
	first   float64
	mixed   bool
	factors []float64
	// hits counts values read from resolved curve slots since the caller
	// last flushed them into the allocator's bid counter.
	hits int
}

// fork returns a copy of the scan to extend independently: the original
// keeps standing for the shared base, the copy's walked factors no longer
// share its backing array, and its hit count starts over.
func (st *prefixScan) fork() prefixScan {
	c := *st
	c.factors = c.factors[:len(c.factors):len(c.factors)]
	c.hits = 0
	return c
}

// scan extends st along nodes, evaluating the job's curve at every even
// prefix length up to its cap. This loop is the only reader of a curve's
// values.
func (a *Allocator) scan(cv *planCurve, st *prefixScan, nodes []node) error {
	slots := *cv.slots.Load()
	for i, nd := range nodes {
		if cv.saturated(st.n) {
			st.n += len(nodes) - i
			return nil
		}
		if nd.Factor > st.maxFactor {
			st.maxFactor = nd.Factor
		}
		if st.n == 0 {
			st.first = nd.Factor
		} else if nd.Factor != st.first {
			st.mixed = true
		}
		if cv.sched != "" {
			st.factors = append(st.factors, nd.Factor)
		}
		st.n++
		if st.n%Quantum != 0 {
			continue
		}
		idx := st.n/Quantum - 1
		if idx >= len(slots) {
			slots = cv.table(idx)
		}
		r := slots[idx].Load()
		if r == nil {
			r = cv.publish(st.n, a.plan(cv.request(st.n)))
		} else {
			st.hits++
		}
		if r.err != nil {
			return r.err
		}
		if r.pred != nil {
			if tp := r.pred.Throughput / st.maxFactor; st.best.pred == nil || tp > st.best.tp {
				st.best = jobValue{pred: r.pred, used: st.n, factor: st.maxFactor, tp: tp}
			}
		}
		// The list-scheduled bid: only worth planning when the prefix is
		// genuinely heterogeneous — on uniform factors every policy defers
		// to the fixed placement and the candidate duplicates the one above.
		if cv.sched != "" && st.mixed {
			hp := a.planList(cv, st.factors)
			if hp.err != nil {
				return hp.err
			}
			if hp.pred != nil && (st.best.pred == nil || hp.pred.Throughput > st.best.tp) {
				st.best = jobValue{pred: hp.pred, used: st.n, factor: 1, tp: hp.pred.Throughput}
			}
		}
	}
	return nil
}

// jobValue scans the whole node list and returns its last value.
func (a *Allocator) jobValue(cv *planCurve, nodes []node) (jobValue, error) {
	var st prefixScan
	err := a.scan(cv, &st, nodes)
	a.curveHits.Add(uint64(st.hits))
	return st.best, err
}

// bidder is one job competing for quanta in greedyGrow: its plan curve and
// its objective weight (the aged effective priority when the elastic
// simulator re-plans).
type bidder struct {
	curve *planCurve
	prio  float64
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
//
// A round is one scan per job, fused with the rate scan: the walk along the
// job's share continues quantum by quantum into rest and stops at the job's
// cap — beyond it the value is flat, so a larger k has the same gain at a
// strictly lower rate and can never win the strict comparison. Rounds and
// jobs run serially in input order, so the selection and *evals are
// deterministic; the planning they may need was done up front, in parallel,
// by resolveAhead.
func (a *Allocator) greedyGrow(bids []bidder, shares [][]node, rest []node, evals *int) ([][]node, []node, error) {
	a.resolveAhead(bids, shares, len(rest))
	for len(rest) >= Quantum {
		bestJob, bestK, bestRate := -1, 0, 0.0
		hits := 0
		for i, b := range bids {
			var st prefixScan
			if err := a.scan(b.curve, &st, shares[i]); err != nil {
				return nil, nil, err
			}
			cur := st.best.tp
			for k := 1; k*Quantum <= len(rest) && !b.curve.saturated(st.n); k++ {
				if err := a.scan(b.curve, &st, rest[(k-1)*Quantum:k*Quantum]); err != nil {
					return nil, nil, err
				}
				gain := b.prio * (st.best.tp - cur)
				if gain <= 0 {
					continue
				}
				if rate := gain / float64(k); rate > bestRate {
					bestJob, bestK, bestRate = i, k, rate
				}
			}
			hits += st.hits
			if evals != nil {
				*evals++
			}
		}
		a.curveHits.Add(uint64(hits))
		if bestJob < 0 {
			break // no extension helps anyone — leave the rest idle
		}
		shares[bestJob] = withNodes(shares[bestJob], rest[:bestK*Quantum])
		rest = rest[bestK*Quantum:]
	}
	return shares, rest, nil
}

// resolveAhead resolves every curve slot greedyGrow's rounds can read and
// nobody has resolved yet — each job's even prefixes of its share plus the
// whole remaining pool, up to its cap; later rounds only read within that
// range. Slots the plan memo already holds (a fresh curve on a warm
// allocator) are published on the spot; the rest are planned as one
// irregular task set on the engine pool, one plan per body. Every plan
// nests further ForEach calls (PlanOn fans its (W, D, B) grid out on the
// same engine), which take a spare slot token if there is one and otherwise
// run in place on the one their body already holds. With nothing to plan —
// every re-plan on a warm allocator — the pool is not entered at all. Which
// slots get resolved here never changes a value a scan reads, only who plans
// it.
func (a *Allocator) resolveAhead(bids []bidder, shares [][]node, rest int) {
	type coldSlot struct {
		cv *planCurve
		p  int
	}
	var cold []coldSlot
	var queued map[perfmodel.PlanRequest]bool // jobs may share a request
	for i, b := range bids {
		top := (len(shares[i]) + rest) / Quantum * Quantum
		if b.curve.saturated(top) {
			top = b.curve.maxNodes
		}
		slots := *b.curve.slots.Load()
		for p := Quantum; p <= top; p += Quantum {
			if idx := p/Quantum - 1; idx < len(slots) && slots[idx].Load() != nil {
				continue
			}
			req := b.curve.request(p)
			if out, ok := a.plans.Cached(req); ok {
				b.curve.publish(p, out)
				continue
			}
			if queued[req] {
				continue
			}
			if queued == nil {
				queued = make(map[perfmodel.PlanRequest]bool)
			}
			queued[req] = true
			cold = append(cold, coldSlot{b.curve, p})
		}
	}
	if len(cold) == 0 {
		return
	}
	a.eng.ForEach(len(cold), func(i int) {
		cv, p := cold[i].cv, cold[i].p
		cv.publish(p, a.plan(cv.request(p)))
	})
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
