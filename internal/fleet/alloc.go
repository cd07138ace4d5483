package fleet

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"chimera/internal/engine"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// node is one cluster node with its straggler factor and, for elastic
// joins, its price rate (initial cluster nodes are free).
type node struct {
	ID     int
	Factor float64
	Price  float64
}

// JobAllocation is one job's share of the cluster and the plan chosen for
// it.
type JobAllocation struct {
	// Job is the job's name; Priority its effective objective weight.
	Job      string  `json:"job"`
	Priority float64 `json:"priority"`
	// Nodes is how many nodes the policy assigned; NodeIDs lists them
	// (ordered fastest first). NodesUsed = W·D of the chosen plan — a job
	// may idle assigned nodes its best plan cannot use.
	Nodes     int   `json:"nodes"`
	NodesUsed int   `json:"nodes_used"`
	NodeIDs   []int `json:"node_ids"`
	// StragglerFactor is the speed factor of the slowest node the plan
	// uses (1 on a homogeneous cluster): synchronous training runs at that
	// node's pace, so Throughput = Plan.Throughput / StragglerFactor.
	// List-scheduled plans (Scheduler != "") fold the per-node factors into
	// the prediction itself and report StragglerFactor 1, keeping the
	// Throughput = Plan.Throughput / StragglerFactor identity.
	StragglerFactor float64 `json:"straggler_factor"`
	// Scheduler is the placement policy behind the chosen plan: "" for the
	// scheme's fixed placement, otherwise a schedule.Schedulers() name.
	Scheduler string `json:"scheduler,omitempty"`
	// Plan is the §3.4 selection for NodesUsed workers; nil when the
	// job's share admits no feasible configuration (Throughput 0).
	Plan       *perfmodel.Prediction `json:"plan,omitempty"`
	Throughput float64               `json:"throughput"`
	// Weighted is Priority · Throughput, the job's term in the objective.
	Weighted float64 `json:"weighted_throughput"`
}

// Allocation is the result of one fleet-allocation problem: per-job shares
// in job input order plus the fleet-wide objective value. It is the
// /v1/fleet/plan reply and chimera-fleet -json's plan output as it stands.
type Allocation struct {
	Policy Policy `json:"policy"`
	// Nodes echoes the cluster size; NodesAllocated counts nodes assigned
	// to jobs; NodesUsed counts nodes actually driven by chosen plans.
	Nodes          int `json:"nodes"`
	NodesAllocated int `json:"nodes_allocated"`
	NodesUsed      int `json:"nodes_used"`
	// WeightedThroughput is Σ priority·throughput over the jobs.
	WeightedThroughput float64         `json:"weighted_throughput"`
	Jobs               []JobAllocation `json:"jobs"`
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
	// curve slots. With the memo's own counts it makes the bid counters
	// PlanStats reports.
	curveHits atomic.Uint64
	// met holds the instrument handles attached by Observe (nil =
	// uninstrumented).
	met *fleetMetrics
}

type planResult struct {
	pred *perfmodel.Prediction
	err  error
}

// NewAllocator builds an allocator on e (nil selects the shared default
// engine) whose plan memo has e's entry bound (engine.Capacity) under LRU
// eviction: unbounded on an unbounded engine — the right retention for
// batch callers whose request population is bounded by their job mixes —
// and bounded on a daemon's engine, so an endless stream of distinct fleet
// requests cannot grow memory without limit.
func NewAllocator(e *engine.Engine) *Allocator {
	if e == nil {
		e = engine.Default()
	}
	return &Allocator{eng: e, plans: engine.NewMemoCap[perfmodel.PlanRequest, planResult](e.Stats().Capacity)}
}

// PlanStats reports the allocator's bid counters — how much of the greedy
// search repeated candidate plans absorbed. Every candidate-plan value the
// search reads counts once: as a hit when it came from a resolved curve slot
// or the plan memo, as a miss when the planner had to run.
func (a *Allocator) PlanStats() (hits, misses uint64) {
	memoHits, misses := a.plans.Stats()
	return a.curveHits.Load() + memoHits, misses
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
		bids[i] = bidder{curve: newPlanCurve(req.Cluster, j), prio: j.priority()}
	}
	shares, err := a.split(req.policy(), bids, pool, nil)
	if err != nil {
		return nil, err
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

// split hands the pool's whole quanta to the bidders from empty shares under
// the policy: equal shares, or the concave-envelope greedy (see greedyGrow).
// evals, when non-nil, counts job evaluations.
func (a *Allocator) split(p Policy, bids []bidder, pool []node, evals *int) ([][]node, error) {
	pool = pool[:len(pool)/Quantum*Quantum]
	if p == EqualSplit {
		if evals != nil {
			*evals += len(bids)
		}
		return equalSplit(pool, len(bids)), nil
	}
	shares, _, err := a.greedyGrow(bids, make([][]node, len(bids)), pool, evals)
	return shares, err
}

// equalSplit hands every job the same number of node quanta (leftover
// quanta go to the lowest-indexed jobs), copying contiguous runs of the
// fastest-first pool in job input order: churn mutates a live pool in place,
// so shares must own their nodes.
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
		shares[i] = slices.Clone(pool[next : next+n])
		next += n
	}
	return shares
}

// plan returns the best §3.4 prediction for a full PlanRequest through the
// plan memo; a zero result (no prediction, no error) means the request
// admits no feasible configuration. Concurrent first requests for one key
// (a live sim and its what-if forks apply concurrently) share one planner
// run. No pool body calls plan, so its owner waiting for a slot token inside
// PlanOn never waits on a goroutine parked here.
func (a *Allocator) plan(req perfmodel.PlanRequest) planResult {
	if out, ok := a.plans.Cached(req); ok {
		return out
	}
	return a.plans.Do(req, func() planResult {
		var out planResult
		preds, err := perfmodel.PlanOn(a.eng, req)
		switch {
		case err == nil:
			out.pred = preds[0]
		case !errors.Is(err, perfmodel.ErrInfeasible):
			out.err = err
		}
		return out
	})
}

// planCurve is one (cluster, job) pair's plan table over the job's
// breakpoints — the worker counts the planner's grid admits
// (perfmodel.Breakpoints), up to the job's cap or MaxNodes: slot i holds the
// best §3.4 prediction on points[i] homogeneous workers (or its
// infeasibility, or the planner's error), nil until someone needs it. The
// value cannot move between breakpoints, so no search reads anything else,
// and the table, sized from the request, never grows. A slot is resolved
// through the plan memo, published with an atomic store and immutable
// afterwards: a live sim and its what-if forks read and fill one curve
// concurrently, without a lock, and racing resolvers publish equal values
// of the memo's one planner run. A curve lives as long as its owner — an
// ElasticSim (one per vocabulary job, shared with its forks) or one
// Allocate call — so the plan memo stays the allocator's only retained
// cache.
type planCurve struct {
	// req is the job's plan request with P unset, sched the cluster's
	// list-scheduling policy ("" = none). listTop is the largest breakpoint
	// a list-scheduled bid can land on (0 without a scheduler): it plans one
	// pipeline over exactly the prefix, so P must divide the layer count.
	req     perfmodel.PlanRequest
	sched   string
	points  []int
	slots   []atomic.Pointer[planResult]
	listTop int
}

// newPlanCurve builds the job's empty curve.
func newPlanCurve(c Cluster, j Job) *planCurve {
	top := MaxNodes
	if j.MaxNodes > 0 && j.MaxNodes < top {
		top = j.MaxNodes
	}
	cv := &planCurve{
		req: perfmodel.PlanRequest{
			Model: j.Model, MiniBatch: j.MiniBatch, MaxB: j.MaxB,
			Device: c.Device, Network: c.Network,
		},
		sched:  c.Scheduler,
		points: perfmodel.Breakpoints(j.Model.Layers, j.MiniBatch, top),
	}
	cv.slots = make([]atomic.Pointer[planResult], len(cv.points))
	for _, p := range cv.points {
		if c.Scheduler != "" && j.Model.Layers%p == 0 {
			cv.listTop = p
		}
	}
	return cv
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
	// n counts the nodes walked, next indexes the curve's first breakpoint
	// above n, and factors keeps the walked factors up to listTop.
	n, next int
	factors []float64
	// hits, when set, counts values read from resolved curve slots; a
	// search's scans and their forks share one counter and flush it into
	// the allocator's bid counter once.
	hits *int
}

// fork returns a copy of the scan to extend independently: the original
// keeps standing for the shared base, and the copy's walked factors no
// longer share its backing array.
func (st *prefixScan) fork() prefixScan {
	c := *st
	c.factors = c.factors[:len(c.factors):len(c.factors)]
	return c
}

// scan extends st along nodes, evaluating the job's curve at every
// breakpoint it reaches; past the last one the rest is counted, not walked.
func (a *Allocator) scan(cv *planCurve, st *prefixScan, nodes []node) error {
	for st.next < len(cv.points) {
		p := cv.points[st.next]
		m := min(p-st.n, len(nodes))
		for _, nd := range nodes[:m] {
			st.maxFactor = max(st.maxFactor, nd.Factor)
			if st.n < cv.listTop {
				st.factors = append(st.factors, nd.Factor)
			}
			st.n++
		}
		nodes = nodes[m:]
		if st.n < p {
			return nil
		}
		if err := a.reach(cv, st, st.maxFactor, st.factors); err != nil {
			return err
		}
	}
	st.n += len(nodes)
	return nil
}

// reach evaluates the job at its next breakpoint on a prefix of slowest
// factor maxF and factors (up to listTop); no other code reads a curve.
func (a *Allocator) reach(cv *planCurve, st *prefixScan, maxF float64, factors []float64) error {
	i := st.next
	p := cv.points[i]
	st.next++
	r := cv.slots[i].Load()
	if r == nil {
		out := a.plan(cv.request(p))
		r = &out
		cv.slots[i].Store(r)
	} else if st.hits != nil {
		*st.hits++
	}
	if r.err != nil {
		return r.err
	}
	if r.pred != nil {
		if tp := r.pred.Throughput / maxF; st.best.pred == nil || tp > st.best.tp {
			st.best = jobValue{pred: r.pred, used: p, factor: maxF, tp: tp}
		}
	}
	// The list-scheduled bid: only worth planning when the prefix is
	// genuinely heterogeneous — on uniform factors every policy defers to the
	// fixed placement and the candidate duplicates the one above.
	if p <= cv.listTop && cv.req.Model.Layers%p == 0 && !schedule.UniformSpeed(factors[:p]) {
		hp := a.planList(cv, factors[:p])
		if hp.err != nil {
			return hp.err
		}
		if hp.pred != nil && (st.best.pred == nil || hp.pred.Throughput > st.best.tp) {
			st.best = jobValue{pred: hp.pred, used: p, factor: 1, tp: hp.pred.Throughput}
		}
	}
	return nil
}

// jobValue scans the whole node list and returns its last value.
func (a *Allocator) jobValue(cv *planCurve, nodes []node) (jobValue, error) {
	hits := 0
	st := prefixScan{hits: &hits}
	err := a.scan(cv, &st, nodes)
	a.curveHits.Add(uint64(hits))
	return st.best, err
}

// nodeList is a node list every job of one search may grow into, prepared
// once so that the slowest node of any window is O(1): on a fastest-first
// list (every pool and free list) it is the window's last node; otherwise
// slow holds, level by level, the slowest factor of nodes[i : i+2^j] (a
// sparse table), and two lookups cover any window.
type nodeList struct {
	nodes []node
	slow  []float64
}

// prepare points l at nodes, reusing l's table.
func (l *nodeList) prepare(nodes []node) {
	n := len(nodes)
	l.nodes, l.slow = nodes, l.slow[:0]
	i := 1
	for i < n && nodes[i-1].Factor <= nodes[i].Factor {
		i++
	}
	if i >= n {
		return
	}
	for _, nd := range nodes {
		l.slow = append(l.slow, nd.Factor)
	}
	for w, lv := 1, 0; 2*w <= n; w, lv = 2*w, lv+n-w+1 {
		for i := lv; i < lv+n-2*w+1; i++ {
			l.slow = append(l.slow, max(l.slow[i], l.slow[i+w]))
		}
	}
}

// slowest is the largest factor among nodes[i:j], i < j.
func (l *nodeList) slowest(i, j int) float64 {
	if len(l.slow) == 0 {
		return l.nodes[j-1].Factor
	}
	k := bits.Len(uint(j-i)) - 1
	lv := k*(len(l.nodes)+1) - 1<<k + 1 // where level k starts
	return max(l.slow[lv+i], l.slow[lv+j-1<<k])
}

// ahead extends a copy st of a job's scan to each breakpoint that whole
// quanta of l.nodes[from:] reach, ascending, and offers the quanta count k
// with the value there. Between breakpoints the value is flat while k grows,
// so a skipped k has a lower gain per quantum, or an equal net gain and the
// larger extension: it never wins a search's strict comparison.
func (a *Allocator) ahead(cv *planCurve, st *prefixScan, l *nodeList, from int, offer func(k int, v jobValue)) error {
	top := st.n + (len(l.nodes)-from)/Quantum*Quantum
	for st.next < len(cv.points) && cv.points[st.next] <= top {
		p := cv.points[st.next]
		m := p - st.n
		var factors []float64
		if p <= cv.listTop {
			factors = st.factors[:len(st.factors):len(st.factors)]
			for _, nd := range l.nodes[from : from+m] {
				factors = append(factors, nd.Factor)
			}
		}
		if err := a.reach(cv, st, max(st.maxFactor, l.slowest(from, from+m)), factors); err != nil {
			return err
		}
		offer((m+Quantum-1)/Quantum, st.best)
	}
	return nil
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
// Because plan throughput is a step function of the worker count, the
// marginal gain of a single quantum is usually zero just below a step; each
// round therefore considers every extension reaching one of a job's
// breakpoints, ranks them by gain/k — the concave-envelope greedy — and
// grants the winner exactly its k quanta. Ties break totally: higher rate,
// then lower job index, then smaller extension. When no extension improves
// any job, the remainder stays free and is returned. evals, when non-nil,
// counts job evaluations (one per job per round) — the re-plan work measure
// the elastic benchmark reports. A share is scanned once per call and rest
// prepared once, so a round walks no node list. Rounds and jobs run serially
// in input order, so the selection and *evals are deterministic; a curve
// slot is planned where a scan or ahead first reaches it (reach).
func (a *Allocator) greedyGrow(bids []bidder, shares [][]node, rest []node, evals *int) ([][]node, []node, error) {
	states := make([]prefixScan, len(bids))
	hits := 0
	defer func() { a.curveHits.Add(uint64(hits)) }()
	for i, b := range bids {
		shares[i] = slices.Clip(shares[i]) // the first grant copies: shares never alias
		states[i].hits = &hits
		if err := a.scan(b.curve, &states[i], shares[i]); err != nil {
			return nil, nil, err
		}
	}
	var l nodeList
	l.prepare(rest)
	off := 0
	for len(rest)-off >= Quantum {
		bestJob, bestK, bestRate := -1, 0, 0.0
		for i, b := range bids {
			st := states[i].fork()
			cur := st.best.tp
			err := a.ahead(b.curve, &st, &l, off, func(k int, v jobValue) {
				if gain := b.prio * (v.tp - cur); gain > 0 && gain/float64(k) > bestRate {
					bestJob, bestK, bestRate = i, k, gain/float64(k)
				}
			})
			if err != nil {
				return nil, nil, err
			}
			if evals != nil {
				*evals++
			}
		}
		if bestJob < 0 {
			break // no extension helps anyone — leave the rest idle
		}
		grant := rest[off : off+bestK*Quantum]
		if err := a.scan(bids[bestJob].curve, &states[bestJob], grant); err != nil {
			return nil, nil, err
		}
		shares[bestJob] = append(shares[bestJob], grant...)
		off += len(grant)
	}
	return shares, rest[off:], nil
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
