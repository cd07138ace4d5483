package schedule

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Scheduler is a placement policy: it re-places a schedule's op DAG onto the
// schedule's D workers using per-worker speed factors, producing a re-shaped
// Schedule for heterogeneous clusters. The input graph is the compiled IR of
// the base schedule (the scheme's own hand-derived placement); costs supplies
// the unit op durations the policy ranks and packs with; speed[w] is the
// compute-time multiplier of worker w (1 = nominal, 2 = twice as slow).
//
// Placement granularity is the (replica, stage) group, not the single op: a
// stage's weights live on one worker, so every micro-batch of that stage must
// execute there. Policies therefore decide two things — which worker hosts
// each stage group, and in what order each worker runs its ops.
//
// Contract shared by every registered policy: with nil or uniform speed
// factors the policy returns the base schedule unchanged (the scheme's own
// placement is conflict-free and bubble-optimal on a homogeneous cluster;
// heterogeneity is the only signal these policies act on). The conformance
// suite in scheduler_test.go enforces this, plus Validate and deadlock-free
// graph compilation, for every registered policy.
type Scheduler interface {
	// Name is the registry key ("fixed", "heft", "cpop", "lb").
	Name() string
	// Schedule re-places the base schedule behind g. The returned schedule
	// has the same scheme, D, N and op multiset; only placement and
	// per-worker order differ. len(speed) must be 0 or g's D.
	Schedule(g *Graph, costs CostModel, speed []float64) (*Schedule, error)
}

// Source returns the schedule this graph was compiled from.
func (g *Graph) Source() *Schedule { return g.s }

// UniformSpeed reports whether the factor list carries no heterogeneity
// signal: empty, or all entries equal (placement is then irrelevant — a
// uniform multiplier rescales time without re-shaping anything).
func UniformSpeed(speed []float64) bool {
	if len(speed) == 0 {
		return true
	}
	for _, f := range speed[1:] {
		if f != speed[0] {
			return false
		}
	}
	return true
}

// schedulerOrder is the registry in presentation order: the fixed identity
// policy first, then the list schedulers.
var schedulerOrder = []string{"fixed", "heft", "cpop", "lb"}

var schedulerRegistry = map[string]Scheduler{
	"fixed": fixedScheduler{},
	"heft":  heftScheduler{},
	"cpop":  cpopScheduler{},
	"lb":    lbScheduler{},
}

// Schedulers lists the registered placement-policy names ("fixed" first),
// the policy axis companion to Schemes().
func Schedulers() []string {
	return append([]string(nil), schedulerOrder...)
}

// SchedulerByName resolves a registered placement policy.
func SchedulerByName(name string) (Scheduler, error) {
	if s, ok := schedulerRegistry[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("schedule: unknown scheduler %q (have %s)",
		name, strings.Join(Schedulers(), ", "))
}

// fixedScheduler is the identity policy: the scheme's own placement.
type fixedScheduler struct{}

func (fixedScheduler) Name() string { return "fixed" }
func (fixedScheduler) Schedule(g *Graph, _ CostModel, _ []float64) (*Schedule, error) {
	return g.s, nil
}

// placementDAG is the shared machinery of the list schedulers: the base
// schedule's ops with data-only dependency edges (the compiled graph minus
// its program-order edges, which encode the placement being replaced), unit
// costs per op, and the stage-group index placement binds on.
type placementDAG struct {
	base  *Schedule
	g     *Graph
	costs CostModel
	speed []float64
	// nodeCost[id] is the op's base duration; group[id] its stage-group
	// index replica·D + stage.
	nodeCost []float64
	group    []int32
	preds    [][]int32
	succs    [][]int32
	// groupLoad[grp] is the summed base cost of the stage group's ops —
	// what binding the group to a worker ultimately commits it to.
	groupLoad []float64
}

func newPlacementDAG(g *Graph, costs CostModel, speed []float64) (*placementDAG, error) {
	base := g.s
	if len(speed) != base.D {
		return nil, fmt.Errorf("schedule: %d speed factors for %d workers (lengths must match)", len(speed), base.D)
	}
	for w, f := range speed {
		if !(f > 0) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("schedule: speed factor %g for worker %d must be positive and finite", f, w)
		}
	}
	if costs.FUnit < 1 || costs.BUnit < 1 || costs.P2P < 0 {
		return nil, fmt.Errorf("schedule: placement cost model needs FUnit ≥ 1, BUnit ≥ 1, P2P ≥ 0, got %+v", costs)
	}
	total := g.Nodes()
	p := &placementDAG{
		base: base, g: g, costs: costs, speed: speed,
		nodeCost: make([]float64, total),
		group:    make([]int32, total),
		preds:    make([][]int32, total),
		succs:    make([][]int32, total),
	}
	p.groupLoad = make([]float64, len(base.Replicas)*base.D)
	for w, ops := range base.Workers {
		for i, op := range ops {
			id := g.base[w] + int32(i)
			p.nodeCost[id] = float64(costs.Cost(op))
			p.group[id] = int32(op.Replica*base.D + op.Stage)
			p.groupLoad[p.group[id]] += p.nodeCost[id]
			// Not the worker's program-order edge: old placement, not data.
			for _, pd := range g.dataEdges(id) {
				pd, _ = unpack(pd)
				p.preds[id] = append(p.preds[id], pd)
				p.succs[pd] = append(p.succs[pd], id)
			}
		}
	}
	return p, nil
}

func (p *placementDAG) meanSpeed() float64 {
	var sum float64
	for _, f := range p.speed {
		sum += f
	}
	return sum / float64(len(p.speed))
}

// upwardRanks is HEFT's priority: mean execution cost plus the most
// expensive downstream chain. Computed over the graph's topological order
// (a superset order of the data-only DAG, so one reverse pass suffices).
func (p *placementDAG) upwardRanks() []float64 {
	mean := p.meanSpeed()
	comm := float64(p.costs.P2P)
	rank := make([]float64, len(p.nodeCost))
	for i := len(p.g.order) - 1; i >= 0; i-- {
		id := p.g.order[i]
		best := 0.0
		for _, s := range p.succs[id] {
			if v := comm + rank[s]; v > best {
				best = v
			}
		}
		rank[id] = p.nodeCost[id]*mean + best
	}
	return rank
}

// downwardRanks is the most expensive upstream chain (excluding the node
// itself), CPOP's other half.
func (p *placementDAG) downwardRanks() []float64 {
	mean := p.meanSpeed()
	comm := float64(p.costs.P2P)
	rank := make([]float64, len(p.nodeCost))
	for _, id := range p.g.order {
		best := 0.0
		for _, pd := range p.preds[id] {
			if v := rank[pd] + p.nodeCost[pd]*mean + comm; v > best {
				best = v
			}
		}
		rank[id] = best
	}
	return rank
}

// eftSchedule runs the list-scheduling loop: ready ops (all data
// dependencies placed) are taken highest-priority first and placed at the
// worker with the earliest finish time — restricted to the group's bound
// worker once any op of its (replica, stage) group has been placed, and to
// the pinned worker for groups pre-bound by the policy (pinned[grp] >= 0).
// Every choice carries a total tie-break (priority, then node id; EFT, then
// lower worker), so placement is deterministic.
func (p *placementDAG) eftSchedule(name string, prio []float64, pinned []int32) (*Schedule, error) {
	base := p.base
	d := base.D
	total := len(p.nodeCost)
	groupWorker := make([]int32, len(base.Replicas)*d)
	for i := range groupWorker {
		groupWorker[i] = -1
	}
	if pinned != nil {
		copy(groupWorker, pinned)
	}
	indeg := make([]int, total)
	for id := range p.preds {
		indeg[id] = len(p.preds[id])
	}
	// ready is a max-heap on (prio, then lower id).
	ready := &nodeHeap{prio: prio}
	for id := 0; id < total; id++ {
		if indeg[id] == 0 {
			ready.push(int32(id))
		}
	}
	avail := make([]float64, d)
	aft := make([]float64, total)
	placedOn := make([]int32, total)
	perWorker := make([][]int32, d)
	groupLeft := append([]float64(nil), p.groupLoad...)
	comm := float64(p.costs.P2P)
	for placed := 0; placed < total; placed++ {
		if ready.len() == 0 {
			return nil, fmt.Errorf("schedule: %s placement stalled with %d ops left (data-dependency cycle in %q)",
				name, total-placed, base.Scheme)
		}
		id := ready.pop()
		grp := p.group[id]
		lo, hi := 0, d
		if gw := groupWorker[grp]; gw >= 0 {
			lo, hi = int(gw), int(gw)+1
		}
		// A worker choice for an unbound group commits the group's whole
		// remaining load to that worker, so the selection metric is the
		// finish time of that load run back to back — op-level EFT alone
		// would happily bind group after group to a momentarily idle
		// straggler. Once bound, selection is plain EFT.
		selCost := groupLeft[grp]
		if lo+1 == hi {
			selCost = p.nodeCost[id]
		}
		bestW, bestEFT, bestSel := -1, 0.0, math.Inf(1)
		for w := lo; w < hi; w++ {
			est := avail[w]
			for _, pd := range p.preds[id] {
				t := aft[pd]
				if placedOn[pd] != int32(w) {
					t += comm
				}
				if t > est {
					est = t
				}
			}
			// Equal finish times tie toward the least-loaded worker (then the
			// lower index): under a zero-communication cost model every idle
			// worker ties, and a lowest-index rule would chain group after
			// group onto worker 0.
			sel := est + selCost*p.speed[w]
			if sel < bestSel || (sel == bestSel && avail[w] < avail[bestW]) {
				bestW, bestSel = w, sel
				bestEFT = est + p.nodeCost[id]*p.speed[w]
			}
		}
		groupLeft[grp] -= p.nodeCost[id]
		groupWorker[grp] = int32(bestW)
		placedOn[id] = int32(bestW)
		aft[id] = bestEFT
		avail[bestW] = bestEFT
		perWorker[bestW] = append(perWorker[bestW], id)
		for _, s := range p.succs[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready.push(s)
			}
		}
	}
	out := p.emptyReshaped(name, groupWorker)
	for w, ids := range perWorker {
		for i, id := range ids {
			_, src := p.g.at(id)
			op := *src
			op.prio = int32(i)
			out.Workers[w] = append(out.Workers[w], op)
		}
	}
	return out, nil
}

// emptyReshaped builds the re-shaped schedule's shell: metadata copied from
// the base, replica maps re-bound to the placed group workers (groups the
// placement never touched — possible when a replica carries no micro-batches
// — keep the base placement).
func (p *placementDAG) emptyReshaped(name string, groupWorker []int32) *Schedule {
	base := p.base
	out := &Schedule{
		Scheme: base.Scheme, D: base.D, N: base.N, F: base.F,
		Workers:        make([][]Op, base.D),
		Synchronous:    base.Synchronous,
		DoubledForward: base.DoubledForward,
		HalvedBackward: base.HalvedBackward,
		MicroReplica:   append([]int(nil), base.MicroReplica...),
		Scheduler:      name,
		PlacementSpeed: append([]float64(nil), p.speed...),
	}
	for r, rm := range base.Replicas {
		nm := ReplicaMap{Down: rm.Down, WorkerOf: make([]int, base.D)}
		for st := range nm.WorkerOf {
			if gw := groupWorker[r*base.D+st]; gw >= 0 {
				nm.WorkerOf[st] = int(gw)
			} else {
				nm.WorkerOf[st] = rm.WorkerOf[st]
			}
		}
		out.Replicas = append(out.Replicas, nm)
	}
	return out
}

// nodeHeap is a deterministic max-heap of node ids: higher priority first,
// lower id on ties.
type nodeHeap struct {
	prio  []float64
	nodes []int32
}

func (h *nodeHeap) len() int { return len(h.nodes) }

func (h *nodeHeap) before(a, b int32) bool {
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return a < b
}

func (h *nodeHeap) push(id int32) {
	h.nodes = append(h.nodes, id)
	i := len(h.nodes) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.nodes[i], h.nodes[parent]) {
			break
		}
		h.nodes[i], h.nodes[parent] = h.nodes[parent], h.nodes[i]
		i = parent
	}
}

func (h *nodeHeap) pop() int32 {
	top := h.nodes[0]
	last := len(h.nodes) - 1
	h.nodes[0] = h.nodes[last]
	h.nodes = h.nodes[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.before(h.nodes[l], h.nodes[best]) {
			best = l
		}
		if r < last && h.before(h.nodes[r], h.nodes[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.nodes[i], h.nodes[best] = h.nodes[best], h.nodes[i]
		i = best
	}
	return top
}

// heftScheduler is HEFT (Topcuoglu et al., 2002) adapted to stage-grouped
// pipeline DAGs: ops are prioritized by upward rank (mean cost plus most
// expensive downstream chain) and placed at the earliest-finish-time worker,
// with the whole (replica, stage) group following its first placed op.
type heftScheduler struct{}

func (heftScheduler) Name() string { return "heft" }

func (heftScheduler) Schedule(g *Graph, costs CostModel, speed []float64) (*Schedule, error) {
	if UniformSpeed(speed) {
		return g.s, nil
	}
	p, err := newPlacementDAG(g, costs, speed)
	if err != nil {
		return nil, err
	}
	return p.eftSchedule("heft", p.upwardRanks(), nil)
}

// cpopScheduler is CPOP (critical-path-on-a-processor) adapted to
// stage-grouped pipeline DAGs. Classic CPOP pins every critical-path task to
// the one fastest processor; a pipeline's critical path traverses all D
// stages, so a literal pin would serialize the whole pipeline onto one
// worker. Instead the heaviest critical-path stage group is pinned to the
// fastest worker, and the rest place by earliest finish time in
// (upward + downward)-rank priority order.
type cpopScheduler struct{}

func (cpopScheduler) Name() string { return "cpop" }

func (cpopScheduler) Schedule(g *Graph, costs CostModel, speed []float64) (*Schedule, error) {
	if UniformSpeed(speed) {
		return g.s, nil
	}
	p, err := newPlacementDAG(g, costs, speed)
	if err != nil {
		return nil, err
	}
	up, down := p.upwardRanks(), p.downwardRanks()
	prio := make([]float64, len(up))
	cpVal := 0.0
	for i := range prio {
		prio[i] = up[i] + down[i]
		if prio[i] > cpVal {
			cpVal = prio[i]
		}
	}
	// Critical-path membership with a relative tolerance: ranks are sums of
	// small integer costs, but float addition order still deserves slack.
	eps := cpVal * 1e-9
	groups := len(g.s.Replicas) * g.s.D
	cpLoad := make([]float64, groups)
	for id := range prio {
		if cpVal-prio[id] <= eps {
			cpLoad[p.group[id]] += p.nodeCost[id]
		}
	}
	heaviest := 0
	for grp, load := range cpLoad {
		if load > cpLoad[heaviest] {
			heaviest = grp
		}
	}
	fastest := 0
	for w, f := range speed {
		if f < speed[fastest] {
			fastest = w
		}
	}
	pinned := make([]int32, groups)
	for i := range pinned {
		pinned[i] = -1
	}
	pinned[heaviest] = int32(fastest)
	return p.eftSchedule("cpop", prio, pinned)
}

// lbScheduler is the load-balancing baseline: longest-processing-time-first
// assignment of stage groups to workers minimizing the worker's resulting
// effective load (load × speed factor), keeping each worker's ops in the
// base schedule's construction-slot order. It ignores the dependency
// structure entirely — the floor any rank-aware policy must beat.
type lbScheduler struct{}

func (lbScheduler) Name() string { return "lb" }

func (lbScheduler) Schedule(g *Graph, costs CostModel, speed []float64) (*Schedule, error) {
	if UniformSpeed(speed) {
		return g.s, nil
	}
	p, err := newPlacementDAG(g, costs, speed)
	if err != nil {
		return nil, err
	}
	base := g.s
	d := base.D
	groups := len(base.Replicas) * d
	load := make([]float64, groups)
	for id, c := range p.nodeCost {
		load[p.group[id]] += c
	}
	order := make([]int, 0, groups)
	for grp, l := range load {
		if l > 0 {
			order = append(order, grp)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if load[order[i]] != load[order[j]] {
			return load[order[i]] > load[order[j]]
		}
		return order[i] < order[j]
	})
	groupWorker := make([]int32, groups)
	for i := range groupWorker {
		groupWorker[i] = -1
	}
	wload := make([]float64, d)
	for _, grp := range order {
		best := 0
		for w := 1; w < d; w++ {
			if (wload[w]+load[grp])*speed[w] < (wload[best]+load[grp])*speed[best] {
				best = w
			}
		}
		groupWorker[grp] = int32(best)
		wload[best] += load[grp]
	}
	out := p.emptyReshaped("lb", groupWorker)
	// Per-worker op order: the base schedule's replay start times under the
	// same cost model. Starts strictly increase along every data edge (a
	// consumer starts no earlier than its producer finishes, and ops have
	// positive cost), so merging groups in start order is deadlock-free for
	// any scheme — unlike construction slots, which tie across workers in
	// the 1F1B family.
	tl := g.Readout(costs.ReplayConfig()).Timeline()
	type placedOp struct {
		start int64
		id    int32
	}
	moved := make([][]placedOp, d)
	for w, starts := range tl.Start {
		for i, start := range starts {
			id := g.base[w] + int32(i)
			nw := groupWorker[p.group[id]]
			moved[nw] = append(moved[nw], placedOp{start, id})
		}
	}
	tl.Release()
	for nw, ops := range moved {
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].start != ops[j].start {
				return ops[i].start < ops[j].start
			}
			return ops[i].id < ops[j].id
		})
		for i, po := range ops {
			_, src := p.g.at(po.id)
			op := *src
			op.prio = int32(i)
			out.Workers[nw] = append(out.Workers[nw], op)
		}
	}
	return out, nil
}
