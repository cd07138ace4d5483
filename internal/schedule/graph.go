package schedule

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Graph is a schedule compiled to a dependency-graph IR. Nodes are the
// schedule's ops laid out worker-major (node id = base[w] + i for op i of
// worker w); edges are every resolved data dependency plus each worker's
// program order, stored as flat int-indexed CSR arrays with cross-worker
// edges flagged (they pay ReplayConfig.EdgeCost).
//
// Compilation resolves, exactly once, the two things about a schedule that
// no cost model changes: the dependency tokens, and the op shapes. A shape
// is what a cost may depend on — (worker, kind, stage, replica, micro count,
// half), never which micro-batch — so a schedule of thousands of ops has a
// few dozen (the paper prices a pass by its kind and stage, Eq. 1, and the
// §3.5 variants only by how many (half) micro-batches it carries). Replaying
// a cost model is then: price each shape once, and run one topological pass
// over two int64 vectors, O(ops + edges), with no maps, no closures and no
// rescanning. This is the tune-then-print access pattern of the paper's §4
// evaluation: the planner and the figure sweeps replay one schedule under
// many costs.
//
// The graph reads ops through the schedule it was compiled from and keeps no
// copy of them. A Graph is immutable after Compile and safe for concurrent
// replays.
type Graph struct {
	s *Schedule
	// base[w] is the node id of worker w's first op; base[D] is the node
	// count.
	base []int32
	// shape[id] indexes shapes: the pricing class of node id.
	shape  []uint16
	shapes []opShape
	// CSR predecessor lists: node id's predecessors are
	// pred[predStart[id]:predStart[id+1]]. An edge whose producer runs on
	// a different worker than the consumer (it pays ReplayConfig.EdgeCost)
	// is stored bitwise-complemented (^p < 0), packing the cross flag into
	// the id's sign instead of a parallel []bool.
	predStart []int32
	pred      []int32
	// order is a topological order of the node ids: a permutation in which
	// every predecessor comes before its consumer (existence is proven at
	// compile time; a cycle is the compile-time deadlock error). Which valid
	// order it is, nothing may depend on — see topoSort.
	order []int32
	// grad[gradStart[w]:gradStart[w+1]] lists the (replica, stage)
	// placements with a backward op on worker w, ordered by (stage,
	// replica), each with the node of its last backward op in w's program
	// order — where that placement's weight gradients are complete.
	gradStart []int32
	grad      []gradNode
}

// opShape is one pricing class: every node of the shape runs on worker,
// agrees with op in kind, stage, replica, micro count and half, and costs
// the same under any ReplayConfig. count is how many nodes share it.
type opShape struct {
	worker int
	op     Op
	count  int
}

type gradNode struct {
	StagePlacement
	node int32
}

// predAt unpacks edge e: the producing node id and whether the edge
// crosses workers.
func (g *Graph) predAt(e int32) (int32, bool) {
	p := g.pred[e]
	if p < 0 {
		return ^p, true
	}
	return p, false
}

// dataEdges returns the range of node id's data edges in pred, given the
// first node of its worker: every node but a worker's first leads with its
// program-order edge, then carries one data edge per consumed token, in
// Micros order.
func (g *Graph) dataEdges(id, workerFirst int32) (from, to int32) {
	from = g.predStart[id]
	if id > workerFirst {
		from++
	}
	return from, g.predStart[id+1]
}

// at returns the worker and op of node id, read through the source
// schedule. Replay never needs it; placement policies and error paths do.
func (g *Graph) at(id int32) (int, *Op) {
	w := sort.Search(len(g.base)-2, func(w int) bool { return g.base[w+1] > id })
	return w, &g.s.Workers[w][id-g.base[w]]
}

// producerTab maps dependency tokens to producing node ids through a flat
// index instead of a hash map: token (kind, micro, stage, half) lives at
// ((kind·maxMicro + micro)·D + stage)·halves + half, halves being 1 unless
// the schedule halves its backward passes. Compilation is the
// engine's uncached hot path and the map's hashing dominated its profile;
// the flat table removes it. Tables recycle through a pool, and entries
// are epoch-tagged (high half the owning compilation's epoch, low half
// id+1) so a reused table needs no zeroing — a stale epoch reads as "no
// producer".
type producerTab struct {
	d, maxMicro, halves int
	epoch               uint32
	tab                 []uint64
}

var producerPool sync.Pool

func getProducerTab(d, maxMicro, halves int) *producerTab {
	p, _ := producerPool.Get().(*producerTab)
	if p == nil {
		p = &producerTab{}
	}
	need := 2 * maxMicro * d * halves
	if cap(p.tab) < need {
		p.tab = make([]uint64, need)
	}
	p.tab = p.tab[:need]
	p.d, p.maxMicro, p.halves = d, maxMicro, halves
	p.epoch++
	if p.epoch == 0 { // wrapped: stale tags could collide, so clear once
		p.epoch = 1
		clear(p.tab)
	}
	return p
}

func (p *producerTab) idx(k depKey) int {
	return ((int(k.kind)*p.maxMicro+k.micro)*p.d+k.stage)*p.halves + int(k.half)
}

// get returns the producing node id for k, if any.
func (p *producerTab) get(k depKey) (int32, bool) {
	v := p.tab[p.idx(k)]
	if uint32(v>>32) != p.epoch {
		return -1, false
	}
	return int32(uint32(v)) - 1, true
}

// putFirst records id as k's producer unless one is already recorded
// (first producer wins on duplicate tokens; Validate rejects such
// schedules separately).
func (p *producerTab) putFirst(k depKey, id int32) {
	if i := p.idx(k); uint32(p.tab[i]>>32) != p.epoch {
		p.tab[i] = uint64(p.epoch)<<32 | uint64(uint32(id+1))
	}
}

// Graph returns the schedule's compiled dependency graph, building it on
// first use. The graph is built once per Schedule and cached — generators
// never mutate a schedule after returning it, and every replay entry point
// is read-only — so concurrent replays share one compilation.
func (s *Schedule) Graph() (*Graph, error) {
	s.compileOnce.Do(func() { s.compiled, s.compileErr = compileGraph(s) })
	return s.compiled, s.compileErr
}

// Nodes returns the op count; Edges the dependency-edge count (data edges
// plus worker program-order edges).
func (g *Graph) Nodes() int { return len(g.shape) }
func (g *Graph) Edges() int { return len(g.pred) }

// consumed returns the data token op waits on for each micro-batch it
// carries, with the micro field left for the caller to fill in: forward
// activations from the previous stage, the loss dependency at the last stage,
// and boundary gradients from the next stage (matching half under backward
// halving). ok is false for an op that consumes nothing (a first-stage
// forward). These are the execution semantics the map interpreter resolved
// per replay; the graph resolves them once.
func (s *Schedule) consumed(op *Op) (k depKey, ok bool) {
	switch {
	case op.Kind == Forward && op.Stage > 0:
		return depKey{kind: Forward, stage: op.Stage - 1}, true
	case op.Kind == Forward:
		return depKey{}, false
	case op.Stage == s.D-1:
		return depKey{kind: Forward, stage: op.Stage}, true
	default:
		return depKey{kind: Backward, stage: op.Stage + 1, half: op.Half}, true
	}
}

func (k depKey) String() string {
	half := ""
	if k.half != 0 {
		half = fmt.Sprintf(" half %d", k.half)
	}
	return fmt.Sprintf("%s(micro %d, stage %d%s)", k.kind, k.micro, k.stage, half)
}

func compileGraph(s *Schedule) (*Graph, error) {
	if len(s.Workers) != s.D {
		return nil, fmt.Errorf("schedule %q (D=%d N=%d): Workers lists %d workers, want D", s.Scheme, s.D, s.N, len(s.Workers))
	}
	total := s.OpsTotal()
	if int64(total) > math.MaxInt32 {
		return nil, fmt.Errorf("schedule %q (D=%d N=%d): %d ops exceed the graph's int32 node space", s.Scheme, s.D, s.N, total)
	}
	g := &Graph{
		s:         s,
		base:      make([]int32, s.D+1),
		shape:     make([]uint16, total),
		predStart: make([]int32, total+1),
		gradStart: make([]int32, s.D+1),
	}

	// The flat tables below need every index range up front. Micro ids are
	// dense small integers by construction, so the producer table stays tiny
	// (2·maxMicro·D·halves entries); replicas and maxLen (the widest micro
	// list) size the shape table. maxEdges bounds the CSR: one program-order
	// edge per op plus at most one data token per carried micro.
	maxMicro, maxEdges, maxLen, replicas, halves := 0, 0, 1, 1, 1
	nodes := int32(0)
	for w, ops := range s.Workers {
		g.base[w] = nodes
		nodes += int32(len(ops))
		for i := range ops {
			op := &ops[i]
			if op.Kind > Backward || op.Stage < 0 || op.Stage >= s.D || op.Replica < 0 || op.Half > 2 || len(op.Micros) == 0 {
				return nil, fmt.Errorf("schedule %q (D=%d N=%d): op %s on worker %d is malformed (kind, stage, replica, half or micro list out of range)", s.Scheme, s.D, s.N, *op, w)
			}
			maxEdges += 1 + len(op.Micros)
			maxLen = max(maxLen, len(op.Micros))
			replicas = max(replicas, op.Replica+1)
			halves = max(halves, int(op.Half)+1)
			for _, m := range op.Micros {
				if m < 0 {
					return nil, fmt.Errorf("schedule %q (D=%d N=%d): op %s has negative micro-batch id", s.Scheme, s.D, s.N, *op)
				}
				maxMicro = max(maxMicro, m+1)
			}
		}
	}
	g.base[s.D] = nodes

	// One pass registers every token's producer, names each node's shape and
	// records where each placement's gradients complete. Like producerTab,
	// the shape and last-backward tables are flat, and need no clearing
	// between workers: nodes and shapes are numbered worker-major, so an
	// entry (stored +1) left by an earlier worker is recognizably stale —
	// it is no greater than the current worker's first id. Both tables index
	// placements as stage·replicas + replica, so scanning lastB in index
	// order yields the (stage, replica) order of the grad-ready read-out.
	producer := getProducerTab(s.D, maxMicro, halves)
	defer producerPool.Put(producer)
	shapeTab := make([]int32, s.D*replicas*2*maxLen*3)
	lastB := make([]int32, s.D*replicas)
	for w, ops := range s.Workers {
		firstNode, firstShape := g.base[w], int32(len(g.shapes))
		for i := range ops {
			op := &ops[i]
			id := firstNode + int32(i)
			for _, m := range op.Micros {
				producer.putFirst(depKey{op.Kind, m, op.Stage, op.Half}, id)
			}
			pl := op.Stage*replicas + op.Replica
			slot := &shapeTab[((pl*2+int(op.Kind))*maxLen+len(op.Micros)-1)*3+int(op.Half)]
			if *slot <= firstShape {
				g.shapes = append(g.shapes, opShape{worker: w, op: *op})
				*slot = int32(len(g.shapes))
			}
			g.shapes[*slot-1].count++
			g.shape[id] = uint16(*slot - 1)
			if op.Kind == Backward {
				lastB[pl] = id + 1
			}
		}
		for pl, v := range lastB {
			if v > firstNode {
				g.grad = append(g.grad, gradNode{StagePlacement{Replica: pl % replicas, Stage: pl / replicas}, v - 1})
			}
		}
		g.gradStart[w+1] = int32(len(g.grad))
	}
	if len(g.shapes) > math.MaxUint16+1 {
		return nil, fmt.Errorf("schedule %q (D=%d N=%d): %d op shapes exceed the graph's uint16 shape space", s.Scheme, s.D, s.N, len(g.shapes))
	}

	// Build the predecessor CSR in a single pass: edges are emitted
	// directly into an upper-bound-sized array (trimmed afterwards) with
	// predStart compacting as we go, verifying every consumed token has a
	// producer — an unresolvable token is the first class of construction
	// deadlock, and it is diagnosable exactly here, with the op, worker
	// and token in hand. dataEdges states the layout of a node's edges.
	pred := make([]int32, maxEdges)
	e := int32(0)
	for w, ops := range s.Workers {
		lo, hi := g.base[w], g.base[w+1]
		for i := range ops {
			op := &ops[i]
			id := lo + int32(i)
			g.predStart[id] = e
			if i > 0 {
				pred[e] = id - 1 // program-order edge to the previous op
				e++
			}
			k, ok := s.consumed(op)
			if !ok {
				continue
			}
			for _, m := range op.Micros {
				k.micro = m
				p, ok := producer.get(k)
				if !ok {
					return nil, fmt.Errorf("schedule %q (D=%d N=%d): deadlock: op %s on worker %d waits on %s, which no op produces",
						s.Scheme, s.D, s.N, *op, w, k)
				}
				if p < lo || p >= hi { // produced on another worker
					p = ^p
				}
				pred[e] = p
				e++
			}
		}
	}
	g.predStart[total] = e
	g.pred = pred[:e:e]

	if err := g.topoSort(); err != nil {
		return nil, err
	}
	return g, nil
}

// A node's state during topoSort: emitted, nobody waiting for it yet (the
// zero value, so clearing the scratch block resets it), or w+1 > 0 when
// worker w heads the chain of workers parked on it.
const (
	nodeEmitted  int32 = -1
	nodeNoWaiter int32 = 0
)

// topoSort computes g.order by running the schedule the way its workers
// would, without clocks: each worker walks its program until it reaches an op
// with a predecessor not yet emitted, parks on that predecessor, and is put
// back on the ready stack when the predecessor is emitted. Program order is
// the walk itself, so only data edges are ever looked at, each at most once
// per time its consumer is (re)visited — O(nodes + edges) with no indegree
// array and no successor lists. Workers parked on one node form a chain
// through next, headed by the node's state.
//
// The replay kernel (run) is a max-plus recurrence over the DAG, so finish
// times are the same for every valid topological order; nothing may depend
// on which one this is, and TestGraphOrderIsTopological pins only validity.
//
// If the ready stack drains with ops left, every unfinished worker is parked
// on a data edge whose producer can never run: a cycle, the second class of
// construction deadlock (an op ordered before one of its dependencies on the
// same worker, or workers waiting on each other).
func (g *Graph) topoSort() error {
	total, d := g.Nodes(), len(g.base)-1
	// One pooled scratch block: state per node | cursor, next, ready per
	// worker. Only state needs clearing on reuse — cursor and ready are
	// assigned below, and next[w] is written each time w parks, before any
	// read of it.
	need := total + 3*d
	sp, _ := topoScratchPool.Get().(*[]int32)
	if sp == nil {
		sp = new([]int32)
	}
	if cap(*sp) < need {
		*sp = make([]int32, need)
	}
	defer topoScratchPool.Put(sp)
	block := (*sp)[:need]
	state := block[:total]
	clear(state)
	cursor := block[total : total+d]             // the node worker w runs next
	next := block[total+d : total+2*d]           // the worker parked behind w, +1
	ready := block[total+2*d : total+2*d : need] // stack of runnable workers, cap d
	for w := d - 1; w >= 0; w-- {
		cursor[w] = g.base[w]
		ready = append(ready, int32(w))
	}
	order := make([]int32, total)
	emitted := 0
	for len(ready) > 0 {
		w := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		id, lo, hi := cursor[w], g.base[w], g.base[w+1]
	walk:
		for ; id < hi; id++ {
			// Not the program-order edge: the previous op was just emitted.
			for e, to := g.dataEdges(id, lo); e < to; e++ {
				if p, _ := g.predAt(e); state[p] != nodeEmitted {
					next[w], state[p] = state[p], w+1
					break walk
				}
			}
			order[emitted] = id
			emitted++
			for waiter := state[id]; waiter != nodeNoWaiter; waiter = next[waiter-1] {
				ready = append(ready, waiter-1)
			}
			state[id] = nodeEmitted
		}
		cursor[w] = id
	}
	if emitted < total {
		return g.deadlockError(cursor, state, total-emitted)
	}
	g.order = order
	return nil
}

// deadlockError diagnoses a dependency cycle from where topoSort stopped: it
// names the parked op of the first worker, in worker order, that could not
// finish — its worker, the unmet dependency token, and the token's (equally
// stuck) producer.
func (g *Graph) deadlockError(cursor, state []int32, remaining int) error {
	s := g.s
	for w := 0; w < s.D; w++ {
		id := cursor[w]
		if id == g.base[w+1] {
			continue
		}
		op := &s.Workers[w][id-g.base[w]]
		unmet, _ := s.consumed(op)
		first, to := g.dataEdges(id, g.base[w])
		for e := first; e < to; e++ {
			p, _ := g.predAt(e)
			if state[p] == nodeEmitted {
				continue
			}
			unmet.micro = op.Micros[e-first]
			pw, pop := g.at(p)
			return fmt.Errorf("schedule %q (D=%d N=%d): deadlock with %d ops unscheduled: op %s on worker %d waits on %s, whose producer %s on worker %d cannot run",
				s.Scheme, s.D, s.N, remaining, *op, w, unmet, *pop, pw)
		}
	}
	return fmt.Errorf("schedule %q (D=%d N=%d): deadlock with %d ops unscheduled", s.Scheme, s.D, s.N, remaining)
}

// topoScratchPool recycles topoSort's scratch block across compilations
// (the uncached sweep compiles a fresh graph per evaluation).
var topoScratchPool sync.Pool

// run is the replay kernel, the one loop every replay entry point reaches:
// an op finishes at the latest of its predecessors' finish times (cross-worker
// edges add the consumer's edge cost) plus its own cost. cost and edge are
// indexed by shape; end by node id. The recurrence is exactly the map
// interpreter's greedy semantics — each worker executes its list in order,
// blocking on receives — so finish times are bit-identical to it.
func (g *Graph) run(end, cost, edge []int64) {
	for _, id := range g.order {
		sh := g.shape[id]
		var start int64
		for _, p := range g.pred[g.predStart[id]:g.predStart[id+1]] {
			var t int64
			if p < 0 {
				t = end[^p] + edge[sh]
			} else {
				t = end[p]
			}
			if t > start {
				start = t
			}
		}
		end[id] = start + cost[sh]
	}
}

// Readout is a replay reduced to what the planner path reads — makespan,
// per-worker compute-end and per-placement gradient-ready times — taken
// straight from the kernel's finish-time array, with no per-op timeline in
// between. It doubles as the recyclable scratch of a replay (finish array,
// priced shape vectors, and the Timeline view ReplayWith presents), drawn
// from one process-wide pool — the uncached sweep compiles a fresh graph per
// evaluation, so per-graph pools would never warm up — and sized to the
// largest graph seen. Release returns it; nothing read from a Readout, nor
// the Timeline presented from it, may be used afterwards.
//
// The read-outs take a worker's last node as its latest: finish times are
// non-decreasing along a worker's program order because op costs are
// non-negative, which every cost model here guarantees.
type Readout struct {
	g        *Graph
	end      []int64     // finish time per node
	cost     []int64     // op cost per shape
	edge     []int64     // cross-worker edge cost per shape
	ready    []GradReady // one per g.grad entry
	makespan int64
	// units > 0 marks a read-out Extend moved on by that many basic units,
	// shift = units·λ later: end[] still holds the short schedule's times.
	units int
	shift int64
	start []int64 // start time per node; filled only for a Timeline
	tl    Timeline
}

// GradReady is the moment one stage replica's weight gradients are fully
// accumulated on its worker — the finish of its last backward op — and their
// allreduce may be launched eagerly (§3.2 of the paper).
type GradReady struct {
	StagePlacement
	At int64
}

var readoutPool sync.Pool

// grow returns s resized to n elements, reallocating only when its capacity
// is short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Readout replays the graph under rc: it prices each shape once, runs the
// kernel, and returns the read-outs. Steady state allocates nothing when
// callers Release what they are done with; a Readout that is never released
// is simply collected — Release is an optimization, not an obligation.
func (g *Graph) Readout(rc ReplayConfig) *Readout {
	r, _ := readoutPool.Get().(*Readout)
	if r == nil {
		r = &Readout{}
	}
	r.g, r.units, r.shift = g, 0, 0
	r.end = grow(r.end, len(g.shape))
	r.cost, r.edge = grow(r.cost, len(g.shapes)), grow(r.edge, len(g.shapes))
	for i := range g.shapes {
		sh := &g.shapes[i]
		r.cost[i], r.edge[i] = rc.OpCost(sh.worker, sh.op), rc.EdgeCost(sh.op)
	}
	g.run(r.end, r.cost, r.edge)
	r.makespan = 0
	for w := 0; w < g.s.D; w++ {
		r.makespan = max(r.makespan, r.ComputeEnd(w))
	}
	r.ready = grow(r.ready, len(g.grad))
	for i, gn := range g.grad {
		r.ready[i] = GradReady{gn.StagePlacement, r.end[gn.node]}
	}
	return r
}

// Makespan is the completion time of the last op.
func (r *Readout) Makespan() int64 { return r.makespan }

// ComputeEnd is the completion time of worker w's final op: 0 for a worker
// the placement left without ops.
func (r *Readout) ComputeEnd(w int) int64 {
	lo, hi := r.g.base[w], r.g.base[w+1]
	if lo == hi {
		return 0
	}
	return r.end[hi-1] + r.shift
}

// GradReady lists, ordered by (stage, replica), every placement with a
// backward op on worker w and when its gradients are ready. An idle worker
// has none. The slice is the Readout's own: valid until Release.
func (r *Readout) GradReady(w int) []GradReady {
	return r.ready[r.g.gradStart[w]:r.g.gradStart[w+1]]
}

// BubbleRatio is Timeline.BubbleRatio without the timeline: a worker's busy
// time is the summed cost of its ops, count·cost per shape.
func (r *Readout) BubbleRatio() float64 {
	total := r.makespan * int64(r.g.s.D)
	if total == 0 {
		return 0
	}
	var busy int64
	for i := range r.g.shapes {
		busy += int64(r.g.shapes[i].count) * r.cost[i]
	}
	if r.units > 0 {
		// Each unit left out keeps every worker busy for one period: the
		// summed cost of 2D consecutive steady-state ops.
		d := int32(r.g.s.D)
		var period int64
		for w := int32(0); w < d; w++ {
			for _, sh := range r.g.shape[r.g.base[w]+d : r.g.base[w]+3*d] {
				period += r.cost[sh]
			}
		}
		busy += int64(r.units) * period
	}
	return float64(total-busy) / float64(total)
}

// Extend turns the read-out of a two-unit direct-concatenation Chimera
// schedule (D, 2D + r), r < D — the short side of
// ChimeraConfig.ReplayEquivalent — into the read-out of (D, (2+units)·D + r),
// or reports false and changes nothing. It verifies on the finish array in
// place that the replay has reached its steady state: program indices
// D … 3D/2 of every worker finish exactly λ before the indices 2D later, one
// int64 λ for all D workers. Every unit left out then repeats that period, so
// makespan, compute-ends and grad-ready times move on by units·λ, bit for bit
// what the full replay computes. Any other schedule, or a replay that has not
// settled (per-worker speed factors usually have not), is refused: the caller
// replays the full schedule instead.
func (r *Readout) Extend(units int) bool {
	g := r.g
	s, d := g.s, int32(g.s.D)
	if units < 1 || r.units != 0 || s.Scheme != "chimera" || s.F != 1 || s.DoubledForward || s.Scheduler != "" || s.N/s.D != 2 {
		return false
	}
	lambda := r.end[3*d] - r.end[d]
	for w := int32(0); w < d; w++ {
		for id := g.base[w] + d; id <= g.base[w]+d+d/2; id++ {
			if r.end[id+2*d]-r.end[id] != lambda {
				return false
			}
		}
	}
	r.units, r.shift = units, int64(units)*lambda
	r.makespan += r.shift
	for i := range r.ready {
		r.ready[i].At += r.shift
	}
	return true
}

// Release hands the Readout back to the pool so the next replay reuses its
// arrays without allocating. It drops the graph first: pooled scratch is
// plain arrays and pins no graph or schedule. Safe on a nil receiver; a
// second Release is a no-op.
func (r *Readout) Release() {
	if r == nil || r.g == nil {
		return
	}
	r.g = nil
	readoutPool.Put(r)
}

// timeline presents the replay as a per-op Timeline: End rows are views
// into the worker-major finish array, an op started its cost before it
// finished, and a worker was busy for the summed cost of its ops.
func (r *Readout) timeline() *Timeline {
	if r.units != 0 {
		panic("schedule: an extended read-out has no per-op timeline")
	}
	g, tl := r.g, &r.tl
	d := g.s.D
	r.start = grow(r.start, len(g.shape))
	for id, sh := range g.shape {
		r.start[id] = r.end[id] - r.cost[sh]
	}
	tl.Start, tl.End, tl.BusyTime = grow(tl.Start, d), grow(tl.End, d), grow(tl.BusyTime, d)
	for w := 0; w < d; w++ {
		lo, hi := g.base[w], g.base[w+1]
		tl.Start[w], tl.End[w], tl.BusyTime[w] = r.start[lo:hi:hi], r.end[lo:hi:hi], 0
	}
	for i := range g.shapes {
		tl.BusyTime[g.shapes[i].worker] += int64(g.shapes[i].count) * r.cost[i]
	}
	tl.Makespan, tl.replay = r.makespan, r
	return tl
}

// ReplayWith evaluates the graph under rc and presents the per-op timeline
// (see Readout for the replay itself; callers that need no Start/End rows
// should take the Readout instead). The timeline's arrays are the pooled
// Readout's: Timeline.Release hands them back.
func (g *Graph) ReplayWith(rc ReplayConfig) *Timeline {
	return g.Readout(rc).timeline()
}

// Replay is ReplayWith under a uniform cost model.
func (g *Graph) Replay(cm CostModel) *Timeline {
	return g.ReplayWith(cm.ReplayConfig())
}
