package schedule

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Graph is a schedule compiled to a dependency-graph IR. Nodes are the
// schedule's ops laid out worker-major (node id = base[w] + i for op i of
// worker w); edges are each worker's program order plus every distinct
// producer a node's tokens resolve to, stored as a fixed-stride table of
// predecessor rows with cross-worker edges flagged (they pay
// ReplayConfig.EdgeCost).
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
// copy of them; replay reads only the graph. A graph ChimeraConfig.Graph
// writes from the slot formulas has no schedule until Source builds it. A
// Graph's fields never change once it is returned, and it is safe for
// concurrent replays.
type Graph struct {
	// s is the schedule the graph was compiled from; lazy instead holds the
	// configuration of a graph written from the slot formulas, and builds
	// its schedule on first use.
	s    *Schedule
	lazy *lazySchedule
	// n is the schedule's micro-batch count, and direct marks a
	// fixed-placement, direct-concatenation Chimera schedule with F = 1:
	// what Extend checks, read here so that it needs no schedule.
	n      int
	direct bool
	// base[w] is the node id of worker w's first op; base[D] is the node
	// count.
	base []int32
	// shape[id] indexes shapes: the pricing class of node id.
	shape  []uint16
	shapes []opShape
	// Predecessor rows of arity slots each: node id's row is
	// pred[id·arity:(id+1)·arity]. Slot 0 is its program-order predecessor,
	// the previous op of its worker; the other slots are its distinct data
	// producers, in the order of the first micro-batch each one feeds. A
	// producer on a different worker than the consumer (it pays
	// ReplayConfig.EdgeCost) is stored bitwise-complemented (^p < 0),
	// packing the cross flag into the id's sign instead of a parallel
	// []bool. Unused slots — slot 0 of a worker's first op, data slots past
	// the last producer — hold the sentinel Nodes(), a node past the last
	// whose finish time every replay keeps at 0. arity is 1 + the most
	// distinct producers of any op, and at least 2: 2 for every generator
	// schedule (a doubled forward's two tokens come from one node), wider
	// only for hand-built ones.
	arity int32
	pred  []int32
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

// unpack splits a predecessor slot into the producing node id and whether
// the edge crosses workers.
func unpack(p int32) (int32, bool) {
	if p < 0 {
		return ^p, true
	}
	return p, false
}

// row returns node id's predecessor slots.
func (g *Graph) row(id int32) []int32 {
	i, a := int(id)*int(g.arity), int(g.arity)
	return g.pred[i : i+a : i+a]
}

// dataEdges returns node id's data producers, packed as in pred: its row
// past the program-order slot, up to the first sentinel.
func (g *Graph) dataEdges(id int32) []int32 {
	row := g.row(id)[1:]
	for i, p := range row {
		if p == int32(g.Nodes()) {
			return row[:i]
		}
	}
	return row
}

// at returns the worker and op of node id, read through the source
// schedule. Replay never needs it; placement policies and error paths do.
func (g *Graph) at(id int32) (int, *Op) {
	w := sort.Search(g.workers()-1, func(w int) bool { return g.base[w+1] > id })
	return w, &g.Source().Workers[w][id-g.base[w]]
}

// producerTab maps dependency tokens to producing node ids through a flat
// index instead of a hash map: token (kind, micro, stage, half) lives at
// ((kind·D + stage)·halves + half)·maxMicro + micro, halves being 1 unless
// the schedule halves its backward passes. An op's tokens differ only in
// micro, so they are idx(its token for micro 0) + m: compile computes that
// base once per op, not per token. Entries hold id+1, so a zeroed table
// records no producer.
type producerTab struct {
	d, maxMicro, halves int
	tab                 []int32
}

func newProducerTab(d, maxMicro, halves int) *producerTab {
	return &producerTab{d, maxMicro, halves, make([]int32, 2*maxMicro*d*halves)}
}

func (p *producerTab) idx(k depKey) int {
	return ((int(k.kind)*p.d+k.stage)*p.halves+int(k.half))*p.maxMicro + k.micro
}

// slot returns the producer of the token at index i as a predecessor slot of
// a consumer on the worker whose nodes are [lo, hi): complemented if it runs
// on another worker. ok is false if the token has no producer.
func (p *producerTab) slot(i int, lo, hi int32) (id int32, ok bool) {
	id = p.tab[i] - 1
	if id < lo || id >= hi {
		id = ^id
	}
	return id, p.tab[i] != 0
}

// putFirst records id as the producer of the token at index i unless one is
// already recorded (first producer wins on duplicate tokens; Validate
// rejects such schedules separately).
func (p *producerTab) putFirst(i int, id int32) {
	if p.tab[i] == 0 {
		p.tab[i] = id + 1
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

// workers returns the schedule's worker count, D.
func (g *Graph) workers() int { return len(g.base) - 1 }

// Nodes returns the op count. Edges returns the dependency-edge count: one
// program-order edge per op but a worker's first, plus one per distinct
// producer of each op's tokens — not one per consumed token: a doubled
// forward waits on its one producer once.
func (g *Graph) Nodes() int { return len(g.shape) }
func (g *Graph) Edges() int {
	edges := 0
	for _, p := range g.pred {
		if p != int32(g.Nodes()) {
			edges++
		}
	}
	return edges
}

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
		n:         s.N,
		direct:    s.Scheme == "chimera" && s.F == 1 && !s.DoubledForward && s.Scheduler == "",
		base:      make([]int32, s.D+1),
		shape:     make([]uint16, total),
		gradStart: make([]int32, s.D+1),
	}

	// The flat tables below need every index range up front. Micro ids are
	// dense small integers by construction, so the producer table stays tiny
	// (2·maxMicro·D·halves entries); replicas and maxLen (the widest micro
	// list) size the shape table.
	maxMicro, maxLen, replicas, halves := 0, 1, 1, 1
	nodes := int32(0)
	for w, ops := range s.Workers {
		g.base[w] = nodes
		nodes += int32(len(ops))
		for i := range ops {
			op := &ops[i]
			if op.Kind > Backward || op.Stage < 0 || op.Stage >= s.D || op.Replica < 0 || op.Half > 2 || len(op.Micros) == 0 {
				return nil, fmt.Errorf("schedule %q (D=%d N=%d): op %s on worker %d is malformed (kind, stage, replica, half or micro list out of range)", s.Scheme, s.D, s.N, *op, w)
			}
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
	producer := newProducerTab(s.D, maxMicro, halves)
	shapeTab := make([]int32, s.D*replicas*2*maxLen*3)
	lastB := make([]int32, s.D*replicas)
	// A generator places each (stage, replica) on one worker, so these bound
	// both tables; a hand-built schedule that exceeds them still appends.
	g.shapes = make([]opShape, 0, s.D*replicas*2*maxLen*halves)
	g.grad = make([]gradNode, 0, s.D*replicas)
	for w, ops := range s.Workers {
		firstNode, firstShape := g.base[w], int32(len(g.shapes))
		for i := range ops {
			op := &ops[i]
			id := firstNode + int32(i)
			at := producer.idx(depKey{op.Kind, 0, op.Stage, op.Half})
			for _, m := range op.Micros {
				producer.putFirst(at+m, id)
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

	if err := g.writeRows(producer, 2); err != nil {
		return nil, err
	}
	if err := g.topoSort(); err != nil {
		return nil, err
	}
	return g, nil
}

// writeRows writes the predecessor table in one pass over the tokens —
// each row is program order, then the op's distinct producers, then the
// sentinel — verifying every consumed token has a producer: an unresolvable
// token is the first class of construction deadlock, and it is diagnosable
// exactly here, with the op, worker and token in hand.
//
// Rows are a slots wide; compile asks for two, every generator schedule's
// width. An op with more distinct producers than fit — only hand-built
// schedules have one — starts the pass over one slot wider, so the table
// ends exactly as wide as its widest row.
func (g *Graph) writeRows(producer *producerTab, a int) error {
	s, sentinel := g.s, int32(g.Nodes())
	pred := make([]int32, a*int(sentinel))
	off := 0 // where the next row starts in pred
	for w, ops := range s.Workers {
		lo, hi := g.base[w], g.base[w+1]
		for i := range ops {
			op := &ops[i]
			id := lo + int32(i)
			row := pred[off : off+a]
			off += a
			row[0], row[1] = id-1, sentinel
			if i == 0 {
				row[0] = sentinel
			}
			for x := 2; x < a; x++ {
				row[x] = sentinel
			}
			k, ok := s.consumed(op)
			if !ok {
				continue
			}
			at := producer.idx(k)
			for j, m := range op.Micros {
				p, ok := producer.slot(at+m, lo, hi)
				if !ok {
					k.micro = m
					return g.noProducer(w, op, k)
				}
				if j == 0 {
					row[1] = p
					continue
				}
				// A later token: its producer's slot, or the first free one.
				x := 1
				for row[x] != p && row[x] != sentinel {
					if x++; x == a {
						return g.writeRows(producer, a+1)
					}
				}
				row[x] = p
			}
		}
	}
	g.arity, g.pred = int32(a), pred
	return nil
}

// noProducer is the deadlock of op on worker w waiting on a token k that no
// op produces.
func (g *Graph) noProducer(w int, op *Op, k depKey) error {
	s := g.s
	return fmt.Errorf("schedule %q (D=%d N=%d): deadlock: op %s on worker %d waits on %s, which no op produces",
		s.Scheme, s.D, s.N, *op, w, k)
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
	// One pooled scratch block: state per node and the sentinel | cursor,
	// next, ready per worker. Only state needs resetting on reuse — cursor
	// and ready are assigned below, and next[w] is written each time w
	// parks, before any read of it. The sentinel reads as emitted, so a
	// row's unused slots never park a worker.
	need := total + 1 + 3*d
	sp, _ := topoScratchPool.Get().(*[]int32)
	if sp == nil {
		sp = new([]int32)
	}
	if cap(*sp) < need {
		*sp = make([]int32, need)
	}
	defer topoScratchPool.Put(sp)
	block := (*sp)[:need]
	state := block[:total+1]
	clear(state)
	state[total] = nodeEmitted
	block = block[total+1:]
	cursor := block[:d]             // the node worker w runs next
	next := block[d : 2*d]          // the worker parked behind w, +1
	ready := block[2*d : 2*d : 3*d] // stack of runnable workers, cap d
	for w := d - 1; w >= 0; w-- {
		cursor[w] = g.base[w]
		ready = append(ready, int32(w))
	}
	order := make([]int32, total)
	emitted := 0
	pred, a := g.pred, int(g.arity)
	for len(ready) > 0 {
		w := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		id, hi := cursor[w], g.base[w+1]
		at := int(id) * a // where id's row starts in pred
	walk:
		for ; id < hi; id, at = id+1, at+a {
			// Not the program-order slot: the previous op was just emitted.
			for _, p := range pred[at+1 : at+a] {
				if p, _ = unpack(p); state[p] != nodeEmitted {
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
// stuck) producer. A row holds producers, not tokens, so the token is the
// first of the op's micro-batches that the producer carries.
func (g *Graph) deadlockError(cursor, state []int32, remaining int) error {
	s := g.Source()
	for w := 0; w < s.D; w++ {
		id := cursor[w]
		if id == g.base[w+1] {
			continue
		}
		op := &s.Workers[w][id-g.base[w]]
		unmet, _ := s.consumed(op)
		for _, p := range g.dataEdges(id) {
			if p, _ = unpack(p); state[p] == nodeEmitted {
				continue
			}
			pw, pop := g.at(p)
			for _, m := range op.Micros {
				if slices.Contains(pop.Micros, m) {
					unmet.micro = m
					break
				}
			}
			return fmt.Errorf("schedule %q (D=%d N=%d): deadlock with %d ops unscheduled: op %s on worker %d waits on %s, whose producer %s on worker %d cannot run",
				s.Scheme, s.D, s.N, remaining, *op, w, unmet, *pop, pw)
		}
	}
	return fmt.Errorf("schedule %q (D=%d N=%d): deadlock with %d ops unscheduled", s.Scheme, s.D, s.N, remaining)
}

// topoScratchPool recycles topoSort's scratch block across compilations
// (a cold sweep compiles a fresh graph per schedule).
var topoScratchPool sync.Pool

// run is the replay kernel, the one loop every replay entry point reaches:
// an op finishes at the latest of its predecessors' finish times (cross-worker
// edges add the consumer's edge cost) plus its own cost. cost and edge are
// indexed by shape; end by node id, with one more entry for the sentinel,
// which must hold 0. The recurrence is exactly the map interpreter's greedy
// semantics — each worker executes its list in order, blocking on receives —
// so finish times are bit-identical to it.
//
// Rows of two slots, every generator schedule's, take an unrolled body with
// no inner loop: slot 0 is program order and never crosses workers, so only
// slot 1 is unpacked. Wider rows take the plain loop.
func (g *Graph) run(end, cost, edge []int64) {
	if g.arity == 2 {
		for _, id := range g.order {
			sh, row := g.shape[id], g.pred[2*int(id):2*int(id)+2:2*int(id)+2]
			start := end[row[0]]
			if p := row[1]; p < 0 {
				start = max(start, end[^p]+edge[sh])
			} else {
				start = max(start, end[p])
			}
			end[id] = start + cost[sh]
		}
		return
	}
	for _, id := range g.order {
		sh := g.shape[id]
		var start int64
		for _, p := range g.row(id) {
			if p < 0 {
				start = max(start, end[^p]+edge[sh])
			} else {
				start = max(start, end[p])
			}
		}
		end[id] = start + cost[sh]
	}
}

// Readout is a replay reduced to what the planner path reads — makespan,
// per-worker compute-end and per-placement gradient-ready times — taken
// straight from the kernel's finish-time array, with no per-op timeline in
// between. It doubles as the recyclable scratch of a replay (finish array,
// priced shape vectors, and the per-op Timeline it hands out), drawn
// from one process-wide pool — a cold sweep compiles a fresh graph per
// schedule, so per-graph pools would never warm up — and sized to the
// largest graph seen. Release returns it; nothing read from a Readout, nor
// the Timeline presented from it, may be used afterwards.
//
// The read-outs take a worker's last node as its latest: finish times are
// non-decreasing along a worker's program order because op costs are
// non-negative, which every cost model here guarantees.
type Readout struct {
	g        *Graph
	end      []int64     // finish time per node, then the sentinel's 0
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
	r.end = grow(r.end, len(g.shape)+1)
	r.end[len(g.shape)] = 0 // the sentinel's finish time
	r.cost, r.edge = grow(r.cost, len(g.shapes)), grow(r.edge, len(g.shapes))
	for i := range g.shapes {
		sh := &g.shapes[i]
		r.cost[i], r.edge[i] = rc.OpCost(sh.worker, sh.op), rc.EdgeCost(sh.op)
	}
	g.run(r.end, r.cost, r.edge)
	r.makespan = 0
	for w := 0; w < g.workers(); w++ {
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

// FreeRegions is what Eq. 1's unoverlapped term reads of a replay: each
// stage replica's free region (§3.2 eager sync, Fig. 6), the time between
// its gradients being ready and its worker's compute ending. Worker w's
// regions are regions[start[w]:start[w+1]], ordered by (stage, replica) as
// GradReady is. The table owns its arrays and outlives the Readout it was
// read from, so a caller may keep it; it is read-only once built.
type FreeRegions struct {
	start   []int32
	regions []FreeRegion
}

// FreeRegion is one placement's free region: Slack is ComputeEnd(w) −
// GradReady.At on the worker that hosts it.
type FreeRegion struct {
	Stage int32
	Slack int64
}

// FreeRegions reads the replay's free regions into a table of their own. An
// extended read-out shifts compute-ends and grad-ready times by the same
// amount, so its slack is exact.
func (r *Readout) FreeRegions() *FreeRegions {
	g := r.g
	f := &FreeRegions{start: slices.Clone(g.gradStart), regions: make([]FreeRegion, len(r.ready))}
	for w := 0; w < g.workers(); w++ {
		end := r.ComputeEnd(w)
		for i := g.gradStart[w]; i < g.gradStart[w+1]; i++ {
			f.regions[i] = FreeRegion{int32(r.ready[i].Stage), end - r.ready[i].At}
		}
	}
	return f
}

// Worker lists worker w's free regions in (stage, replica) order: none for
// an idle worker. The slice is the table's own.
func (f *FreeRegions) Worker(w int) []FreeRegion {
	return f.regions[f.start[w]:f.start[w+1]]
}

// BubbleRatio is Timeline.BubbleRatio without the timeline: a worker's busy
// time is the summed cost of its ops, count·cost per shape.
func (r *Readout) BubbleRatio() float64 {
	total := r.makespan * int64(r.g.workers())
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
		d := int32(r.g.workers())
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
	d := int32(g.workers())
	if units < 1 || r.units != 0 || !g.direct || g.n/int(d) != 2 {
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

// Timeline presents the replay as a per-op Timeline, for callers that need
// every op's Start/End: End rows are views into the worker-major finish
// array, an op started its cost before it finished, and a worker was busy
// for the summed cost of its ops. The returned arrays are the read-out's own:
// Timeline.Release hands them back together with the read-out, and neither
// may be read afterwards. An Extended read-out holds the short schedule's
// finish times only, so Timeline panics on it.
func (r *Readout) Timeline() *Timeline {
	if r.units != 0 {
		panic("schedule: an extended read-out has no per-op timeline")
	}
	g, tl := r.g, &r.tl
	d := g.workers()
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

// ReplayWith is g.Readout(rc).Timeline(). It is kept only because the
// benchmark's plan and probe passes call it; library code takes the Readout.
func (g *Graph) ReplayWith(rc ReplayConfig) *Timeline { return g.Readout(rc).Timeline() }
