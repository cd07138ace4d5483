package schedule

import (
	"fmt"
	"math"
	"sync"
)

// Graph returns the compiled graph of the schedule Chimera builds for cfg
// without building that schedule, or nil when cfg is outside Residency's
// scope (F > 1, forward doubling or backward halving at N > D): build the
// schedule and compile it. Invalid configurations return Chimera's error.
//
// §3.1's slot formulas fix every op (pairSlots). Worker w hosts stage w of
// the down pipeline and stage D−1−w of the up one; in the unit that starts
// at slot 2Du it runs the down pipeline's m-th forward at w + 2m and its
// backward at 2D−1−w + 2m, the up pipeline's at D−1−w + 2m and D+w + 2m.
// No two of a worker's ops share a slot, so its program is its ops in slot
// order, and every op's data producer ran one slot before it: the same pass
// of the neighboring stage, on the neighboring worker of its pipeline, or,
// for a last-stage backward, its own forward. One walk over the slots, every
// worker at each slot, therefore numbers the nodes and writes each
// predecessor row from the node it saw one slot back on the producer's
// worker — no op list, no token table, no second pass — and names the shapes
// and gradient nodes on the way. No sort runs for the topological order
// either: a node's producer sits one slot before it on a neighboring worker
// (or its own) and its program-order predecessor at an earlier slot on its
// own, so any order that puts slot t − 1 of workers w − 1, w and w + 1
// before slot t of worker w is valid. Slot order itself is one, and the
// walk writes it as it goes. The oracle sweep (TestChimeraClosedForms) and
// FuzzChimeraGraph hold the graph to compileGraph(Chimera(cfg)): DeepEqual
// but for the order, which is a valid one, and bit-identical replays.
//
// The graph's Source builds the schedule on first use, with its Graph()
// pre-set to this graph.
func (cfg ChimeraConfig) Graph() (*Graph, error) {
	f, err := cfg.check()
	if err != nil || f > 1 || (cfg.N > cfg.D && cfg.Concat != Direct) {
		return nil, err
	}
	d, n := cfg.D, cfg.N
	if n > math.MaxInt32/(2*d) {
		return nil, fmt.Errorf("schedule %q (D=%d N=%d): %d ops exceed the graph's int32 node space", "chimera", d, n, 2*n*d)
	}
	// Every worker runs a forward and a backward of each micro-batch, priced
	// in four shapes (kind × pipeline): two while the up pipeline has no
	// micro-batch (N = 1).
	perWorker := 4
	if n == 1 {
		perWorker = 2
	}
	if perWorker*d > math.MaxUint16+1 {
		return nil, fmt.Errorf("schedule %q (D=%d N=%d): %d op shapes exceed the graph's uint16 shape space", "chimera", d, n, perWorker*d)
	}
	total := 2 * n * d
	sentinel := int32(total)
	g := &Graph{
		lazy:      &lazySchedule{cfg: ChimeraConfig{D: d, N: n}},
		n:         n,
		direct:    true,
		base:      make([]int32, d+1),
		shape:     make([]uint16, total),
		shapes:    make([]opShape, perWorker*d),
		arity:     2,
		pred:      make([]int32, 2*total),
		order:     make([]int32, 0, total),
		gradStart: make([]int32, d+1),
		grad:      make([]gradNode, 0, 2*d),
	}
	for w := range d {
		g.base[w+1] = g.base[w] + int32(2*n)
	}

	// Per worker: the next node id; the node at the previous and at the
	// current slot (the sentinel if none); the shape of each op class, +1
	// (0: not seen yet); the shapes named so far; the last backward node of
	// each pipeline.
	scratch := make([]int32, 10*d)
	next, prev, cur := scratch[:d:d], scratch[d:2*d:2*d], scratch[2*d:3*d:3*d]
	shapeOf, named, lastB := scratch[3*d:7*d:7*d], scratch[7*d:8*d:8*d], scratch[8*d:10*d:10*d]
	copy(next, g.base)
	micros := microTable(n)
	units := (n + d - 1) / d
	last := n - (units-1)*d // micro-batches in the last unit
	period := 2 * d
	for t, tu, tr := 0, 0, 0; t < period*units+d; t++ {
		for w := range d {
			cur[w] = sentinel
			// Slot t holds, on worker w, a down forward or an up backward
			// (class 0, 1) if it has w's parity, else an up forward or a down
			// backward (class 2, 3); each pair starts at its offset o.
			o, c := w, 0
			if (t-w)&1 != 0 {
				o, c = d-1-w, 2
			}
			r, u := tr-o, tu
			if r < 0 {
				r, u = r+period, u-1
			}
			if u < 0 || u >= units {
				continue
			}
			if r >= d {
				r, c = r-d, c+1
			}
			down, up := d/2, d/2
			if u == units-1 {
				down, up = (last+1)/2, last/2
			}
			m := r / 2
			// Class 0 and 3 are the down pipeline (replica 0, stage w), 1 and
			// 2 the up one (replica 1, stage D−1−w); 0 and 2 are forwards.
			kind, rep, st, mb := Forward, 0, w, u*d+m
			if c == 1 || c == 2 {
				if m >= up {
					continue
				}
				rep, st, mb = 1, d-1-w, mb+down
			} else if m >= down {
				continue
			}
			p := sentinel
			switch c {
			case 0: // F(m, w) after F(m, w−1)
				if w > 0 {
					p = ^prev[w-1]
				}
			case 1, 3: // B(m, s) after B(m, s+1), or after F(m, s) at s = D−1
				kind = Backward
				nb := w - 1
				if c == 3 {
					nb = w + 1
				}
				if st == d-1 {
					p = prev[w]
				} else {
					p = ^prev[nb]
				}
			case 2: // F(m, D−1−w) after F(m, D−2−w)
				if w < d-1 {
					p = ^prev[w+1]
				}
			}
			id := next[w]
			next[w], cur[w] = id+1, id
			g.order = append(g.order, id)
			row := g.pred[2*id : 2*id+2 : 2*id+2]
			row[0], row[1] = id-1, p
			if id == g.base[w] {
				row[0] = sentinel
			}
			sh := &shapeOf[4*w+c]
			if *sh == 0 {
				i := perWorker*w + int(named[w])
				named[w]++
				*sh = int32(i + 1)
				g.shapes[i] = opShape{worker: w, op: Op{Kind: kind, prio: int32(t), Stage: st, Replica: rep, Micros: micros[mb : mb+1 : mb+1]}}
			}
			g.shape[id] = uint16(*sh - 1)
			if kind == Backward {
				lastB[2*w+rep] = id
			}
		}
		prev, cur = cur, prev
		if tr++; tr == period {
			tr, tu = 0, tu+1
		}
	}

	// A shape holds every forward or every backward of its pipeline on its
	// worker: one per micro-batch the pipeline carries.
	down := (units-1)*(d/2) + (last+1)/2
	for i := range g.shapes {
		g.shapes[i].count = down
		if g.shapes[i].op.Replica == 1 {
			g.shapes[i].count = n - down
		}
	}
	// Worker w's placements in (stage, replica) order: stage w of the down
	// pipeline and stage D−1−w of the up one, which has none at N = 1.
	for w := range d {
		down := gradNode{StagePlacement{Replica: 0, Stage: w}, lastB[2*w]}
		up := gradNode{StagePlacement{Replica: 1, Stage: d - 1 - w}, lastB[2*w+1]}
		switch {
		case n == 1:
			g.grad = append(g.grad, down)
		case w < d-1-w:
			g.grad = append(g.grad, down, up)
		default:
			g.grad = append(g.grad, up, down)
		}
		g.gradStart[w+1] = int32(len(g.grad))
	}
	return g, nil
}

// lazySchedule is the source of a graph written from the slot formulas: a
// configuration check accepted, and the schedule Chimera builds for it once
// something reads the ops.
type lazySchedule struct {
	once sync.Once
	cfg  ChimeraConfig
	s    *Schedule
}

// get builds the schedule on first use, with its compiled graph pre-set to
// g, and returns it.
func (l *lazySchedule) get(g *Graph) *Schedule {
	l.once.Do(func() {
		l.s = newChimera(l.cfg, 1, doublingUpPhase)
		l.s.compileOnce.Do(func() { l.s.compiled = g })
	})
	return l.s
}
