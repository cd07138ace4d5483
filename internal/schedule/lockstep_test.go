package schedule

import (
	"fmt"
	"testing"
)

// exhaustiveD bounds the depth sweep of the exhaustive suites: the full
// range on a plain run, the short one under -short and under the race
// detector, which has nothing to find in these single-goroutine loops and
// runs them ten times slower (make race-sweep repeats the package five
// times).
func exhaustiveD(full, short int) int {
	if testing.Short() || raceEnabled {
		return short
	}
	return full
}

// mustGraph builds and compiles a Chimera schedule.
func mustGraph(tb testing.TB, cfg ChimeraConfig) *Graph {
	tb.Helper()
	s, err := Chimera(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// sameNode reports whether node a of ga and node b of gb agree in shape and
// in every predecessor slot (same order, same worker, same cross flag, unused
// in both or in neither), each predecessor's program index shifted by as
// much as the node's own.
func sameNode(ga *Graph, a int32, gb *Graph, b int32) bool {
	sa, sb := ga.shapes[ga.shape[a]], gb.shapes[gb.shape[b]]
	if sa.worker != sb.worker || sa.op.Kind != sb.op.Kind || sa.op.Stage != sb.op.Stage ||
		sa.op.Replica != sb.op.Replica || len(sa.op.Micros) != len(sb.op.Micros) || sa.op.Half != sb.op.Half {
		return false
	}
	ra, rb := ga.row(a), gb.row(b)
	if len(ra) != len(rb) {
		return false
	}
	shift := (b - gb.base[sb.worker]) - (a - ga.base[sa.worker])
	for k := range ra {
		pa, ca := unpack(ra[k])
		pb, cb := unpack(rb[k])
		if unusedA, unusedB := pa == int32(ga.Nodes()), pb == int32(gb.Nodes()); unusedA || unusedB {
			if unusedA != unusedB {
				return false
			}
			continue
		}
		wa, _ := ga.at(pa)
		wb, _ := gb.at(pb)
		if wa != wb || ca != cb || (pb-gb.base[wb])-(pa-ga.base[wa]) != shift {
			return false
		}
	}
	return true
}

// checkLockstep pins, on the compiled predecessor rows, the periodic
// structure of a direct schedule that the closed forms' step of one unit
// rests on (free regions that repeat one unit later, compute-path families
// that grow by a fixed vector per unit; DESIGN.md §3 item 4):
//
//	S1  every edge joins ops at most one program index apart — the producer
//	    sits at index i−1 or i of its worker, never later — so the i-th ops
//	    of all workers are a function of the (i−1)-th alone;
//	S2  op i+2D repeats op i, predecessors shifted by 2D, outside a head of
//	    D/2 indices and a tail of D/2−1 indices plus the partial unit.
func checkLockstep(p *sweepPoint) error {
	g, err := p.graph()
	if err != nil {
		return err
	}
	d, units := p.cfg.D, p.cfg.N/p.cfg.D
	period := int32(2 * d)
	for w := 0; w < d; w++ {
		lo, hi := g.base[w], g.base[w+1]
		for id := lo; id < hi; id++ {
			i := id - lo
			for _, q := range g.row(id) {
				if q, _ = unpack(q); q == int32(g.Nodes()) {
					continue
				}
				qw, _ := g.at(q)
				if j := q - g.base[qw]; j != i && j != i-1 {
					return fmt.Errorf("worker %d: op %d waits on op %d of worker %d", w, i, j, qw)
				}
			}
			regular := i >= period+int32(d/2) && i <= int32(2*d*units-d/2)
			if regular && !sameNode(g, id-period, g, id) {
				return fmt.Errorf("worker %d: op %d does not repeat op %d", w, i, i-period)
			}
		}
	}
	return nil
}
