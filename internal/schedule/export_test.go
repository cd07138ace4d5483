package schedule

import "fmt"

// OrderError checks what compile promises about the graph's node order and
// nothing more: it is a permutation of the node ids in which every
// predecessor — program-order and data — comes before its consumer. It lives
// here so the external test package (the one that can import the reference
// interpreter) can run the same check as the internal one.
func (g *Graph) OrderError() error {
	if len(g.order) != g.Nodes() {
		return fmt.Errorf("order lists %d nodes, graph has %d", len(g.order), g.Nodes())
	}
	at := make([]int, g.Nodes()) // position in order, +1; 0 = not seen yet
	for i, id := range g.order {
		if id < 0 || int(id) >= g.Nodes() {
			return fmt.Errorf("order[%d] = %d is not a node id", i, id)
		}
		if at[id] != 0 {
			return fmt.Errorf("node %d appears at %d and again at %d", id, at[id]-1, i)
		}
		at[id] = i + 1
		for _, p := range g.row(id) {
			if p, _ = unpack(p); p != int32(g.Nodes()) && at[p] == 0 {
				return fmt.Errorf("node %d at position %d precedes its predecessor %d", id, i, p)
			}
		}
	}
	return nil
}

// Arity is the width of the graph's predecessor rows, for the external test
// package's hand-built schedules.
func (g *Graph) Arity() int { return int(g.arity) }

// PeriodicNs and ExhaustiveD hand the periodicity tests' micro-batch counts
// and depth bound to the external test package, which can import the engine.
var (
	PeriodicNs  = periodicNs
	ExhaustiveD = exhaustiveD
)
