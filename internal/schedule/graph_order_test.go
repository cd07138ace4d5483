package schedule

import (
	"strings"
	"testing"
)

// TestGraphOrderIsTopological pins the one thing compile promises about
// Graph.order — a permutation of the node ids with every predecessor ahead of
// its consumer — over every generator and every list-scheduled re-placement
// of each. Which valid order it is stays free: the replay kernel is a
// max-plus recurrence, so finish times cannot depend on it (the
// graph-vs-interpreter suite holds them bit-identical). The matrix compiles
// back to back on one goroutine, so the pooled scratch block is reused
// between schedules of different sizes: state left over from the previous
// compile would read as "already emitted" here.
func TestGraphOrderIsTopological(t *testing.T) {
	for name, s := range orderingMatrix(t) {
		g, err := s.Graph()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := g.OrderError(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestDeadlockOnOwnToken: the token grammar cannot make an op consume what it
// produces itself (a token and its consumer differ in stage or kind), so the
// self-edge is wired into a compiled graph by hand. The sort must park the
// worker on its own node and report it, not emit it or spin.
func TestDeadlockOnOwnToken(t *testing.T) {
	s := &Schedule{
		Scheme: "own-token", D: 2, N: 1,
		Workers: [][]Op{
			{{Kind: Forward, Stage: 0, Micros: []int{0}}, {Kind: Backward, Stage: 0, Micros: []int{0}}},
			{{Kind: Forward, Stage: 1, Micros: []int{0}}, {Kind: Backward, Stage: 1, Micros: []int{0}}},
		},
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 is B0@s0: a program-order edge, then its data edge to B0@s1.
	if p, cross := g.predAt(g.predStart[1] + 1); p != 3 || !cross {
		t.Fatalf("B0@s0's data edge is (%d, cross=%v), want node 3 across workers", p, cross)
	}
	g.pred[g.predStart[1]+1] = 1
	err = g.topoSort()
	if err == nil {
		t.Fatal("want a deadlock error for a self-edge, got none")
	}
	for _, want := range []string{"deadlock with 1 ops unscheduled", "op B0@s0/r0 on worker 0", "waits on B(micro 0, stage 1)", "producer B0@s0/r0 on worker 0 cannot run"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadlock error %q does not mention %q", err, want)
		}
	}
}
