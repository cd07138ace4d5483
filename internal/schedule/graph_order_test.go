package schedule

import (
	"slices"
	"strings"
	"testing"
)

// TestGraphOrderIsTopological pins the one thing compile promises about
// Graph.order — a permutation of the node ids with every predecessor ahead of
// its consumer — over every generator and every list-scheduled re-placement
// of each. Which valid order it is stays free: the replay
// kernel is a max-plus recurrence, so finish times cannot depend on it (the
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

// TestGeneratorsCompileToStrideTwo: every generator schedule — each scheme,
// each concatenation mode, F ∈ {1, 2}, the scheme's own placement and each
// list policy on a worker twice as slow as the rest — compiles to rows of two
// slots, the replay kernel's unrolled path. A generator change that gave an
// op two distinct producers would fall onto the plain loop, and fails here.
func TestGeneratorsCompileToStrideTwo(t *testing.T) {
	compiled := 0
	for _, scheme := range append(Schemes(), "1f1b") {
		for _, concat := range []ConcatMode{Direct, ForwardDoubling, BackwardHalving} {
			for _, f := range []int{1, 2} {
				if scheme != "chimera" && (concat != Direct || f != 1) {
					continue
				}
				for _, d := range []int{4, 8} {
					for _, n := range []int{d / 2, d, 2 * d, 3 * d} {
						for _, policy := range []string{"", "heft", "cpop", "lb"} {
							spec := Spec{Scheme: scheme, Scheduler: policy, D: d, N: n, F: f, Concat: concat,
								SpeedFactors: speedProfiles(d)["straggler"]}
							s, err := Build(spec)
							if err != nil {
								t.Fatalf("%+v: %v", spec, err)
							}
							g, err := s.Graph()
							if err != nil {
								t.Fatalf("%+v: %v", spec, err)
							}
							if g.arity != 2 {
								t.Fatalf("%+v: compiled to rows of %d slots, want 2", spec, g.arity)
							}
							compiled++
						}
					}
				}
			}
		}
	}
	// The six other schemes once and chimera's six (concat, F) pairs, at
	// eight sizes under four policies.
	if want := 12 * 8 * 4; compiled != want {
		t.Fatalf("checked %d schedules, want %d", compiled, want)
	}
}

// TestPaddedRowsReplayLikePairs holds the kernel's plain loop to its
// two-slot body on every schedule of the ordering matrix: the same graph with
// a sentinel slot appended to each row replays to the same finish times. A
// hand-built schedule with rows of three slots can leave an edge of the loop
// unbound; these schedules bind every kind of edge somewhere.
func TestPaddedRowsReplayLikePairs(t *testing.T) {
	rc := CostModel{FUnit: 173, BUnit: 391, P2P: 29}.ReplayConfig()
	for name, s := range orderingMatrix(t) {
		g, err := s.Graph()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		padded, n := *g, g.Nodes()
		padded.arity, padded.pred = 3, make([]int32, 3*n)
		for id := range n {
			copy(padded.pred[3*id:], g.row(int32(id)))
			padded.pred[3*id+2] = int32(n)
		}
		want, got := g.Readout(rc), padded.Readout(rc)
		if !slices.Equal(got.end[:n], want.end[:n]) {
			t.Fatalf("%s: rows of three slots replay to other finish times than rows of two", name)
		}
		want.Release()
		got.Release()
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
	// Node 1 is B0@s0: its row is the program-order edge to node 0, then its
	// data edge to B0@s1.
	row := g.row(1)
	if p, cross := unpack(row[1]); row[0] != 0 || p != 3 || !cross {
		t.Fatalf("B0@s0's row is %v, want node 0, then node 3 across workers", row)
	}
	row[1] = 1
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
