package schedule

import (
	"strings"
	"testing"
)

// shapeSchedules spans what the shape table must classify: every generator
// family and concat variant of the conformance suite, plus each list policy
// over them under a straggler (uneven hosting, idle workers).
func shapeSchedules(t *testing.T) map[string]*Schedule {
	t.Helper()
	out := map[string]*Schedule{}
	for name, base := range conformanceConfigs(t) {
		out[name] = base
		g, err := base.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []string{"heft", "cpop", "lb"} {
			pol, err := SchedulerByName(policy)
			if err != nil {
				t.Fatal(err)
			}
			s, err := pol.Schedule(g, UnitPractical, speedProfiles(base.D)["straggler"])
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			out[name+"/"+policy] = s
		}
	}
	// No generator or policy splits a placement across workers, but nothing
	// in a Schedule forbids it, and a shape must still name one worker: here
	// worker 1 runs a forward of stage 0, which worker 0 also hosts, and
	// hosts no backward at all.
	out["split-placement"] = &Schedule{
		Scheme: "split", D: 2, N: 2,
		Workers: [][]Op{
			{
				{Kind: Forward, Stage: 0, Micros: []int{0}},
				{Kind: Forward, Stage: 1, Micros: []int{0}},
				{Kind: Backward, Stage: 1, Micros: []int{0}},
				{Kind: Backward, Stage: 0, Micros: []int{0}},
			},
			{{Kind: Forward, Stage: 0, Micros: []int{1}}},
		},
	}
	return out
}

// TestShapeTableInvariants: the counts partition the nodes, every node's op
// agrees with its shape's representative in all six shape fields, a worker
// has no more shapes than hosted placements × 2 kinds × (micro count, half)
// variants, and the grad-ready index names each placement's last backward
// op, ordered by (stage, replica).
func TestShapeTableInvariants(t *testing.T) {
	for name, s := range shapeSchedules(t) {
		g, err := s.Graph()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodes, maxLen := 0, 1
		perWorker := make([]int, s.D)
		for _, sh := range g.shapes {
			nodes += sh.count
			perWorker[sh.worker]++
			maxLen = max(maxLen, len(sh.op.Micros))
		}
		if nodes != g.Nodes() || g.Nodes() != s.OpsTotal() {
			t.Fatalf("%s: shape counts sum to %d, graph has %d nodes, schedule %d ops", name, nodes, g.Nodes(), s.OpsTotal())
		}
		for w, ops := range s.Workers {
			hosted := map[StagePlacement]int32{} // placement → last backward node
			placements := map[StagePlacement]bool{}
			for i, op := range ops {
				id := g.base[w] + int32(i)
				sh := g.shapes[g.shape[id]]
				if gw, gop := g.at(id); gw != w || gop != &ops[i] {
					t.Fatalf("%s: at(%d) = worker %d, want worker %d op %d", name, id, gw, w, i)
				}
				if sh.worker != w || sh.op.Kind != op.Kind || sh.op.Stage != op.Stage || sh.op.Replica != op.Replica ||
					len(sh.op.Micros) != len(op.Micros) || sh.op.Half != op.Half {
					t.Fatalf("%s: node %d is %s on worker %d, its shape %s on worker %d", name, id, op, w, sh.op, sh.worker)
				}
				pl := StagePlacement{Replica: op.Replica, Stage: op.Stage}
				placements[pl] = true
				if op.Kind == Backward {
					hosted[pl] = id
				}
			}
			if limit := len(placements) * 2 * maxLen * 3; perWorker[w] > limit {
				t.Fatalf("%s: worker %d has %d shapes for %d placements (limit %d)", name, w, perWorker[w], len(placements), limit)
			}
			grad := g.grad[g.gradStart[w]:g.gradStart[w+1]]
			if len(grad) != len(hosted) {
				t.Fatalf("%s: worker %d indexes %d grad-ready placements, hosts %d", name, w, len(grad), len(hosted))
			}
			for i, gn := range grad {
				if last, ok := hosted[gn.StagePlacement]; !ok || last != gn.node {
					t.Fatalf("%s: worker %d placement %+v indexed at node %d, last backward is %d", name, w, gn.StagePlacement, gn.node, last)
				}
				if i > 0 && (grad[i-1].Stage > gn.Stage || (grad[i-1].Stage == gn.Stage && grad[i-1].Replica >= gn.Replica)) {
					t.Fatalf("%s: worker %d grad index not ordered by (stage, replica)", name, w)
				}
			}
		}
	}
}

// TestCompileRejectsMalformedOp: the flat shape and producer tables index by
// an op's fields, so compile must refuse fields outside their ranges instead
// of indexing with them.
func TestCompileRejectsMalformedOp(t *testing.T) {
	for name, op := range map[string]Op{
		"stage":    {Kind: Forward, Stage: 2, Micros: []int{0}},
		"replica":  {Kind: Forward, Replica: -1, Micros: []int{0}},
		"half":     {Kind: Backward, Half: 3, Micros: []int{0}},
		"kind":     {Kind: 2, Micros: []int{0}},
		"no-micro": {Kind: Forward},
	} {
		s := &Schedule{
			Scheme: "broken", D: 2, N: 1,
			Workers:  [][]Op{{op}, nil},
			Replicas: []ReplicaMap{{Down: true, WorkerOf: []int{0, 1}}},
		}
		if _, err := s.Graph(); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%s: want a malformed-op error, got %v", name, err)
		}
	}
}
