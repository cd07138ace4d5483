package fleet

import (
	"encoding/json"
	"reflect"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/sim"
)

func pizDaintCluster(nodes int, factors []float64) Cluster {
	return Cluster{
		Nodes: nodes, SpeedFactors: factors,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
	}
}

// benchMix is the benchmark job mix used across tests, the experiment, and
// chimera-bench: unequal priorities and sizes so equal-split's
// priority-blindness costs it weighted throughput.
func benchMix() []Job {
	return []Job{
		{Name: "bert-large", Model: model.BERT48(), MiniBatch: 512, Priority: 4},
		{Name: "bert-small", Model: model.BERT48(), MiniBatch: 64, Priority: 1},
		{Name: "gpt2-mid", Model: model.GPT2Small32(), MiniBatch: 64, Priority: 1},
	}
}

func mustAllocate(t *testing.T, e *engine.Engine, req Request) *Allocation {
	t.Helper()
	al, err := NewAllocator(e).Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	return al
}

// TestEqualSplitShares: the baseline divides quanta evenly, hands leftovers
// to the lowest-indexed jobs, and reports jobs in input order.
func TestEqualSplitShares(t *testing.T) {
	req := Request{Cluster: pizDaintCluster(32, nil), Jobs: benchMix(), Policy: EqualSplit}
	al := mustAllocate(t, engine.New(engine.Workers(1)), req)
	if len(al.Jobs) != 3 {
		t.Fatalf("want 3 job allocations, got %d", len(al.Jobs))
	}
	// 16 quanta over 3 jobs: 6/5/5 quanta = 12/10/10 nodes.
	wantNodes := []int{12, 10, 10}
	for i, j := range al.Jobs {
		if j.Job != req.Jobs[i].Name {
			t.Fatalf("job %d out of input order: %q", i, j.Job)
		}
		if j.Nodes != wantNodes[i] {
			t.Fatalf("job %q nodes = %d, want %d", j.Job, j.Nodes, wantNodes[i])
		}
		if j.Plan == nil || j.Throughput <= 0 {
			t.Fatalf("job %q got no feasible plan in a %d-node share", j.Job, j.Nodes)
		}
		if j.NodesUsed > j.Nodes || j.NodesUsed != j.Plan.W*j.Plan.D {
			t.Fatalf("job %q uses %d nodes of %d with W=%d D=%d", j.Job, j.NodesUsed, j.Nodes, j.Plan.W, j.Plan.D)
		}
	}
	if al.WeightedThroughput <= 0 {
		t.Fatal("zero weighted throughput")
	}
}

// TestPlannerGuidedBeatsEqualSplit: on the benchmark mix the greedy
// allocator must strictly beat the priority-blind baseline — the fleet
// layer's headline property. The ratio is logged (go test -v), not gated.
func TestPlannerGuidedBeatsEqualSplit(t *testing.T) {
	cluster := pizDaintCluster(32, nil)
	e := engine.New()
	equal := mustAllocate(t, e, Request{Cluster: cluster, Jobs: benchMix(), Policy: EqualSplit})
	guided := mustAllocate(t, e, Request{Cluster: cluster, Jobs: benchMix(), Policy: PlannerGuided})
	if !(guided.WeightedThroughput > equal.WeightedThroughput) {
		t.Fatalf("planner-guided %.2f did not beat equal-split %.2f",
			guided.WeightedThroughput, equal.WeightedThroughput)
	}
	t.Logf("planner-guided %.1f vs equal-split %.1f weighted seq/s (%.2fx)",
		guided.WeightedThroughput, equal.WeightedThroughput, guided.WeightedThroughput/equal.WeightedThroughput)
	if guided.NodesAllocated > cluster.Nodes {
		t.Fatalf("allocated %d nodes of %d", guided.NodesAllocated, cluster.Nodes)
	}
}

// TestAllocationDeterministicAcrossPools: the same request must produce a
// bit-identical allocation on a serial engine and on a full pool, twice.
func TestAllocationDeterministicAcrossPools(t *testing.T) {
	for _, policy := range []Policy{EqualSplit, PlannerGuided} {
		req := Request{Cluster: pizDaintCluster(24, nil), Jobs: benchMix(), Policy: policy}
		var want []byte
		for run, e := range []*engine.Engine{engine.New(engine.Workers(1)), engine.New(), engine.New()} {
			al := mustAllocate(t, e, req)
			raw, err := json.Marshal(al)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				want = raw
				continue
			}
			if string(raw) != string(want) {
				t.Fatalf("%s: allocation differs across engines/pool sizes:\n%s\n%s", policy, want, raw)
			}
		}
	}
}

// TestNoNodeSharedBetweenJobs: every node id is assigned to at most one job.
func TestNoNodeSharedBetweenJobs(t *testing.T) {
	factors := make([]float64, 32)
	for i := range factors {
		factors[i] = 1 + float64(i%4)*0.25
	}
	for _, policy := range []Policy{EqualSplit, PlannerGuided} {
		al := mustAllocate(t, engine.New(), Request{Cluster: pizDaintCluster(32, factors), Jobs: benchMix(), Policy: policy})
		seen := map[int]string{}
		for _, j := range al.Jobs {
			if len(j.NodeIDs) != j.Nodes {
				t.Fatalf("%s: job %q reports %d nodes but %d ids", policy, j.Job, j.Nodes, len(j.NodeIDs))
			}
			for _, id := range j.NodeIDs {
				if owner, dup := seen[id]; dup {
					t.Fatalf("%s: node %d assigned to both %q and %q", policy, id, owner, j.Job)
				}
				if id < 0 || id >= 32 {
					t.Fatalf("%s: node id %d out of range", policy, id)
				}
				seen[id] = j.Job
			}
		}
	}
}

// TestStragglerPenalty: a uniformly slower cluster scales throughput down by
// exactly the factor, and the allocator prefers fast nodes — the slowest
// nodes stay idle when a plan cannot use the whole share.
func TestStragglerPenalty(t *testing.T) {
	jobs := []Job{{Name: "solo", Model: model.BERT48(), MiniBatch: 128}}
	e := engine.New(engine.Workers(1))
	base := mustAllocate(t, e, Request{Cluster: pizDaintCluster(8, nil), Jobs: jobs})
	slow := mustAllocate(t, e, Request{
		Cluster: pizDaintCluster(8, []float64{2, 2, 2, 2, 2, 2, 2, 2}), Jobs: jobs,
	})
	if got, want := slow.Jobs[0].Throughput, base.Jobs[0].Throughput/2; got != want {
		t.Fatalf("uniform ×2 cluster throughput = %g, want exactly %g", got, want)
	}
	if slow.Jobs[0].StragglerFactor != 2 {
		t.Fatalf("straggler factor = %g, want 2", slow.Jobs[0].StragglerFactor)
	}
	// One ×1000 node among nominal ones: fastest-first assignment must keep
	// it out of any plan that fits in the 8 nominal nodes.
	mixed := mustAllocate(t, e, Request{
		Cluster: pizDaintCluster(9, []float64{1, 1, 1, 1000, 1, 1, 1, 1, 1}), Jobs: jobs,
	})
	if f := mixed.Jobs[0].StragglerFactor; f != 1 {
		t.Fatalf("plan absorbed the ×1000 straggler (factor %g)", f)
	}
	for i := 0; i < mixed.Jobs[0].NodesUsed; i++ {
		if mixed.Jobs[0].NodeIDs[i] == 3 {
			t.Fatal("straggler node 3 among the used (fastest-first) prefix")
		}
	}
}

// TestLookaheadFindsDistantFeasibility: a job whose smallest feasible
// worker count is several quanta away still gets nodes — every
// single-quantum gain is zero until the allocator's lookahead jumps
// straight to the feasible size.
func TestLookaheadFindsDistantFeasibility(t *testing.T) {
	// Layers=6 and mini-batch 1 restrict the candidate set to P ∈ {2, 6}
	// (W must divide B̂=1, so P = D must divide the layers and be even).
	// The device memory is sized so the 3-layers-per-stage P=2 partition
	// OOMs even with recomputation while the 1-layer stages of P=6 fit —
	// leaving P=6 as the job's only feasible worker count.
	gap := model.Config{Name: "gap", Layers: 6, Hidden: 1024, Heads: 16, Vocab: 8192, SeqLen: 128}
	cluster := pizDaintCluster(8, nil)
	cluster.Device.MemBytes = lookaheadMemBytes(t, cluster, gap)
	jobs := []Job{{Name: "gappy", Model: gap, MiniBatch: 1}}
	al := mustAllocate(t, engine.New(engine.Workers(1)), Request{Cluster: cluster, Jobs: jobs})
	g := al.Jobs[0]
	if g.Plan == nil || g.Throughput <= 0 {
		t.Fatalf("gappy job got nothing: %+v", g)
	}
	if g.NodesUsed != 6 {
		t.Fatalf("gappy job uses %d nodes, want 6 (its only feasible worker count)", g.NodesUsed)
	}
}

// lookaheadMemBytes finds a device size under which the test model is
// infeasible at P=2 but feasible at P=6, asserting the precondition the
// lookahead test depends on.
func lookaheadMemBytes(t *testing.T, cluster Cluster, m model.Config) int64 {
	t.Helper()
	a := NewAllocator(engine.New(engine.Workers(1)))
	job := Job{Name: "probe", Model: m, MiniBatch: 1}
	for mem := int64(1) << 24; mem <= 1<<34; mem *= 2 {
		c := cluster
		c.Device.MemBytes = mem
		cv := newPlanCurve(c, job)
		p2, p6 := a.plan(cv.request(2)), a.plan(cv.request(6))
		if p2.err != nil || p6.err != nil {
			t.Fatal(p2.err, p6.err)
		}
		if p2.pred == nil && p6.pred != nil {
			return mem
		}
	}
	t.Fatal("no device size separates P=2 (OOM) from P=6 (fits) for the gap model")
	return 0
}

// TestValidateRejections: structural errors are named before any planning.
func TestValidateRejections(t *testing.T) {
	good := Request{Cluster: pizDaintCluster(8, nil), Jobs: []Job{{Name: "a", Model: model.BERT48(), MiniBatch: 64}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Request)
	}{
		{"tiny-cluster", func(r *Request) { r.Cluster.Nodes = 1 }},
		{"factor-length", func(r *Request) { r.Cluster.SpeedFactors = []float64{1, 1} }},
		{"factor-range", func(r *Request) {
			r.Cluster.SpeedFactors = []float64{1, 1, 1, 1, 1, 1, 1, 2e6}
		}},
		{"no-jobs", func(r *Request) { r.Jobs = nil }},
		{"unnamed-job", func(r *Request) { r.Jobs[0].Name = "" }},
		{"dup-job", func(r *Request) { r.Jobs = append(r.Jobs, r.Jobs[0]) }},
		{"bad-minibatch", func(r *Request) { r.Jobs[0].MiniBatch = 0 }},
		{"negative-priority", func(r *Request) { r.Jobs[0].Priority = -1 }},
		{"negative-deadline", func(r *Request) { r.Jobs[0].Deadline = -5 }},
		{"bad-policy", func(r *Request) { r.Policy = "fifo" }},
	}
	for _, tc := range cases {
		req := Request{Cluster: pizDaintCluster(8, nil), Jobs: []Job{{Name: "a", Model: model.BERT48(), MiniBatch: 64}}}
		tc.mut(&req)
		if _, err := NewAllocator(nil).Allocate(req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestAllocatorCapBoundsPlanMemo: an allocator on a capacity-bounded engine
// (the daemon's configuration) bounds its plan memo alike, evicting plan
// entries instead of growing without limit, and still allocates identically
// to one on an unbounded engine.
func TestAllocatorCapBoundsPlanMemo(t *testing.T) {
	req := Request{Cluster: pizDaintCluster(24, nil), Jobs: benchMix()}
	unbounded, err := NewAllocator(engine.New(engine.Workers(1))).Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	capped := NewAllocator(engine.New(engine.Workers(1), engine.Capacity(2)))
	got, err := capped.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unbounded, got) {
		t.Fatal("bounded plan memo changed the allocation")
	}
	if n := capped.plans.Len(); n > 2 {
		t.Fatalf("capacity-2 plan memo holds %d entries", n)
	}
	if capped.plans.Evictions() == 0 {
		t.Fatal("a 24-node allocation through a capacity-2 memo evicted nothing")
	}
}

// TestAllocatorMemoReuse: re-allocating the same request on one Allocator
// hits the plan memo (through the call's fresh curves) instead of
// replanning.
func TestAllocatorMemoReuse(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	req := Request{Cluster: pizDaintCluster(16, nil), Jobs: benchMix()}
	first, err := a.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := a.PlanStats()
	second, err := a.Allocate(req)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := a.PlanStats()
	hits -= hits0
	if misses != misses0 {
		t.Fatalf("second allocation planned %d new requests", misses-misses0)
	}
	if hits == 0 {
		t.Fatal("second allocation hit nothing")
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("memoized allocation differs from the first")
	}
}
