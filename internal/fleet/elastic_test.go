package fleet

import (
	"encoding/json"
	"strings"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
)

// elasticScenario is the shared churn scenario: the benchmark mix arriving,
// then a failure, a drain, and a join while everything is resident.
func elasticScenario(replan ReplanMode, penalty float64) ElasticScenario {
	return ElasticScenario{
		Cluster:          pizDaintCluster(16, nil),
		Jobs:             benchMix(),
		Replan:           replan,
		MigrationPenalty: penalty,
		Events: []Event{
			{At: 0, Kind: EvArrival, Job: "bert-large", Work: 100000},
			{At: 0, Kind: EvArrival, Job: "gpt2-mid", Work: 20000},
			{At: 30, Kind: EvArrival, Job: "bert-small", Work: 30000},
			{At: 60, Kind: EvNodeFail, Node: 0},
			{At: 90, Kind: EvNodeDrain, Node: 5},
			{At: 120, Kind: EvNodeJoin},
			{At: 150, Kind: EvNodeJoin},
		},
	}
}

// TestElasticCompletesEveryJob: every arrival runs and departs under churn,
// times are ordered, the pool ends at initial − fail − drain + 2 joins.
func TestElasticCompletesEveryJob(t *testing.T) {
	res, err := SimulateElasticOn(engine.New(), elasticScenario(ReplanIncremental, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("want 3 runs, got %d", len(res.Jobs))
	}
	for _, run := range res.Jobs {
		if run.StartAt < run.ArriveAt || run.DoneAt <= run.StartAt {
			t.Fatalf("run %s#%d has disordered times: %+v", run.Job, run.Trace, run)
		}
		if run.DoneAt > res.Makespan {
			t.Fatalf("run %s#%d departs after the makespan", run.Job, run.Trace)
		}
	}
	if res.InitialNodes != 16 || res.FinalNodes != 16 { // −1 fail −1 drain +2 joins
		t.Fatalf("pool %d → %d, want 16 → 16", res.InitialNodes, res.FinalNodes)
	}
	if res.Fails != 1 || res.Drains != 1 || res.Joins != 2 {
		t.Fatalf("churn counters %d/%d/%d, want 1/1/2", res.Fails, res.Drains, res.Joins)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %g out of (0, 1]", res.Utilization)
	}
	// 7 trace events + 3 departures.
	if res.Events != 10 {
		t.Fatalf("events = %d, want 10", res.Events)
	}
	if len(res.Log) != 10 {
		t.Fatalf("log has %d records, want 10", len(res.Log))
	}
	if res.Reallocations == 0 || res.JobsEvaluated == 0 {
		t.Fatal("the re-planner never ran")
	}
}

// TestElasticBitDeterministic: both re-plan modes replay byte-identically
// across runs, engines, and pool sizes — the acceptance gate.
func TestElasticBitDeterministic(t *testing.T) {
	for _, mode := range []ReplanMode{ReplanIncremental, ReplanFull} {
		var want []byte
		for run, e := range []*engine.Engine{engine.New(engine.Workers(1)), engine.New(), engine.New()} {
			res, err := SimulateElasticOn(e, elasticScenario(mode, 5))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				want = raw
				continue
			}
			if string(raw) != string(want) {
				t.Fatalf("%s: elastic simulation differs across engines:\n%s\n%s", mode, want, raw)
			}
		}
	}
}

// soloPlan allocates one job statically and returns its allocation (the
// reference for which nodes the elastic instance starts on).
func soloPlan(t *testing.T, nodes int, job Job) JobAllocation {
	t.Helper()
	al, err := NewAllocator(engine.New(engine.Workers(1))).Allocate(Request{
		Cluster: pizDaintCluster(nodes, nil), Jobs: []Job{job},
	})
	if err != nil {
		t.Fatal(err)
	}
	return al.Jobs[0]
}

// TestElasticFailPenalty: failing a node under a running job forces a
// restart that pays the full migration penalty — MigrationPenalty seconds
// per pipeline stage of the old plan — and losing a node it never used
// costs nothing.
func TestElasticFailPenalty(t *testing.T) {
	job := Job{Name: "solo", Model: model.BERT48(), MiniBatch: 64}
	ref := soloPlan(t, 8, job)
	if ref.Plan == nil || ref.NodesUsed < 2 {
		t.Fatalf("reference plan unusable: %+v", ref)
	}
	const penalty = 7.0
	usedID := ref.NodeIDs[0] // fastest node — certainly in the used prefix
	sc := ElasticScenario{
		Cluster:          pizDaintCluster(8, nil),
		Jobs:             []Job{job},
		MigrationPenalty: penalty,
		Events: []Event{
			{At: 0, Kind: EvArrival, Job: "solo", Work: 50000},
			{At: 10, Kind: EvNodeFail, Node: usedID},
		},
	}
	res, err := SimulateElasticOn(engine.New(engine.Workers(1)), sc)
	if err != nil {
		t.Fatal(err)
	}
	run := res.Jobs[0]
	if run.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", run.Restarts)
	}
	if want := penalty * float64(ref.Plan.D); run.PenaltySeconds != want {
		t.Fatalf("penalty = %g, want full %g (D=%d)", run.PenaltySeconds, want, ref.Plan.D)
	}
	if res.Migrations != 1 || res.PenaltySeconds != run.PenaltySeconds {
		t.Fatalf("fleet counters %d/%g inconsistent with the run", res.Migrations, res.PenaltySeconds)
	}

	// Failing a node the plan never used is free: the plan and its nodes
	// survive, so nothing restarts.
	assigned := make(map[int]bool)
	for _, id := range ref.NodeIDs {
		assigned[id] = true
	}
	idle := -1
	for id := 0; id < 8; id++ {
		if !assigned[id] {
			idle = id
			break
		}
	}
	if idle >= 0 {
		sc.Events[1] = Event{At: 10, Kind: EvNodeFail, Node: idle}
		res, err = SimulateElasticOn(engine.New(engine.Workers(1)), sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Migrations != 0 || res.PenaltySeconds != 0 {
			t.Fatalf("losing an unused node cost %d migrations / %g s", res.Migrations, res.PenaltySeconds)
		}
	}
}

// TestElasticDrainHalfPenalty: a drain charges exactly half the failure
// penalty — the pipeline flushes instead of discarding in-flight state.
func TestElasticDrainHalfPenalty(t *testing.T) {
	job := Job{Name: "solo", Model: model.BERT48(), MiniBatch: 64}
	ref := soloPlan(t, 8, job)
	const penalty = 7.0
	mk := func(kind EventKind) ElasticScenario {
		return ElasticScenario{
			Cluster:          pizDaintCluster(8, nil),
			Jobs:             []Job{job},
			MigrationPenalty: penalty,
			Events: []Event{
				{At: 0, Kind: EvArrival, Job: "solo", Work: 50000},
				{At: 10, Kind: kind, Node: ref.NodeIDs[0]},
			},
		}
	}
	fail, err := SimulateElasticOn(engine.New(engine.Workers(1)), mk(EvNodeFail))
	if err != nil {
		t.Fatal(err)
	}
	drain, err := SimulateElasticOn(engine.New(engine.Workers(1)), mk(EvNodeDrain))
	if err != nil {
		t.Fatal(err)
	}
	if fail.PenaltySeconds == 0 || drain.PenaltySeconds != fail.PenaltySeconds/2 {
		t.Fatalf("drain penalty %g, want half of fail's %g", drain.PenaltySeconds, fail.PenaltySeconds)
	}
	if drain.Makespan >= fail.Makespan {
		t.Fatalf("drain makespan %g not below fail's %g despite half the debt", drain.Makespan, fail.Makespan)
	}
}

// TestElasticJoinExtends: a job capped by a small cluster migrates onto
// joined nodes when the remaining work amortizes the restart, and stays put
// when the migration penalty dwarfs what is left to gain.
func TestElasticJoinExtends(t *testing.T) {
	job := Job{Name: "solo", Model: model.BERT48(), MiniBatch: 256}
	small := soloPlan(t, 2, job)
	big := soloPlan(t, 4, job)
	if !(big.Throughput > small.Throughput) {
		t.Fatalf("4 nodes (%g) must out-run 2 (%g) for this test to mean anything",
			big.Throughput, small.Throughput)
	}
	mk := func(penalty float64) ElasticScenario {
		return ElasticScenario{
			Cluster:          pizDaintCluster(2, nil),
			Jobs:             []Job{job},
			MigrationPenalty: penalty,
			Events: []Event{
				{At: 0, Kind: EvArrival, Job: "solo", Work: 100000},
				{At: 10, Kind: EvNodeJoin},
				{At: 10, Kind: EvNodeJoin},
			},
		}
	}
	free, err := SimulateElasticOn(engine.New(engine.Workers(1)), mk(0))
	if err != nil {
		t.Fatal(err)
	}
	if free.Migrations != 1 {
		t.Fatalf("with zero penalty the join must trigger one migration, got %d", free.Migrations)
	}
	if len(free.Final) != 1 || free.Final[0].Nodes != big.NodesUsed {
		t.Fatalf("final share %+v, want the 4-node plan's %d nodes", free.Final, big.NodesUsed)
	}
	// A penalty far exceeding the remaining runtime's gain pins the job.
	stay, err := SimulateElasticOn(engine.New(engine.Workers(1)), mk(1e7))
	if err != nil {
		t.Fatal(err)
	}
	if stay.Migrations != 0 {
		t.Fatalf("a prohibitive penalty still migrated %d times", stay.Migrations)
	}
	if stay.Final[0].Nodes != small.NodesUsed {
		t.Fatalf("final share %+v, want to stay on %d nodes", stay.Final, small.NodesUsed)
	}
	if !(free.Makespan < stay.Makespan) {
		t.Fatalf("migrating (%g) must beat staying (%g) when the penalty is zero", free.Makespan, stay.Makespan)
	}
}

// TestElasticAgingPreempts: a starved low-priority job's effective priority
// grows with its wait until it evicts a high-priority hog — the guarantee
// that starvation is bounded. The heartbeat arrival at t=500 is the re-plan
// opportunity where the aged comparison finally flips.
func TestElasticAgingPreempts(t *testing.T) {
	jobs := []Job{
		{Name: "hog", Model: model.BERT48(), MiniBatch: 64, Priority: 100},
		{Name: "meek", Model: model.BERT48(), MiniBatch: 64, Priority: 1},
		{Name: "heartbeat", Model: model.BERT48(), MiniBatch: 64, Priority: 1},
	}
	sc := ElasticScenario{
		Cluster:  pizDaintCluster(2, nil),
		Jobs:     jobs,
		AgingTau: 1, // double effective priority every second of starvation
		Events: []Event{
			{At: 0, Kind: EvArrival, Job: "hog", Work: 1e6},
			{At: 1, Kind: EvArrival, Job: "meek", Work: 1000},
			{At: 500, Kind: EvArrival, Job: "heartbeat", Work: 1000},
		},
	}
	res, err := SimulateElasticOn(engine.New(engine.Workers(1)), sc)
	if err != nil {
		t.Fatal(err)
	}
	meek := res.Jobs[1]
	if meek.StartAt != 500 {
		t.Fatalf("meek started at %g, want 500 (the heartbeat re-plan after ~499s of aging)", meek.StartAt)
	}
	hog := res.Jobs[0]
	if hog.DoneAt <= meek.DoneAt {
		t.Fatal("the preempted hog finished before the job that evicted it")
	}
	if res.Migrations == 0 {
		t.Fatal("no preemption was recorded")
	}
	for _, run := range res.Jobs {
		if run.DoneAt < 0 {
			t.Fatalf("run %s never completed: %+v", run.Job, run)
		}
	}
}

// TestElasticTieBreakOrder is the regression pin for the total event order
// when a departure, a node failure, a drain, a join, and an arrival all
// share one timestamp: departures first, then fail < drain < join <
// arrival, regardless of input order. The departure time is produced by a
// probe run so the shared timestamp is float-exact.
func TestElasticTieBreakOrder(t *testing.T) {
	job := Job{Name: "solo", Model: model.BERT48(), MiniBatch: 64}
	probe, err := SimulateElasticOn(engine.New(engine.Workers(1)), ElasticScenario{
		Cluster: pizDaintCluster(4, nil),
		Jobs:    []Job{job},
		Events:  []Event{{At: 0, Kind: EvArrival, Job: "solo", Work: 10000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	T := probe.Jobs[0].DoneAt

	// Input order deliberately scrambled: arrival first, join before drain,
	// fail last. The simulator must still process the batch in kind order.
	sc := ElasticScenario{
		Cluster: pizDaintCluster(4, nil),
		Jobs:    []Job{job},
		Events: []Event{
			{At: 0, Kind: EvArrival, Job: "solo", Work: 10000},
			{At: T, Kind: EvArrival, Job: "solo", Work: 10000},
			{At: T, Kind: EvNodeJoin},
			{At: T, Kind: EvNodeDrain, Node: 2},
			{At: T, Kind: EvNodeFail, Node: 3},
		},
	}
	res, err := SimulateElasticOn(engine.New(engine.Workers(1)), sc)
	if err != nil {
		t.Fatal(err)
	}
	var at []EventKind
	for _, rec := range res.Log {
		if rec.At == T {
			at = append(at, rec.Kind)
		}
	}
	want := []EventKind{EvDeparture, EvNodeFail, EvNodeDrain, EvNodeJoin, EvArrival}
	if len(at) != len(want) {
		t.Fatalf("log at t=%g has %d records (%v), want %v", T, len(at), at, want)
	}
	for i, k := range want {
		if at[i] != k {
			t.Fatalf("log at t=%g is %v, want %v", T, at, want)
		}
	}
	// The second instance must have planned against the settled pool:
	// 4 − fail − drain + join = 3 present nodes, one whole quantum.
	if res.FinalNodes != 3 {
		t.Fatalf("final pool %d, want 3", res.FinalNodes)
	}
	if second := res.Jobs[1]; second.StartAt != T {
		t.Fatalf("second instance started at %g, want %g (departure freed the pool first)", second.StartAt, T)
	}
}

// TestSimulateTieBreakDepartureBeforeArrival pins the classic simulator's
// order at a shared timestamp: the departure frees the cluster before the
// arrival plans, so the arriving instance starts immediately on the full
// pool.
func TestSimulateTieBreakDepartureBeforeArrival(t *testing.T) {
	jobs := []Job{{Name: "a", Model: model.BERT48(), MiniBatch: 64}}
	probe, err := SimulateOn(engine.New(engine.Workers(1)), Scenario{
		Cluster: pizDaintCluster(2, nil), Jobs: jobs,
		Trace: []Arrival{{At: 0, Job: "a", Work: 10000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	T := probe.Jobs[0].DoneAt
	res, err := SimulateOn(engine.New(engine.Workers(1)), Scenario{
		Cluster: pizDaintCluster(2, nil), Jobs: jobs,
		Trace: []Arrival{
			{At: 0, Job: "a", Work: 10000},
			{At: T, Job: "a", Work: 10000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].DoneAt != T {
		t.Fatalf("first instance departs at %g, want %g", res.Jobs[0].DoneAt, T)
	}
	if res.Jobs[1].StartAt != T || res.Jobs[1].Wait != 0 {
		t.Fatalf("second instance start %g wait %g — the departure did not free the quantum first",
			res.Jobs[1].StartAt, res.Jobs[1].Wait)
	}
}

// TestElasticIncrementalMatchesFull: on churn traces whose jobs saturate
// below the pool size, the incremental re-planner must reach the same final
// allocation as full re-planning for at most half the job evaluations. Two
// inputs: a four-job trace small enough to read, and churnScenario, the
// 12-job / 80-node / 8-cycle trace BenchmarkSimulateElasticChurn times.
func TestElasticIncrementalMatchesFull(t *testing.T) {
	jobs := []Job{
		{Name: "a", Model: model.BERT48(), MiniBatch: 8, Priority: 4, MaxNodes: 4},
		{Name: "b", Model: model.BERT48(), MiniBatch: 8, MaxNodes: 4},
		{Name: "c", Model: model.GPT2Small32(), MiniBatch: 8, MaxNodes: 4},
		{Name: "d", Model: model.BERT48(), MiniBatch: 8, MaxNodes: 4},
	}
	events := []Event{
		{At: 0, Kind: EvArrival, Job: "a", Work: 1e6},
		{At: 0, Kind: EvArrival, Job: "b", Work: 1e6},
		{At: 0, Kind: EvArrival, Job: "c", Work: 1e6},
		{At: 0, Kind: EvArrival, Job: "d", Work: 1e6},
		{At: 50, Kind: EvNodeFail, Node: 1},
		{At: 100, Kind: EvNodeJoin},
		{At: 150, Kind: EvNodeDrain, Node: 7},
		{At: 200, Kind: EvNodeJoin},
	}
	small := func(mode ReplanMode) ElasticScenario {
		return ElasticScenario{
			Cluster: pizDaintCluster(24, nil), Jobs: jobs,
			Events: events, Replan: mode, MigrationPenalty: 2,
		}
	}
	for _, tc := range []struct {
		name     string
		scenario func(ReplanMode) ElasticScenario
	}{{"small", small}, {"churn", churnScenario}} {
		run := func(mode ReplanMode) *ElasticResult {
			res, err := SimulateElasticOn(engine.New(), tc.scenario(mode))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		full := run(ReplanFull)
		inc := run(ReplanIncremental)
		rawFull, _ := json.Marshal(full.Final)
		rawInc, _ := json.Marshal(inc.Final)
		if string(rawFull) != string(rawInc) {
			t.Fatalf("%s: final allocations diverge:\nfull:        %s\nincremental: %s", tc.name, rawFull, rawInc)
		}
		if 2*inc.JobsEvaluated > full.JobsEvaluated {
			t.Fatalf("%s: incremental evaluated %d jobs, full %d — less than half the planning was saved",
				tc.name, inc.JobsEvaluated, full.JobsEvaluated)
		}
		t.Logf("%s: incremental %d vs full %d job evaluations", tc.name, inc.JobsEvaluated, full.JobsEvaluated)
	}
}

// TestElasticEqualSplitChurn: equal-split shares must survive in-place
// pool mutation — a failed node is found in the owning share, charged the
// full penalty, and the job replans and completes. (Regression: equalSplit
// used to return subslices aliasing the live pool array, so the node
// removal rewrote every share and the failure was never attributed.)
func TestElasticEqualSplitChurn(t *testing.T) {
	job := Job{Name: "solo", Model: model.BERT48(), MiniBatch: 64}
	ref := soloPlan(t, 4, job)
	const penalty = 5.0
	res, err := SimulateElasticOn(engine.New(engine.Workers(1)), ElasticScenario{
		Cluster:          pizDaintCluster(4, nil),
		Jobs:             []Job{job},
		Policy:           EqualSplit,
		MigrationPenalty: penalty,
		Events: []Event{
			{At: 0, Kind: EvArrival, Job: "solo", Work: 50000},
			{At: 10, Kind: EvNodeFail, Node: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 {
		t.Fatalf("migrations = %d, want 1 (the failed node was in the running share)", res.Migrations)
	}
	if want := penalty * float64(ref.Plan.D); res.PenaltySeconds != want {
		t.Fatalf("penalty = %g, want the full %g (node_fail under a running plan)", res.PenaltySeconds, want)
	}
	if res.Replan != ReplanFull {
		t.Fatalf("equal-split reported replan %q, want the effective %q", res.Replan, ReplanFull)
	}
	if res.Jobs[0].DoneAt < 0 {
		t.Fatal("job never completed after the failure")
	}
	if res.FinalNodes != 3 {
		t.Fatalf("final pool %d, want 3", res.FinalNodes)
	}
}

// TestElasticHeterogeneousFactorBound: a warm-start candidate list is not
// fastest-first once churn interleaves speeds; the straggler factor must
// still be the slowest *used* node, so throughput can never exceed the
// homogeneous plan. (Regression: prefixValues read the last node's factor,
// so a fast joining node at the tail halved the reported iteration time.)
func TestElasticHeterogeneousFactorBound(t *testing.T) {
	job := Job{Name: "solo", Model: model.BERT48(), MiniBatch: 256}
	cap4 := soloPlan(t, 4, job)
	res, err := SimulateElasticOn(engine.New(engine.Workers(1)), ElasticScenario{
		Cluster: pizDaintCluster(2, nil),
		Jobs:    []Job{job},
		Events: []Event{
			{At: 0, Kind: EvArrival, Job: "solo", Work: 100000},
			// Two joining nodes twice as fast as the originals: appended
			// after the held share, they must not masquerade as the
			// pipeline's straggler bound.
			{At: 10, Kind: EvNodeJoin, Factor: 0.5},
			{At: 10, Kind: EvNodeJoin, Factor: 0.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != 1 {
		t.Fatalf("want one resident instance, got %+v", res.Final)
	}
	got := res.Final[0]
	if got.Nodes == 4 && got.Throughput > cap4.Throughput {
		t.Fatalf("4-node share reports %g seq/s, above the slowest-node bound %g — the straggler factor leaked",
			got.Throughput, cap4.Throughput)
	}
	if got.Throughput > 2*cap4.Throughput {
		t.Fatalf("throughput %g is physically impossible for this pool (cap %g)", got.Throughput, 2*cap4.Throughput)
	}
}

// TestElasticValidation: malformed scenarios are rejected with the field
// named, before any planning.
func TestElasticValidation(t *testing.T) {
	base := elasticScenario(ReplanIncremental, 1)
	cases := []struct {
		name string
		mut  func(*ElasticScenario)
		want string
	}{
		{"no-events", func(s *ElasticScenario) { s.Events = nil }, "empty event trace"},
		{"no-arrivals", func(s *ElasticScenario) { s.Events = []Event{{At: 0, Kind: EvNodeJoin}} }, "no arrivals"},
		{"bad-kind", func(s *ElasticScenario) { s.Events[0].Kind = "reboot" }, "unknown kind"},
		{"unknown-job", func(s *ElasticScenario) { s.Events[0].Job = "nope" }, "unknown job"},
		{"negative-time", func(s *ElasticScenario) { s.Events[0].At = -1 }, "time"},
		{"zero-work", func(s *ElasticScenario) { s.Events[0].Work = 0 }, "work"},
		{"arrival-node", func(s *ElasticScenario) { s.Events[0].Node = 3 }, "must not set node"},
		{"fail-with-job", func(s *ElasticScenario) { s.Events[3].Job = "bert-large" }, "only node"},
		{"join-factor", func(s *ElasticScenario) { s.Events[5].Factor = 1e9 }, "factor"},
		{"bad-replan", func(s *ElasticScenario) { s.Replan = "lazy" }, "replan mode"},
		{"negative-penalty", func(s *ElasticScenario) { s.MigrationPenalty = -1 }, "migration penalty"},
		{"negative-tau", func(s *ElasticScenario) { s.AgingTau = -1 }, "aging tau"},
		{"bad-cluster", func(s *ElasticScenario) { s.Cluster.Nodes = 0 }, "nodes"},
	}
	for _, tc := range cases {
		sc := base
		sc.Events = append([]Event(nil), base.Events...)
		tc.mut(&sc)
		_, err := SimulateElasticOn(nil, sc)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Failing an absent node is a replay-time error naming the event.
	sc := base
	sc.Events = append([]Event(nil), base.Events...)
	sc.Events[3].Node = 99
	if _, err := SimulateElasticOn(nil, sc); err == nil || !strings.Contains(err.Error(), "absent node") {
		t.Errorf("failing an absent node: err = %v", err)
	}
}

// TestElasticTrailingChurnMakespan: churn scheduled after the last
// instance departs must not inflate the makespan or dilute utilization —
// the makespan is the time the last instance departs, exactly as on a
// churn-free trace.
func TestElasticTrailingChurnMakespan(t *testing.T) {
	job := Job{Name: "solo", Model: model.BERT48(), MiniBatch: 64}
	base := ElasticScenario{
		Cluster: pizDaintCluster(4, nil),
		Jobs:    []Job{job},
		Events:  []Event{{At: 0, Kind: EvArrival, Job: "solo", Work: 1000}},
	}
	probe, err := SimulateElasticOn(engine.New(engine.Workers(1)), base)
	if err != nil {
		t.Fatal(err)
	}
	trailing := base
	trailing.Events = append([]Event{}, base.Events...)
	trailing.Events = append(trailing.Events,
		Event{At: 1e6, Kind: EvNodeJoin},
		Event{At: 2e6, Kind: EvNodeFail, Node: 0},
	)
	res, err := SimulateElasticOn(engine.New(engine.Workers(1)), trailing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != probe.Makespan {
		t.Fatalf("trailing churn moved the makespan: %g != %g", res.Makespan, probe.Makespan)
	}
	if res.Utilization != probe.Utilization {
		t.Fatalf("trailing churn diluted utilization: %g != %g", res.Utilization, probe.Utilization)
	}
	if res.Joins != 1 || res.Fails != 1 || res.FinalNodes != 4 {
		t.Fatalf("trailing churn not applied to the pool: %+v", res)
	}
}

// TestElasticResidentCap: stacking more than MaxResident concurrent
// instances is a replay-time error naming the arrival — per-event planning
// work stays bounded no matter how many arrivals a trace carries.
func TestElasticResidentCap(t *testing.T) {
	events := make([]Event, MaxResident+1)
	for i := range events {
		events[i] = Event{At: 0, Kind: EvArrival, Job: "a", Work: 1e9}
	}
	_, err := SimulateElasticOn(engine.New(engine.Workers(1)), ElasticScenario{
		Cluster: pizDaintCluster(4, nil),
		Jobs:    []Job{{Name: "a", Model: model.BERT48(), MiniBatch: 64}},
		Events:  events,
	})
	if err == nil || !strings.Contains(err.Error(), "resident") {
		t.Fatalf("want a resident-cap error, got %v", err)
	}
}

// TestElasticStall: a trace whose cluster churns away below every job's
// feasible size fails loudly instead of spinning.
func TestElasticStall(t *testing.T) {
	sc := ElasticScenario{
		Cluster: pizDaintCluster(2, nil),
		Jobs:    []Job{{Name: "a", Model: model.BERT48(), MiniBatch: 64}},
		Events: []Event{
			{At: 0, Kind: EvArrival, Job: "a", Work: 1e6},
			{At: 1, Kind: EvNodeFail, Node: 0},
			{At: 1, Kind: EvNodeFail, Node: 1},
		},
	}
	_, err := SimulateElasticOn(engine.New(engine.Workers(1)), sc)
	if err == nil || !strings.Contains(err.Error(), "stalls") {
		t.Fatalf("want a stall error, got %v", err)
	}
}
