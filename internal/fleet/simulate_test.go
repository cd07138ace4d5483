package fleet

import (
	"encoding/json"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
)

func benchScenario(policy Policy) Scenario {
	return Scenario{
		Cluster: pizDaintCluster(32, nil),
		Jobs:    benchMix(),
		Policy:  policy,
		Trace: []Arrival{
			{At: 0, Job: "bert-large", Work: 100000},
			{At: 0, Job: "gpt2-mid", Work: 20000},
			{At: 30, Job: "bert-small", Work: 30000},
			{At: 60, Job: "gpt2-mid", Work: 10000},
		},
	}
}

// TestSimulateCompletesEveryJob: every arrival runs and departs, times are
// ordered, and utilization is a meaningful fraction.
func TestSimulateCompletesEveryJob(t *testing.T) {
	res, err := SimulateOn(engine.New(), benchScenario(PlannerGuided))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("want 4 runs, got %d", len(res.Jobs))
	}
	for _, run := range res.Jobs {
		if run.StartAt < run.ArriveAt || run.DoneAt <= run.StartAt {
			t.Fatalf("run %s#%d has disordered times: %+v", run.Job, run.Trace, run)
		}
		if run.Wait != run.StartAt-run.ArriveAt {
			t.Fatalf("run %s#%d wait %g != start-arrive %g", run.Job, run.Trace, run.Wait, run.StartAt-run.ArriveAt)
		}
		if run.DoneAt > res.Makespan {
			t.Fatalf("run %s#%d departs after the makespan", run.Job, run.Trace)
		}
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %g out of (0, 1]", res.Utilization)
	}
	if res.Events != 8 { // 4 arrivals + 4 departures
		t.Fatalf("events = %d, want 8", res.Events)
	}
	if res.Reallocations == 0 {
		t.Fatal("the allocator never ran")
	}
}

// TestSimulateBitDeterministic: the same scenario replays byte-identically
// across runs, engines, and pool sizes — the acceptance gate.
func TestSimulateBitDeterministic(t *testing.T) {
	for _, policy := range []Policy{EqualSplit, PlannerGuided} {
		var want []byte
		for run, e := range []*engine.Engine{engine.New(engine.Workers(1)), engine.New(), engine.New()} {
			res, err := SimulateOn(e, benchScenario(policy))
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
				t.Fatalf("%s: simulation differs across engines:\n%s\n%s", policy, want, raw)
			}
		}
	}
}

// TestSimulateGuidedFavorsPriority: planner-guided maximizes weighted
// throughput, so on the benchmark trace the priority-4 job must finish no
// later than it does under the priority-blind equal split (the makespan
// itself may go either way — a low-priority job finishing last is exactly
// the trade the objective makes).
func TestSimulateGuidedFavorsPriority(t *testing.T) {
	e := engine.New()
	a := NewAllocator(e)
	eq, err := a.Simulate(benchScenario(EqualSplit))
	if err != nil {
		t.Fatal(err)
	}
	gd, err := a.Simulate(benchScenario(PlannerGuided))
	if err != nil {
		t.Fatal(err)
	}
	if gd.Jobs[0].Job != "bert-large" || eq.Jobs[0].Job != "bert-large" {
		t.Fatalf("trace[0] is %q/%q, want bert-large", gd.Jobs[0].Job, eq.Jobs[0].Job)
	}
	if gd.Jobs[0].DoneAt > eq.Jobs[0].DoneAt {
		t.Fatalf("planner-guided finishes the priority-4 job at %.1fs, later than equal-split's %.1fs",
			gd.Jobs[0].DoneAt, eq.Jobs[0].DoneAt)
	}
}

// TestSimulateDeadlines: a deadline the throughput cannot meet is reported
// missed; a generous one is met.
func TestSimulateDeadlines(t *testing.T) {
	sc := Scenario{
		Cluster: pizDaintCluster(8, nil),
		Jobs: []Job{
			{Name: "tight", Model: model.BERT48(), MiniBatch: 64, Deadline: 0.001},
			{Name: "loose", Model: model.BERT48(), MiniBatch: 64, Deadline: 1e9},
		},
		Trace: []Arrival{
			{At: 0, Job: "tight", Work: 50000},
			{At: 0, Job: "loose", Work: 1000},
		},
	}
	res, err := SimulateOn(engine.New(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[0].MissedDeadline {
		t.Fatal("1ms deadline for 50k sequences reported met")
	}
	if res.Jobs[1].MissedDeadline {
		t.Fatal("generous deadline reported missed")
	}
}

// TestSimulateQueueingWait: a second instance arriving while the cluster is
// saturated by an infeasibly-split share still eventually runs; with one
// quantum of nodes and two concurrent jobs under equal-split, one of them
// must wait for the other to depart.
func TestSimulateQueueingWait(t *testing.T) {
	sc := Scenario{
		Cluster: pizDaintCluster(2, nil), // one quantum: equal-split over 2 jobs gives 1 job 2 nodes, the other 0
		Jobs: []Job{
			{Name: "first", Model: model.BERT48(), MiniBatch: 16},
			{Name: "second", Model: model.BERT48(), MiniBatch: 16},
		},
		Policy: EqualSplit,
		Trace: []Arrival{
			{At: 0, Job: "first", Work: 1000},
			{At: 0, Job: "second", Work: 1000},
		},
	}
	res, err := SimulateOn(engine.New(engine.Workers(1)), sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].Wait != 0 {
		t.Fatalf("first instance waited %g", res.Jobs[0].Wait)
	}
	if res.Jobs[1].Wait <= 0 {
		t.Fatal("second instance never waited despite a one-quantum cluster")
	}
	if res.MeanWait != (res.Jobs[0].Wait+res.Jobs[1].Wait)/2 {
		t.Fatalf("mean wait %g inconsistent", res.MeanWait)
	}
}

// TestSimulateValidation: malformed scenarios are rejected up front.
func TestSimulateValidation(t *testing.T) {
	base := benchScenario(PlannerGuided)
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"empty-trace", func(s *Scenario) { s.Trace = nil }},
		{"unknown-job", func(s *Scenario) { s.Trace[0].Job = "nope" }},
		{"negative-at", func(s *Scenario) { s.Trace[0].At = -1 }},
		{"zero-work", func(s *Scenario) { s.Trace[0].Work = 0 }},
		{"bad-cluster", func(s *Scenario) { s.Cluster.Nodes = 0 }},
	}
	for _, tc := range cases {
		sc := base
		sc.Trace = append([]Arrival(nil), base.Trace...)
		tc.mut(&sc)
		if _, err := SimulateOn(nil, sc); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
