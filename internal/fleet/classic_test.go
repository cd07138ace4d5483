package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
)

// asElastic is the arrivals-only elastic scenario a classic trace stands
// for: every arrival an event, full re-planning, no migration penalty.
func asElastic(sc Scenario) ElasticScenario {
	events := make([]Event, len(sc.Trace))
	for i, ev := range sc.Trace {
		events[i] = Event{At: ev.At, Kind: EvArrival, Job: ev.Job, Work: ev.Work}
	}
	return ElasticScenario{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: sc.Policy, Events: events, Replan: ReplanFull}
}

// classicShape narrows an elastic result to the classic one — written out
// here, independently of Simulate's own projection, so a field either side
// drops shows up as a difference.
func classicShape(nodes int, er *ElasticResult) *SimResult {
	res := &SimResult{
		Policy: er.Policy, Nodes: nodes,
		Makespan: er.Makespan, Utilization: er.Utilization, MeanWait: er.MeanWait,
		Events: er.Events, Reallocations: er.Reallocations,
	}
	for _, run := range er.Jobs {
		res.Jobs = append(res.Jobs, JobRun{
			Job: run.Job, Trace: run.Trace, ArriveAt: run.ArriveAt, StartAt: run.StartAt,
			DoneAt: run.DoneAt, Wait: run.Wait, MissedDeadline: run.MissedDeadline,
		})
	}
	return res
}

// randomClassicScenario draws one classic scenario: a pool that may be
// heterogeneous and need not be a power of two, the benchmark mix with
// random priorities, deadlines and caps, and 3–10 arrivals of which about
// half land on shared 30 s ticks with work in whole thousands, so tied
// arrivals and co-finishing instances both occur.
func randomClassicScenario(rng *rand.Rand, policy Policy) Scenario {
	pools := []int{6, 8, 12, 16, 24, 32, 48, 64}
	nodes := pools[rng.Intn(len(pools))]
	var factors []float64
	if rng.Intn(2) == 0 {
		factors = make([]float64, nodes)
		for i := range factors {
			factors[i] = []float64{1, 1, 1.25, 1.5}[rng.Intn(4)]
		}
	}
	jobs := benchMix()
	for i := range jobs {
		jobs[i].Priority = float64(1 + rng.Intn(4))
		if rng.Intn(2) == 0 {
			jobs[i].Deadline = 60 + 900*rng.Float64()
		}
		if rng.Intn(3) == 0 {
			jobs[i].MaxNodes = 2 * (1 + rng.Intn(nodes/2))
		}
	}
	trace := make([]Arrival, 3+rng.Intn(8))
	for i := range trace {
		at := 300 * rng.Float64()
		if rng.Intn(2) == 0 {
			at = 30 * float64(rng.Intn(8))
		}
		trace[i] = Arrival{At: at, Job: jobs[rng.Intn(len(jobs))].Name, Work: 1000 * float64(1+rng.Intn(20))}
	}
	return Scenario{Cluster: pizDaintCluster(nodes, factors), Jobs: jobs, Policy: policy, Trace: trace}
}

// TestClassicTraceIsArrivalsOnlyReplay: Simulate is the elastic stepper fed
// the trace's arrivals — same runs, same counters, same utilization bits,
// same error — over seeded random scenarios under both policies.
func TestClassicTraceIsArrivalsOnlyReplay(t *testing.T) {
	a := NewAllocator(engine.New())
	trials, stride := 400, 1
	if testing.Short() {
		stride = 4
	}
	waited, missed, tied, failed := 0, 0, 0, 0
	for _, policy := range []Policy{EqualSplit, PlannerGuided} {
		for trial := 0; trial < trials; trial += stride {
			sc := randomClassicScenario(rand.New(rand.NewSource(int64(trial))), policy)
			got, gotErr := a.Simulate(sc)
			er, wantErr := a.SimulateElastic(asElastic(sc))
			if gotErr != nil || wantErr != nil {
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s trial %d: Simulate error %v, stepper error %v", policy, trial, gotErr, wantErr)
				}
				failed++
				continue
			}
			want := classicShape(sc.Cluster.Nodes, er)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d: Simulate differs from the arrivals-only replay\nscenario: %+v\ngot:  %+v\nwant: %+v",
					policy, trial, sc, got, want)
			}
			if got.MeanWait > 0 {
				waited++
			}
			for _, run := range got.Jobs {
				if run.MissedDeadline {
					missed++
					break
				}
			}
			if got.Reallocations < got.Events {
				tied++
			}
		}
	}
	// The generator must keep exercising what the two loops disagreed on.
	if waited == 0 || missed == 0 || tied == 0 {
		t.Fatalf("generator went soft: %d scenarios waited, %d missed a deadline, %d shared a re-plan (%d errored)",
			waited, missed, tied, failed)
	}
}

// TestSimulateAgesStarvedInstance: a classic trace ages starved instances
// like any other stepper run. One quantum, two priorities: "lo" runs alone
// until "hi" (priority 2) arrives at t=10 and takes the quantum; lo's
// deadline of 100 s halves its aging constant to 50 s, so by the third
// arrival at t=100 its effective priority is 1·(1 + 90/50) = 2.8 and it
// out-bids both hi instances and finishes its remaining work first; at
// its base priority it would run last.
func TestSimulateAgesStarvedInstance(t *testing.T) {
	res, err := SimulateOn(engine.New(engine.Workers(1)), Scenario{
		Cluster: pizDaintCluster(2, nil),
		Jobs: []Job{
			{Name: "lo", Model: model.BERT48(), MiniBatch: 64, Priority: 1, Deadline: 100},
			{Name: "hi", Model: model.BERT48(), MiniBatch: 64, Priority: 2},
		},
		Trace: []Arrival{
			{At: 0, Job: "lo", Work: 10000},
			{At: 10, Job: "hi", Work: 10000},
			{At: 100, Job: "hi", Work: 10000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, late := res.Jobs[0], res.Jobs[1], res.Jobs[2]
	if lo.Wait != 0 || hi.Wait != 0 {
		t.Fatalf("lo waited %g, hi waited %g; both start on arrival", lo.Wait, hi.Wait)
	}
	if !(lo.DoneAt < hi.DoneAt && hi.DoneAt < late.DoneAt) {
		t.Fatalf("done at lo %.2f, hi %.2f, late hi %.2f; want the aged lo first, then the hi instances in arrival order",
			lo.DoneAt, hi.DoneAt, late.DoneAt)
	}
	if late.StartAt != lo.DoneAt && late.StartAt != hi.DoneAt {
		t.Fatalf("late hi started at %.2f, not at a departure (%.2f, %.2f)", late.StartAt, lo.DoneAt, hi.DoneAt)
	}
}

// TestSimulateCoFinishersShareOneReplan: instances that finish at the same
// time retire in one re-plan. Three equal shares of six nodes; the two "a"
// instances carry equal work and depart together, "b" runs on. Re-plans: the
// arrival batch and the shared departure time, not one per departure.
func TestSimulateCoFinishersShareOneReplan(t *testing.T) {
	res, err := SimulateOn(engine.New(engine.Workers(1)), Scenario{
		Cluster: pizDaintCluster(6, nil),
		Jobs: []Job{
			{Name: "a", Model: model.BERT48(), MiniBatch: 64},
			{Name: "b", Model: model.BERT48(), MiniBatch: 64},
		},
		Policy: EqualSplit,
		Trace: []Arrival{
			{At: 0, Job: "a", Work: 5000},
			{At: 0, Job: "a", Work: 5000},
			{At: 0, Job: "b", Work: 50000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[0].DoneAt != res.Jobs[1].DoneAt || !(res.Jobs[2].DoneAt > res.Jobs[0].DoneAt) {
		t.Fatalf("done at %v, %v, %v; want the a instances together and b later",
			res.Jobs[0].DoneAt, res.Jobs[1].DoneAt, res.Jobs[2].DoneAt)
	}
	if res.Events != 6 || res.Reallocations != 2 {
		t.Fatalf("events %d, re-plans %d; want 6 events in 2 re-plans", res.Events, res.Reallocations)
	}
}

// TestSimulateTraceBounded: a classic trace is bounded like an event list.
// One arrival over MaxEvents is refused before any plan runs; at the limit,
// arrivals stacking faster than they drain stop at MaxResident, and a sparse
// trace replays.
func TestSimulateTraceBounded(t *testing.T) {
	sc := benchScenario(PlannerGuided)
	sc.Trace = make([]Arrival, MaxEvents+1)
	for i := range sc.Trace {
		sc.Trace[i] = Arrival{At: float64(i), Job: "bert-small", Work: 1000}
	}
	a := NewAllocator(engine.New(engine.Workers(1)))
	_, err := a.Simulate(sc)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d trace arrivals exceed the limit %d", MaxEvents+1, MaxEvents)) {
		t.Fatalf("oversized trace: %v, want the MaxEvents limit error", err)
	}
	if hits, misses := a.PlanStats(); hits != 0 || misses != 0 {
		t.Fatalf("the refused trace cost %d plan hits and %d planner runs", hits, misses)
	}
	sc.Trace = sc.Trace[:MaxEvents]
	if _, err := a.Simulate(sc); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("resident, above the limit %d", MaxResident)) {
		t.Fatalf("stacking trace: %v, want the MaxResident error", err)
	}
	for i := range sc.Trace {
		sc.Trace[i].At *= 1000
	}
	res, err := a.Simulate(sc)
	if err != nil || res.Events != 2*MaxEvents {
		t.Fatalf("sparse trace at the limit: %v, %+v", err, res)
	}
}

// TestSimulateAboveElasticNodeCap: MaxElasticNodes caps a pool that joins can
// grow. A classic trace has no joins, so Simulate replays any cluster a
// Request admits — the elastic twin of the same arrivals is refused — and
// at the cap itself the two still agree bit for bit.
func TestSimulateAboveElasticNodeCap(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	sc := benchScenario(PlannerGuided)
	sc.Cluster = pizDaintCluster(MaxElasticNodes, nil)
	got, err := a.Simulate(sc)
	er, elasticErr := a.SimulateElastic(asElastic(sc))
	if err != nil || elasticErr != nil || !reflect.DeepEqual(got, classicShape(MaxElasticNodes, er)) {
		t.Fatalf("at the cap: Simulate %+v (%v), stepper %+v (%v)", got, err, er, elasticErr)
	}
	sc.Cluster = pizDaintCluster(MaxElasticNodes+2, nil)
	if _, err := a.SimulateElastic(asElastic(sc)); err == nil || !strings.Contains(err.Error(), "nodes after all joins exceed the limit") {
		t.Fatalf("elastic twin above the cap: %v, want the node-limit error", err)
	}
	res, err := a.Simulate(sc)
	if err != nil {
		t.Fatalf("classic trace on %d nodes: %v", MaxElasticNodes+2, err)
	}
	if res.Nodes != MaxElasticNodes+2 || len(res.Jobs) != len(sc.Trace) || res.Events != 2*len(sc.Trace) || !(res.Makespan > 0) {
		t.Fatalf("classic trace on %d nodes implausible: %+v", MaxElasticNodes+2, res)
	}
	for _, run := range res.Jobs {
		if !(run.DoneAt > run.ArriveAt) {
			t.Fatalf("run never finished: %+v", run)
		}
	}
}
