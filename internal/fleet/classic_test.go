package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

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
	res, err := NewAllocator(engine.New(engine.Workers(1))).Simulate(Scenario{
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
	res, err := NewAllocator(engine.New(engine.Workers(1))).Simulate(Scenario{
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

// TestSimulateAtNodeLimit: MaxNodes is the one node limit, on the classic
// and the elastic path alike. A classic trace on exactly MaxNodes nodes
// replays, and so does an elastic trace whose join brings the pool to
// exactly MaxNodes; one node more is an error naming the limit — in the
// cluster, in a trace's joins, and in a live batch's join.
func TestSimulateAtNodeLimit(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	limit := fmt.Sprint(MaxNodes)
	sc := benchScenario(PlannerGuided)
	sc.Cluster = pizDaintCluster(MaxNodes, nil)
	res, err := a.Simulate(sc)
	if err != nil || res.Nodes != MaxNodes || len(res.Jobs) != len(sc.Trace) || !(res.Makespan > 0) {
		t.Fatalf("classic trace at the limit: %v, %+v", err, res)
	}
	esc := asElastic(sc)
	esc.Cluster = pizDaintCluster(MaxNodes-1, nil)
	esc.Events = append(esc.Events, Event{At: 15, Kind: EvNodeJoin})
	er, err := a.SimulateElastic(esc)
	if err != nil || er.FinalNodes != MaxNodes || er.Joins != 1 {
		t.Fatalf("elastic trace joining up to the limit: %v, %+v", err, er)
	}

	sc.Cluster = pizDaintCluster(MaxNodes+1, nil)
	if _, err := a.Simulate(sc); err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("classic trace one node over: %v, want the node-limit error", err)
	}
	esc.Cluster = pizDaintCluster(MaxNodes, nil)
	if _, err := a.SimulateElastic(esc); err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("elastic trace joining one node over: %v, want the node-limit error", err)
	}
	live, err := a.NewElasticSim(ElasticScenario{Cluster: esc.Cluster, Jobs: sc.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Ingest([]Event{{At: 1, Kind: EvNodeJoin}}); err == nil || !strings.Contains(err.Error(), limit) {
		t.Fatalf("live join one node over: %v, want the node-limit error", err)
	}
}

// TestSimulateAtNodeLimitScale: a search's cost follows the jobs'
// breakpoints, not the idle pool. 100 arrivals of the uncapped bench mix
// replay on MaxNodes nodes as a classic trace, as an elastic one whose joins
// fill the pool to the limit, and as the same elastic trace on a pool of
// distinct node speeds whose joins are ever faster, so the shares starved
// instances price mix speeds out of order. The gate is the count of curve
// values read, which is deterministic: each case reads under maxReads, where
// the quantum walk this replaced read one slot per quantum, up to 32,768 per
// job per greedy round (its classic trace took 163 s). A loose clock bound,
// asserted only without -race, catches what the count cannot see: re-walking
// a donor's released nodes for every candidate took 9.7 s on the mixed pool.
// Times are logged either way (≈ 0.5, 0.3 and 0.7 s on one Xeon core).
// -short (the race sweep's setting) replays the first 10 arrivals.
func TestSimulateAtNodeLimitScale(t *testing.T) {
	const maxReads, maxTime = 50_000_000, 5 * time.Second
	sc := Scenario{Cluster: pizDaintCluster(MaxNodes, nil), Jobs: benchMix(), Policy: PlannerGuided}
	arrivals := 100
	if testing.Short() {
		arrivals = 10
	}
	for i := 0; i < arrivals; i++ {
		sc.Trace = append(sc.Trace, Arrival{At: float64(10 * i), Job: sc.Jobs[i%len(sc.Jobs)].Name, Work: float64(20000 * (1 + i%5))})
	}
	const joins = 25
	esc := asElastic(sc)
	esc.Replan = ReplanIncremental
	esc.Cluster = pizDaintCluster(MaxNodes-joins, nil)
	mixed := esc
	factors := make([]float64, MaxNodes-joins)
	for i := range factors {
		factors[i] = 1 + float64(i)/MaxNodes
	}
	mixed.Cluster = pizDaintCluster(MaxNodes-joins, factors)
	mixed.Events = slices.Clone(esc.Events)
	for i := 0; i < joins; i++ {
		esc.Events = append(esc.Events, Event{At: float64(40*i + 5), Kind: EvNodeJoin})
		mixed.Events = append(mixed.Events, Event{At: float64(40*i + 5), Kind: EvNodeJoin, Factor: 0.9 - 0.01*float64(i)})
	}
	elastic := func(esc ElasticScenario) func(a *Allocator) (int, error) {
		return func(a *Allocator) (int, error) {
			res, err := a.SimulateElastic(esc)
			if err != nil {
				return 0, err
			}
			if res.FinalNodes != MaxNodes {
				return 0, fmt.Errorf("final pool %d, want %d", res.FinalNodes, MaxNodes)
			}
			return len(res.Jobs), nil
		}
	}
	for _, run := range []struct {
		name string
		sim  func(a *Allocator) (int, error)
	}{
		{"classic", func(a *Allocator) (int, error) {
			res, err := a.Simulate(sc)
			if err != nil {
				return 0, err
			}
			return len(res.Jobs), nil
		}},
		{"elastic", elastic(esc)},
		{"mixed elastic", elastic(mixed)},
	} {
		a := NewAllocator(engine.New(engine.Workers(1)))
		start := time.Now()
		n, err := run.sim(a)
		took := time.Since(start)
		if err != nil || n != len(sc.Trace) {
			t.Fatalf("%s: %v (%d runs)", run.name, err, n)
		}
		hits, misses := a.PlanStats()
		t.Logf("%s: %d arrivals on %d nodes in %v, %d curve values read", run.name, n, MaxNodes, took, hits+misses)
		if hits+misses > maxReads {
			t.Errorf("%s: read %d curve values, want ≤ %d", run.name, hits+misses, maxReads)
		}
		if !raceEnabled && took > maxTime {
			t.Errorf("%s: %d arrivals on %d nodes took %v, want < %v", run.name, n, MaxNodes, took, maxTime)
		}
	}
}
