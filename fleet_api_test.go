package chimera_test

import (
	"testing"

	"chimera"
)

// TestFleetFacade: the public PlanFleet/SimulateFleet surface solves a
// small fleet problem end to end and honors the policy constants.
func TestFleetFacade(t *testing.T) {
	cluster := chimera.FleetCluster{
		Nodes:  16,
		Device: chimera.PizDaintNode(), Network: chimera.AriesNetwork(),
	}
	jobs := []chimera.FleetJob{
		{Name: "big", Model: chimera.BERT48(), MiniBatch: 256, Priority: 4},
		{Name: "small", Model: chimera.BERT48(), MiniBatch: 32},
	}
	guided, err := chimera.PlanFleet(chimera.FleetRequest{Cluster: cluster, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if guided.Policy != chimera.FleetPlannerGuided {
		t.Fatalf("default policy = %q", guided.Policy)
	}
	equal, err := chimera.NewFleetAllocator(chimera.NewEngine(1)).Allocate(chimera.FleetRequest{
		Cluster: cluster, Jobs: jobs, Policy: chimera.FleetEqualSplit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(guided.WeightedThroughput >= equal.WeightedThroughput) {
		t.Fatalf("planner-guided %.2f below equal-split %.2f", guided.WeightedThroughput, equal.WeightedThroughput)
	}
	for _, al := range []*chimera.FleetAllocation{guided, equal} {
		if len(al.Jobs) != 2 || al.Jobs[0].Job != "big" {
			t.Fatalf("jobs out of input order: %+v", al.Jobs)
		}
	}

	res, err := chimera.SimulateFleet(chimera.FleetScenario{
		Cluster: cluster, Jobs: jobs,
		Trace: []chimera.FleetArrival{
			{At: 0, Job: "big", Work: 5000},
			{At: 10, Job: "small", Work: 500},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || len(res.Jobs) != 2 {
		t.Fatalf("implausible fleet simulation: %+v", res)
	}
}

// TestFleetElasticFacade: the elastic simulator is reachable through the
// facade — churn events replay, the pool tracks fail/join, and the event
// kinds and re-plan constants line up with the fleet package's.
func TestFleetElasticFacade(t *testing.T) {
	cluster := chimera.FleetCluster{
		Nodes:  8,
		Device: chimera.PizDaintNode(), Network: chimera.AriesNetwork(),
	}
	res, err := chimera.SimulateFleetElastic(chimera.FleetElasticScenario{
		Cluster: cluster,
		Jobs: []chimera.FleetJob{
			{Name: "a", Model: chimera.BERT48(), MiniBatch: 64, Priority: 2},
			{Name: "b", Model: chimera.BERT48(), MiniBatch: 32},
		},
		Replan:           chimera.FleetReplanIncremental,
		MigrationPenalty: 2,
		Events: []chimera.FleetEvent{
			{At: 0, Kind: chimera.FleetArrivalEvent, Job: "a", Work: 20000},
			{At: 5, Kind: chimera.FleetArrivalEvent, Job: "b", Work: 5000},
			{At: 10, Kind: chimera.FleetNodeFail, Node: 0},
			{At: 20, Kind: chimera.FleetNodeJoin},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replan != chimera.FleetReplanIncremental {
		t.Fatalf("replan mode = %q", res.Replan)
	}
	if res.Fails != 1 || res.Joins != 1 || res.InitialNodes != 8 || res.FinalNodes != 8 {
		t.Fatalf("churn accounting off: %+v", res)
	}
	for _, run := range res.Jobs {
		if run.DoneAt < 0 {
			t.Fatalf("run %s never completed under churn", run.Job)
		}
	}
}
