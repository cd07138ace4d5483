// chimera-fleet allocates a cluster across a fleet of training jobs and —
// when the scenario carries a trace — replays it through the deterministic
// fleet simulator.
//
// The scenario file is JSON (see examples/fleet/scenario.json and
// examples/fleet/elastic.json): a cluster (node count, platform preset or
// inline device+network, optional per-node speed factors), a job list
// (model preset or inline config, target mini-batch, priority, optional
// deadline and node cap), an allocation policy, and either a classic
// arrival trace ("trace": {at, job, work} entries) or an elastic event
// trace ("events": arrivals mixed with node_fail / node_drain / node_join
// churn, plus migration_penalty, aging_tau and replan knobs). Without
// -simulate the tool prints the static allocation for the job list; with
// -simulate it replays the trace — elastic scenarios route through the
// incremental re-planner — and reports makespan, per-job waits, restarts,
// and utilization.
//
// -trace FILE substitutes the scenario's trace with an event trace loaded
// from FILE (a JSON array of event objects), so one cluster + job
// vocabulary can replay many churn traces. -replan and -penalty override
// the scenario's re-plan mode and migration penalty.
//
// With -json it emits the same wire shapes chimera-serve's /v1/fleet/plan
// and /v1/fleet/simulate serve (the fleet results encode themselves), so a
// served fleet plan or simulation is byte-identical to this tool's output
// for the same scenario.
//
// -controller switches from batch replay to the live fleet control plane:
// the scenario (which must carry no trace or events — the controller
// ingests churn over HTTP) seeds a long-running daemon on -addr serving
// POST /v1/fleet/events and /v1/fleet/whatif, GET /v1/fleet/allocation,
// /v1/fleet/events/log, /v1/fleet/stream (SSE), /healthz, /readyz and
// /metrics. Replaying the recorded event log through -simulate reproduces
// the controller's final allocation bit-identically. SIGINT/SIGTERM shut
// the daemon down gracefully.
//
// Example:
//
//	chimera-fleet -scenario examples/fleet/scenario.json
//	chimera-fleet -scenario examples/fleet/scenario.json -policy equal-split
//	chimera-fleet -scenario examples/fleet/elastic.json -simulate -json
//	chimera-fleet -scenario examples/fleet/elastic.json -simulate -replan full -penalty 30
//	chimera-fleet -scenario examples/fleet/scenario.json -controller -addr 127.0.0.1:8643
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"chimera/internal/controller"
	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chimera-fleet:", err)
		os.Exit(1)
	}
}

// run is the whole tool behind a testable seam: the golden-file tests
// drive it exactly as main does.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("chimera-fleet", flag.ContinueOnError)
	scenario := fs.String("scenario", "", "path to the JSON scenario file (required)")
	tracePath := fs.String("trace", "", "path to a JSON event-trace file overriding the scenario's trace")
	policy := fs.String("policy", "", "override the scenario's allocation policy: "+strings.Join(fleet.Policies(), "|"))
	replan := fs.String("replan", "", "override the elastic re-plan mode: "+strings.Join(fleet.ReplanModes(), "|"))
	penalty := fs.Float64("penalty", -1, "override the elastic migration penalty (seconds per pipeline stage; -1 = scenario's)")
	simulate := fs.Bool("simulate", false, "replay the scenario's trace instead of planning the static job list")
	jsonOut := fs.Bool("json", false, "emit the /v1/fleet wire formats instead of the table")
	workers := fs.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS, 1 = serial)")
	controllerMode := fs.Bool("controller", false, "run the live fleet controller daemon instead of a one-shot plan or replay")
	addr := fs.String("addr", "127.0.0.1:8643", "controller listen address (with -controller)")
	capacity := fs.Int("cache-capacity", 4096, "per-table engine cache bound with LRU eviction (0 = unbounded; with -controller)")
	maxInflight := fs.Int("max-inflight", 0, "controller admission limit on concurrent mutating requests (0 = 4×GOMAXPROCS; with -controller)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed usage; that is success, not an error
		}
		return err
	}

	if *scenario == "" {
		return fmt.Errorf("-scenario is required (see examples/fleet/scenario.json)")
	}
	var sc serve.FleetScenario
	if err := decodeFile(*scenario, &sc); err != nil {
		return err
	}
	if *tracePath != "" {
		var events []serve.FleetEventRef
		if err := decodeFile(*tracePath, &events); err != nil {
			return err
		}
		sc.Trace, sc.Events = nil, events
	}
	if *policy != "" {
		sc.Policy = *policy
	}
	if *replan != "" {
		sc.Replan = *replan
	}
	if *penalty >= 0 {
		sc.MigrationPenalty = *penalty
	}

	if *controllerMode {
		return runController(sc, *addr, *workers, *capacity, *maxInflight)
	}

	eng := engine.Default()
	if *workers > 0 {
		eng = engine.New(engine.Workers(*workers))
	}
	alloc := fleet.NewAllocator(eng)

	if *simulate && sc.Elastic() {
		return simulateElastic(alloc, sc, *jsonOut, stdout)
	}
	if *simulate {
		return simulateClassic(alloc, sc, *jsonOut, stdout)
	}

	req, err := serve.FleetPlanRequest{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: sc.Policy}.Resolve()
	if err != nil {
		return err
	}
	al, err := alloc.Allocate(req)
	if err != nil {
		return err
	}
	if *jsonOut {
		return emit(stdout, al)
	}
	fmt.Fprint(stdout, al)
	return nil
}

// runController is -controller mode: the scenario seeds a live control
// plane that ingests churn over HTTP and re-plans incrementally per batch.
// It blocks until SIGINT/SIGTERM, then drains and exits.
func runController(sc serve.FleetScenario, addr string, workers, capacity, maxInflight int) error {
	c, err := controller.New(controller.Config{
		Scenario:      sc,
		Workers:       workers,
		CacheCapacity: capacity,
		MaxInflight:   maxInflight,
	})
	if err != nil {
		return err
	}

	log.Printf("chimera-fleet: controller listening on %s (%d nodes, %d jobs, max inflight=%d)",
		addr, sc.Cluster.Nodes, len(sc.Jobs), c.MaxInflight())
	if err := c.Run(addr); err != nil {
		return err
	}
	log.Printf("chimera-fleet: controller stopped")
	return nil
}

func simulateClassic(alloc *fleet.Allocator, sc serve.FleetScenario, jsonOut bool, stdout io.Writer) error {
	resolved, err := sc.Resolve()
	if err != nil {
		return err
	}
	res, err := alloc.Simulate(resolved)
	if err != nil {
		return err
	}
	if jsonOut {
		return emit(stdout, res)
	}
	fmt.Fprintf(stdout, "replayed %d arrivals on %d nodes under %s: makespan %.1fs, utilization %.0f%%, mean wait %.1fs (%d events, %d reallocations)\n",
		len(res.Jobs), res.Nodes, res.Policy, res.Makespan, 100*res.Utilization, res.MeanWait, res.Events, res.Reallocations)
	for _, run := range res.Jobs {
		deadline := ""
		if run.MissedDeadline {
			deadline = "  MISSED DEADLINE"
		}
		fmt.Fprintf(stdout, "  trace[%d] %-16s arrive %8.1fs  start %8.1fs  done %8.1fs  wait %6.1fs%s\n",
			run.Trace, run.Job, run.ArriveAt, run.StartAt, run.DoneAt, run.Wait, deadline)
	}
	return nil
}

func simulateElastic(alloc *fleet.Allocator, sc serve.FleetScenario, jsonOut bool, stdout io.Writer) error {
	resolved, err := sc.ResolveElastic()
	if err != nil {
		return err
	}
	res, err := alloc.SimulateElastic(resolved)
	if err != nil {
		return err
	}
	if jsonOut {
		return emit(stdout, res)
	}
	fmt.Fprintf(stdout, "replayed %d events (%d fails, %d drains, %d joins) on %d→%d nodes under %s/%s:\n",
		res.Events, res.Fails, res.Drains, res.Joins, res.InitialNodes, res.FinalNodes, res.Policy, res.Replan)
	fmt.Fprintf(stdout, "  makespan %.1fs, utilization %.0f%%, mean wait %.1fs, %d migrations costing %.1fs debt (%d reallocations, %d job evaluations)\n",
		res.Makespan, 100*res.Utilization, res.MeanWait, res.Migrations, res.PenaltySeconds, res.Reallocations, res.JobsEvaluated)
	for _, run := range res.Jobs {
		deadline := ""
		if run.MissedDeadline {
			deadline = "  MISSED DEADLINE"
		}
		fmt.Fprintf(stdout, "  events[%d] %-16s arrive %8.1fs  start %8.1fs  done %8.1fs  wait %6.1fs  restarts %d (%.1fs)%s\n",
			run.Trace, run.Job, run.ArriveAt, run.StartAt, run.DoneAt, run.Wait, run.Restarts, run.PenaltySeconds, deadline)
	}
	if len(res.Final) > 0 {
		fmt.Fprintln(stdout, "  final allocation:")
		for _, fs := range res.Final {
			fmt.Fprintf(stdout, "    %-16s nodes %-3d W=%-3d D=%-3d B=%-3d %6.1f seq/s (weighted %.1f)\n",
				fs.Job, fs.Nodes, fs.W, fs.D, fs.B, fs.Throughput, fs.Weighted)
		}
	}
	return nil
}

func decodeFile(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return serve.DecodeStrict(f, v)
}

func emit(stdout io.Writer, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(raw))
	return err
}
