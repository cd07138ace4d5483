package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"chimera/internal/fleet"
	"chimera/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite the chimera-fleet golden files from current output")

// golden drives run() with the given arguments and compares its stdout
// against the committed golden file; -update regenerates the files after an
// intentional output change (mirroring the trace SVG golden pattern).
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./cmd/chimera-fleet -update` once): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output drifted from golden %s.\nIf the change is intentional, regenerate with -update.\ngot:\n%s", path, out.Bytes())
	}
}

// TestGoldenScenarioPlanJSON pins chimera-fleet -json on the committed
// example scenario byte-for-byte — the CLI side of the "one serialization
// path" contract with /v1/fleet/plan.
func TestGoldenScenarioPlanJSON(t *testing.T) {
	golden(t, "scenario_plan.json",
		"-scenario", "../../examples/fleet/scenario.json", "-json", "-workers", "1")
}

// TestGoldenScenarioSimJSON pins the classic trace replay of the example
// scenario.
func TestGoldenScenarioSimJSON(t *testing.T) {
	golden(t, "scenario_sim.json",
		"-scenario", "../../examples/fleet/scenario.json", "-simulate", "-json", "-workers", "1")
}

// TestGoldenElasticSimJSON pins the elastic churn replay of the committed
// elastic example, including the event log's total order.
func TestGoldenElasticSimJSON(t *testing.T) {
	golden(t, "elastic_sim.json",
		"-scenario", "../../examples/fleet/elastic.json", "-simulate", "-json", "-workers", "1")
}

// TestRunRejectsMissingScenario: the tool fails loudly without -scenario,
// while -h prints usage and exits clean, and elastic-only flags on a
// classic trace are rejected instead of silently ignored.
func TestRunRejectsMissingScenario(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-json"}, &out); err == nil {
		t.Fatal("run without -scenario succeeded")
	}
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatalf("-h is not an error: %v", err)
	}
	err := run([]string{"-scenario", "../../examples/fleet/scenario.json", "-simulate", "-penalty", "30"}, &out)
	if err == nil {
		t.Fatal("-penalty on a classic trace was silently ignored")
	}
}

// TestTraceFlagOverridesScenario: -trace substitutes the event trace, so
// the classic example replays an elastic churn trace without editing the
// scenario file.
func TestTraceFlagOverridesScenario(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(trace, []byte(`[
		{"at": 0, "job": "bert-production", "work": 5000},
		{"at": 10, "kind": "node_fail", "node": 0},
		{"at": 20, "kind": "node_join"}
	]`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{
		"-scenario", "../../examples/fleet/scenario.json",
		"-trace", trace, "-simulate", "-json", "-workers", "1",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kind": "node_fail"`, `"fails": 1`, `"joins": 1`} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("elastic output missing %q:\n%s", want, out.Bytes())
		}
	}
}

// TestClassicTraceEqualsArrivalEvents: a classic trace is sugar for arrival
// events under full re-planning. The example scenario replayed with
// -simulate, and its arrivals fed back as a -trace events file with
// -replan full, agree on makespan, mean wait and every done_at.
func TestClassicTraceEqualsArrivalEvents(t *testing.T) {
	const scenario = "../../examples/fleet/scenario.json"
	var sc serve.FleetScenario
	if err := decodeFile(scenario, &sc); err != nil {
		t.Fatal(err)
	}
	arrivals, err := json.Marshal(sc.Trace) // {at, job, work}: an arrival event as it stands
	if err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "arrivals.json")
	if err := os.WriteFile(trace, arrivals, 0o644); err != nil {
		t.Fatal(err)
	}
	var classicOut, elasticOut bytes.Buffer
	if err := run([]string{"-scenario", scenario, "-simulate", "-json", "-workers", "1"}, &classicOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", scenario, "-trace", trace, "-replan", "full", "-simulate", "-json", "-workers", "1"}, &elasticOut); err != nil {
		t.Fatal(err)
	}
	var classic fleet.SimResult
	var elastic fleet.ElasticResult
	if err := json.Unmarshal(classicOut.Bytes(), &classic); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(elasticOut.Bytes(), &elastic); err != nil {
		t.Fatal(err)
	}
	if classic.Makespan != elastic.Makespan || classic.MeanWait != elastic.MeanWait || len(classic.Jobs) != len(elastic.Jobs) {
		t.Fatalf("classic makespan %v wait %v over %d runs, elastic %v / %v over %d",
			classic.Makespan, classic.MeanWait, len(classic.Jobs), elastic.Makespan, elastic.MeanWait, len(elastic.Jobs))
	}
	for i, run := range classic.Jobs {
		if run.DoneAt != elastic.Jobs[i].DoneAt {
			t.Fatalf("trace[%d] done at %v as a classic trace, %v as arrival events", i, run.DoneAt, elastic.Jobs[i].DoneAt)
		}
	}
}
