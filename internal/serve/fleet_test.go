package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/fleet"
)

const fleetBody = `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},` +
	`"jobs":[{"name":"big","model":{"preset":"bert48"},"mini_batch":256,"priority":4},` +
	`{"name":"small","model":{"preset":"bert48"},"mini_batch":32}]}`

const fleetElasticBody = `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
	`"jobs":[{"name":"big","model":{"preset":"bert48"},"mini_batch":256,"priority":4,"max_nodes":4},` +
	`{"name":"small","model":{"preset":"bert48"},"mini_batch":32}],` +
	`"migration_penalty":2,` +
	`"events":[{"at":0,"job":"big","work":20000},{"at":5,"job":"small","work":5000},` +
	`{"at":10,"kind":"node_fail","node":0},{"at":20,"kind":"node_join","factor":1.5}]}`

const fleetClassicSimBody = `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
	`"jobs":[{"name":"big","model":{"preset":"bert48"},"mini_batch":256,"priority":4}],` +
	`"trace":[{"at":0,"job":"big","work":10000}]}`

// TestFleetPlanMatchesInProcess: the served /v1/fleet/plan body must be
// byte-identical to encoding an in-process allocation through the same
// codec — the acceptance gate of the fleet subsystem.
func TestFleetPlanMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/fleet/plan", fleetBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}

	var req FleetPlanRequest
	if err := DecodeStrict(strings.NewReader(fleetBody), &req); err != nil {
		t.Fatal(err)
	}
	freq, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	al, err := fleet.NewAllocator(engine.New(engine.Workers(1))).Allocate(freq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(al)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served fleet plan differs from in-process allocation:\nserved: %s\nlocal:  %s", body, want)
	}
}

// TestOwnedEngineBoundsAllocator: a caller-owned engine overrides
// CacheCapacity for the fleet allocator's plan memo as for its own tables.
// With CacheCapacity 0, an owned engine of capacity 2 gives an allocator
// whose memo evicts, so allocating one request again replans; an owned
// unbounded engine's allocator recalls every plan.
func TestOwnedEngineBoundsAllocator(t *testing.T) {
	var req FleetPlanRequest
	if err := DecodeStrict(strings.NewReader(fleetBody), &req); err != nil {
		t.Fatal(err)
	}
	freq, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for _, capacity := range []int{2, 0} {
		srv := New(Config{Engine: engine.New(engine.Workers(1), engine.Capacity(capacity))})
		var misses [2]uint64
		for i := range misses {
			if _, err := srv.allocator.Allocate(freq); err != nil {
				t.Fatal(err)
			}
			_, misses[i] = srv.allocator.PlanStats()
		}
		if replanned := misses[1] > misses[0]; replanned != (capacity > 0) {
			t.Errorf("engine capacity %d: planner runs %d then %d; want a replan exactly when the engine is bounded", capacity, misses[0], misses[1])
		}
	}
}

// TestFleetPlanCached: repeating one fleet request is absorbed by the
// response cache (single miss) and replays identical bytes.
func TestFleetPlanCached(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheCapacity: 64})
	_, b1 := post(t, ts, "/v1/fleet/plan", fleetBody)
	_, b2 := post(t, ts, "/v1/fleet/plan", fleetBody)
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated fleet plan produced different bytes")
	}
	st := srv.Snapshot()
	if st.FleetCache.Misses != 1 || st.FleetCache.Hits != 1 {
		t.Fatalf("fleet_cache = %+v, want 1 miss / 1 hit", st.FleetCache)
	}
	if st.Requests.FleetPlan != 2 {
		t.Fatalf("fleet_plan counter = %d, want 2", st.Requests.FleetPlan)
	}
}

// TestFleetPlanPolicyHonored: explicit policies produce different
// allocations on a priority-skewed mix, and the planner-guided default
// equals asking for it by name.
func TestFleetPlanPolicyHonored(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	withPolicy := func(p string) []byte {
		body := fleetBody
		if p != "" {
			body = strings.TrimSuffix(body, "}") + `,"policy":"` + p + `"}`
		}
		status, raw := post(t, ts, "/v1/fleet/plan", body)
		if status != http.StatusOK {
			t.Fatalf("policy %q: status %d: %s", p, status, raw)
		}
		return raw
	}
	def, guided, equal := withPolicy(""), withPolicy("planner-guided"), withPolicy("equal-split")
	if !bytes.Equal(def, guided) {
		t.Fatal("default policy is not planner-guided")
	}
	var g, e fleet.Allocation
	if err := json.Unmarshal(guided, &g); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(equal, &e); err != nil {
		t.Fatal(err)
	}
	if g.Policy != "planner-guided" || e.Policy != "equal-split" {
		t.Fatalf("policies echoed wrong: %q / %q", g.Policy, e.Policy)
	}
	if !(g.WeightedThroughput > e.WeightedThroughput) {
		t.Fatalf("planner-guided %.2f not above equal-split %.2f on a priority-skewed mix",
			g.WeightedThroughput, e.WeightedThroughput)
	}
}

// TestFleetPlanRejections: the strict codec rejects malformed fleet
// requests with 400, including trailing garbage after the JSON object.
func TestFleetPlanRejections(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"trailing-garbage", fleetBody + `garbage`},
		{"trailing-object", fleetBody + `{"again":true}`},
		{"unknown-field", strings.TrimSuffix(fleetBody, "}") + `,"bogus":1}`},
		{"no-jobs", `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},"jobs":[]}`},
		{"unnamed-job", `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},"jobs":[{"model":{"preset":"bert48"},"mini_batch":32}]}`},
		{"dup-job", `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32},{"name":"a","model":{"preset":"bert48"},"mini_batch":32}]}`},
		{"bad-policy", strings.TrimSuffix(fleetBody, "}") + `,"policy":"fifo"}`},
		{"tiny-cluster", `{"cluster":{"nodes":1,"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}]}`},
		{"huge-cluster", `{"cluster":{"nodes":1000000000,"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}]}`},
		{"missing-platform", `{"cluster":{"nodes":16},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}]}`},
		{"unknown-model", `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert9000"},"mini_batch":32}]}`},
		{"bad-minibatch", `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":0}]}`},
		{"negative-priority", `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32,"priority":-1}]}`},
		{"factor-length", `{"cluster":{"nodes":16,"speed_factors":[1,2],"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}]}`},
		{"factor-range", `{"cluster":{"nodes":2,"speed_factors":[1,1e9],"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}]}`},
		{"unknown-scheduler", `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"},"scheduler":"peft"},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}]}`},
		{"too-many-jobs", fleetJobsBody(fleet.MaxJobs + 1)},
		{"negative-deadline", `{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32,"deadline":-1}]}`},
	}
	for _, tc := range cases {
		status, body := post(t, ts, "/v1/fleet/plan", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %s", tc.name, status, body)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: non-JSON error body %s", tc.name, body)
		}
	}
	if got := srv.Snapshot().ClientErrors; got != uint64(len(cases)) {
		t.Fatalf("client_errors = %d, want %d", got, len(cases))
	}
}

// fleetJobsBody is a fleet plan request with n distinct jobs.
func fleetJobsBody(n int) string {
	var b strings.Builder
	b.WriteString(`{"cluster":{"nodes":16,"platform":{"preset":"pizdaint"}},"jobs":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"j%d","model":{"preset":"bert48"},"mini_batch":32}`, i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestFleetSimulateElasticMatchesInProcess: the served /v1/fleet/simulate
// body for an elastic scenario must be byte-identical to encoding an
// in-process replay through the same codec.
func TestFleetSimulateElasticMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/fleet/simulate", fleetElasticBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var sc FleetScenario
	if err := DecodeStrict(strings.NewReader(fleetElasticBody), &sc); err != nil {
		t.Fatal(err)
	}
	esc, err := sc.ResolveElastic()
	if err != nil {
		t.Fatal(err)
	}
	res, err := fleet.SimulateElasticOn(engine.New(engine.Workers(1)), esc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served elastic simulation differs from in-process replay:\nserved: %s\nlocal:  %s", body, want)
	}
	// Spot-check the served content: one fail, one join, both jobs done.
	var resp fleet.ElasticResult
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fails != 1 || resp.Joins != 1 || len(resp.Jobs) != 2 {
		t.Fatalf("served replay implausible: %+v", resp)
	}
}

// TestFleetSimulateClassicTrace: a trace-only scenario replays and encodes
// as a fleet.SimResult.
func TestFleetSimulateClassicTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/fleet/simulate", fleetClassicSimBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var resp fleet.SimResult
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Makespan <= 0 || len(resp.Jobs) != 1 {
		t.Fatalf("served classic replay implausible: %+v", resp)
	}
}

// TestFleetSimulateCached: repeating one simulation is absorbed by the
// response cache and replays identical bytes.
func TestFleetSimulateCached(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheCapacity: 64})
	_, b1 := post(t, ts, "/v1/fleet/simulate", fleetElasticBody)
	_, b2 := post(t, ts, "/v1/fleet/simulate", fleetElasticBody)
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated fleet simulation produced different bytes")
	}
	st := srv.Snapshot()
	if st.FleetSimCache.Misses != 1 || st.FleetSimCache.Hits != 1 {
		t.Fatalf("fleet_sim_cache = %+v, want 1 miss / 1 hit", st.FleetSimCache)
	}
	if st.Requests.FleetSimulate != 2 {
		t.Fatalf("fleet_simulate count = %d, want 2", st.Requests.FleetSimulate)
	}
}

// TestFleetSimulateRejections: malformed simulation requests are 400s with
// the offence named, refused before any planning and without touching the
// response cache — a malformed classic-trace arrival as much as its elastic
// twin.
func TestFleetSimulateRejections(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheCapacity: 64})
	cases := []struct {
		name, body, want string
	}{
		{"empty", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}]}`, "neither a trace nor events"},
		{"both-traces", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"trace":[{"at":0,"job":"a","work":10}],"events":[{"at":0,"job":"a","work":10}]}`, "both trace and events"},
		{"classic-with-elastic-knobs", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"trace":[{"at":0,"job":"a","work":10}],"migration_penalty":60}`, "apply only to elastic"},
		{"bad-kind", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"events":[{"at":0,"kind":"reboot","job":"a","work":10}]}`, "unknown kind"},
		{"bad-replan", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"events":[{"at":0,"job":"a","work":10}],"replan":"lazy"}`, "replan mode"},
		{"odd-max-nodes", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32,"max_nodes":3}],` +
			`"events":[{"at":0,"job":"a","work":10}]}`, "max_nodes"},
		{"unknown-field", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"events":[{"at":0,"job":"a","work":10}],"chaos":true}`, "unknown field"},
		{"trailing", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"events":[{"at":0,"job":"a","work":10}]} garbage`, "trailing"},
		{"trace-unknown-job", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"trace":[{"at":0,"job":"b","work":10}]}`, "trace[0] names unknown job"},
		{"trace-negative-at", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"trace":[{"at":-1,"job":"a","work":10}]}`, "trace[0] time"},
		{"trace-zero-work", `{"cluster":{"nodes":8,"platform":{"preset":"pizdaint"}},` +
			`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":32}],` +
			`"trace":[{"at":0,"job":"a","work":0}]}`, "trace[0] work"},
	}
	for _, tc := range cases {
		status, body := post(t, ts, "/v1/fleet/simulate", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, status, body)
			continue
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %q does not mention %q", tc.name, body, tc.want)
		}
	}
	if _, planned := srv.allocator.PlanStats(); planned != 0 {
		t.Errorf("the refused requests ran the planner %d times", planned)
	}
	if c := srv.Snapshot().FleetSimCache; c.Entries != 0 || c.Misses != 0 {
		t.Errorf("the refused requests touched the cache: %+v", c)
	}
}

// TestFleetScenarioResolve: the CLI scenario format resolves jobs, policy
// and trace; the /v1/fleet/plan endpoint (no trace field) rejects traces.
func TestFleetScenarioResolve(t *testing.T) {
	body := strings.TrimSuffix(fleetBody, "}") +
		`,"trace":[{"at":0,"job":"big","work":1000},{"at":5,"job":"small","work":100}]}`
	var sc FleetScenario
	if err := DecodeStrict(strings.NewReader(body), &sc); err != nil {
		t.Fatal(err)
	}
	resolved, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved.Trace) != 2 || resolved.Trace[1].Job != "small" || resolved.Policy != fleet.PlannerGuided {
		t.Fatalf("scenario resolved wrong: %+v", resolved)
	}
	if _, err := fleet.SimulateOn(nil, resolved); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	status, raw := post(t, ts, "/v1/fleet/plan", body)
	if status != http.StatusBadRequest || !bytes.Contains(raw, []byte("trace")) {
		t.Fatalf("endpoint accepted a trace: %d %s", status, raw)
	}
}

// TestFleetHeterogeneousCluster: per-node speed factors flow through the
// wire into straggler-aware allocations.
func TestFleetHeterogeneousCluster(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"cluster":{"nodes":8,"speed_factors":[1,1,1,1,1,1,2,2],"platform":{"preset":"pizdaint"}},` +
		`"jobs":[{"name":"solo","model":{"preset":"bert48"},"mini_batch":64}]}`
	status, raw := post(t, ts, "/v1/fleet/plan", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var resp fleet.Allocation
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	j := resp.Jobs[0]
	if j.Plan == nil {
		t.Fatal("no plan for the solo job")
	}
	// Fastest-first assignment: the ×2 nodes (ids 6, 7) must be the last
	// assigned, and the straggler factor reflects the slowest used node.
	if j.StragglerFactor != 1 && j.StragglerFactor != 2 {
		t.Fatalf("implausible straggler factor %g", j.StragglerFactor)
	}
	if j.Throughput*j.StragglerFactor != j.Plan.Throughput {
		t.Fatalf("throughput %.4f × factor %g != plan throughput %.4f",
			j.Throughput, j.StragglerFactor, j.Plan.Throughput)
	}
}

// classicTraceBody is a one-job classic scenario with n arrivals 6 s apart.
func classicTraceBody(n int) string {
	var b strings.Builder
	b.WriteString(`{"cluster":{"nodes":64,"platform":{"preset":"pizdaint"}},` +
		`"jobs":[{"name":"a","model":{"preset":"bert48"},"mini_batch":64}],"trace":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"at":%d,"job":"a","work":1000}`, 6*i)
	}
	b.WriteString(`]}`)
	return b.String()
}

// TestFleetSimulateClassicTraceBounded: a classic trace is bounded like an
// event list. 28,000 arrivals fit the body cap and, replayed, would hold an
// admission slot for seconds; the request is a 400 naming trace and the
// limit, answered without planning or caching anything.
func TestFleetSimulateClassicTraceBounded(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheCapacity: 64})
	status, body := post(t, ts, "/v1/fleet/simulate", classicTraceBody(28000))
	if status != http.StatusBadRequest || !strings.Contains(string(body), fmt.Sprintf("28000 trace arrivals exceed the limit %d", MaxFleetEvents)) {
		t.Fatalf("28,000-arrival trace: status %d, body %s", status, body)
	}
	if _, planned := srv.allocator.PlanStats(); planned != 0 {
		t.Fatalf("the refused trace ran the planner %d times", planned)
	}
	if c := srv.Snapshot().FleetSimCache; c.Entries != 0 || c.Misses != 0 {
		t.Fatalf("the refused trace touched the cache: %+v", c)
	}

	// The bound is MaxFleetEvents exactly.
	for n, ok := range map[int]bool{MaxFleetEvents: true, MaxFleetEvents + 1: false} {
		var sc FleetScenario
		if err := DecodeStrict(strings.NewReader(classicTraceBody(n)), &sc); err != nil {
			t.Fatal(err)
		}
		resolved, err := sc.Resolve()
		if (err == nil) != ok || (ok && len(resolved.Trace) != n) {
			t.Fatalf("%d arrivals: resolved %d, err %v", n, len(resolved.Trace), err)
		}
	}
}

// TestFleetSimulateAtNodeLimit: a cluster of fleet.MaxNodes nodes replays
// over HTTP, as a classic trace and as the same arrivals sent as events,
// byte-identical to the in-process replay; one node more is a 400 naming the
// limit on both paths.
func TestFleetSimulateAtNodeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	withNodes := func(body string, n int) string {
		return strings.Replace(body, `"nodes":8`, fmt.Sprintf(`"nodes":%d`, n), 1)
	}
	asEvents := func(body string) string { return strings.Replace(body, `"trace"`, `"events"`, 1) }
	for _, body := range []string{fleetClassicSimBody, asEvents(fleetClassicSimBody)} {
		at := withNodes(body, fleet.MaxNodes)
		status, served := post(t, ts, "/v1/fleet/simulate", at)
		if status != http.StatusOK {
			t.Fatalf("%d nodes: status %d: %s", fleet.MaxNodes, status, served)
		}
		var sc FleetScenario
		if err := DecodeStrict(strings.NewReader(at), &sc); err != nil {
			t.Fatal(err)
		}
		var want []byte
		if sc.Elastic() {
			esc, err := sc.ResolveElastic()
			if err != nil {
				t.Fatal(err)
			}
			res, err := fleet.SimulateElasticOn(engine.New(engine.Workers(1)), esc)
			if err != nil {
				t.Fatal(err)
			}
			want, _ = json.Marshal(res)
		} else {
			classic, err := sc.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			res, err := fleet.SimulateOn(engine.New(engine.Workers(1)), classic)
			if err != nil {
				t.Fatal(err)
			}
			want, _ = json.Marshal(res)
		}
		if !bytes.Equal(served, want) {
			t.Fatalf("served replay differs from in-process:\nserved: %s\nlocal:  %s", served, want)
		}
		status, served = post(t, ts, "/v1/fleet/simulate", withNodes(body, fleet.MaxNodes+1))
		if status != http.StatusBadRequest || !strings.Contains(string(served), fmt.Sprintf("[2, %d]", fleet.MaxNodes)) {
			t.Fatalf("%d nodes: status %d, body %s", fleet.MaxNodes+1, status, served)
		}
	}
}
