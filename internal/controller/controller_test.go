package controller

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/serve"
)

// testScenario is the live configuration the controller tests run: a
// 16-node pool and a two-job vocabulary, matching the shapes the serve
// tier's fleet tests use.
func testScenario() serve.FleetScenario {
	return serve.FleetScenario{
		Cluster: serve.FleetClusterRef{Nodes: 16, Platform: serve.PlatformRef{Preset: "pizdaint"}},
		Jobs: []serve.FleetJobRef{
			{Name: "bert", Model: serve.ModelRef{Preset: "bert48"}, MiniBatch: 128, MaxB: 16, Priority: 2},
			{Name: "gpt", Model: serve.ModelRef{Preset: "gpt2-32"}, MiniBatch: 64, MaxB: 8},
		},
	}
}

func newTestController(t *testing.T, cfg Config) (*Controller, *httptest.Server) {
	t.Helper()
	if cfg.Scenario.Cluster.Nodes == 0 {
		cfg.Scenario = testScenario()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// ingest posts one event batch and decodes the acknowledgment.
func ingest(t *testing.T, ts *httptest.Server, events string) EventsResponse {
	t.Helper()
	status, body := post(t, ts, "/v1/fleet/events", `{"events":[`+events+`]}`)
	if status != http.StatusOK {
		t.Fatalf("ingest: %d %s", status, body)
	}
	var resp EventsResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// replayLive is the controller's determinism anchor, shared by every input
// of TestControllerIngestReplayIdentity: fetch the recorded event log,
// replay it through SimulateElastic on a serial engine, and require the
// live processed log to be a byte-identical prefix of the replay's and the
// live allocation to be byte-identical to the replay's final shares, all
// compared as the encoded fleet result types.
func replayLive(t *testing.T, ts *httptest.Server, sc serve.FleetScenario) (LogResponse, *fleet.ElasticResult) {
	t.Helper()
	status, logBody := get(t, ts, "/v1/fleet/events/log")
	if status != http.StatusOK {
		t.Fatalf("log: %d %s", status, logBody)
	}
	var logResp LogResponse
	if err := json.Unmarshal(logBody, &logResp); err != nil {
		t.Fatal(err)
	}
	events, err := serve.ResolveFleetEvents(logResp.Events)
	if err != nil {
		t.Fatal(err)
	}
	esc, err := sc.ResolveLive()
	if err != nil {
		t.Fatal(err)
	}
	esc.Events = events
	replay, err := fleet.SimulateElasticOn(engine.New(engine.Workers(1)), esc)
	if err != nil {
		t.Fatal(err)
	}

	liveLog, err := json.Marshal(logResp.Log)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Log) < len(logResp.Log) {
		t.Fatalf("replay log has %d records, live has %d", len(replay.Log), len(logResp.Log))
	}
	replayPrefix, err := json.Marshal(replay.Log[:len(logResp.Log)])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveLog, replayPrefix) {
		t.Fatalf("live log is not a prefix of the replay log:\nlive:   %s\nreplay: %s", liveLog, replayPrefix)
	}

	status, allocBody := get(t, ts, "/v1/fleet/allocation")
	if status != http.StatusOK {
		t.Fatalf("allocation: %d %s", status, allocBody)
	}
	var alloc AllocationResponse
	if err := json.Unmarshal(allocBody, &alloc); err != nil {
		t.Fatal(err)
	}
	liveShares, err := json.Marshal(alloc.Allocation)
	if err != nil {
		t.Fatal(err)
	}
	replayShares, err := json.Marshal(replay.Final)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveShares, replayShares) {
		t.Fatalf("live allocation diverges from replay final:\nlive:   %s\nreplay: %s", liveShares, replayShares)
	}
	return logResp, replay
}

// TestControllerIngestReplayIdentity is the controller's correctness
// anchor (replayLive), on two inputs. First, hand-written batches through
// the HTTP ingestion path — including a same-timestamp batch posted in
// scrambled wire order, which must show the pinned tie-break (fail < drain
// < join < arrival) in the processed log. Second, a seeded 64-event churn
// storm over the shipped examples/fleet/controller.json, one ingest call
// per storm slot, as an operator's driver would feed it.
func TestControllerIngestReplayIdentity(t *testing.T) {
	_, ts := newTestController(t, Config{})

	first := ingest(t, ts, `{"at":0,"job":"bert","work":4000},{"at":0,"job":"gpt","work":3000}`)
	if first.Accepted != 2 || first.Version != 1 || first.Residents != 2 {
		t.Fatalf("first batch ack: %+v", first)
	}
	if first.ReplanMillis <= 0 {
		t.Fatalf("first batch reported replan_ms %g, want > 0", first.ReplanMillis)
	}
	if len(first.Allocation) != 2 {
		t.Fatalf("first batch allocation has %d shares, want 2", len(first.Allocation))
	}

	// One batch, one timestamp, deliberately scrambled wire order: the
	// controller must apply fail < drain < join < arrival regardless.
	scrambled := ingest(t, ts,
		`{"at":50,"job":"bert","work":2000},{"at":50,"kind":"node_join","factor":1.5},`+
			`{"at":50,"kind":"node_drain","node":3},{"at":50,"kind":"node_fail","node":2}`)
	if scrambled.Version != 2 || scrambled.Accepted != 4 {
		t.Fatalf("scrambled batch ack: %+v", scrambled)
	}
	ingest(t, ts, `{"at":120,"kind":"node_join","class":"spot","price":0.5}`)

	logResp, replay := replayLive(t, ts, testScenario())
	if logResp.Version != 3 || len(logResp.Events) != 7 {
		t.Fatalf("log reports version %d with %d events, want 3 with 7", logResp.Version, len(logResp.Events))
	}
	var at50 []fleet.EventKind
	for _, rec := range logResp.Log {
		if rec.At == 50 && rec.Kind != fleet.EvDeparture {
			at50 = append(at50, rec.Kind)
		}
	}
	want50 := []string{"node_fail", "node_drain", "node_join", "arrival"}
	if fmt.Sprint(at50) != fmt.Sprint(want50) {
		t.Fatalf("t=50 applied order %v, want %v", at50, want50)
	}
	if replay.SpotJoins != 1 {
		t.Fatalf("replay spot joins %d, want 1", replay.SpotJoins)
	}

	// The health and metrics surfaces track the machine.
	status, healthBody := get(t, ts, "/healthz")
	if status != http.StatusOK || !strings.Contains(string(healthBody), `"status":"ok"`) {
		t.Fatalf("healthz: %d %s", status, healthBody)
	}
	if status, _ := get(t, ts, "/readyz"); status != http.StatusOK {
		t.Fatalf("readyz: %d, want 200", status)
	}
	_, metricsBody := get(t, ts, "/metrics")
	for _, series := range []string{"controller_events_total 7", "controller_batches_total 3", "controller_replan_seconds", "controller_nodes", "engine_"} {
		if !strings.Contains(string(metricsBody), series) {
			t.Fatalf("/metrics missing %q:\n%.400s", series, metricsBody)
		}
	}

	// The storm input.
	f, err := os.Open("../../examples/fleet/controller.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc serve.FleetScenario
	err = serve.DecodeStrict(f, &sc)
	f.Close()
	if err != nil {
		t.Fatalf("examples/fleet/controller.json: %v", err)
	}
	names := make([]string, 0, len(sc.Jobs))
	for _, j := range sc.Jobs {
		names = append(names, j.Name)
	}
	storm, err := fleet.GenerateStorm(fleet.StormConfig{Seed: 1, Jobs: names, Nodes: sc.Cluster.Nodes, Events: 64})
	if err != nil {
		t.Fatal(err)
	}
	_, ts = newTestController(t, Config{Scenario: sc})
	for i, batch := range fleet.StormBatches(storm) {
		body, err := json.Marshal(EventsRequest{Events: serve.NewFleetEventRefs(batch)})
		if err != nil {
			t.Fatal(err)
		}
		if status, reply := post(t, ts, "/v1/fleet/events", string(body)); status != http.StatusOK {
			t.Fatalf("storm batch %d (t=%.0f, %d events): %d %s", i, batch[0].At, len(batch), status, reply)
		}
	}
	logResp, _ = replayLive(t, ts, sc)
	if len(logResp.Events) != len(storm) {
		t.Fatalf("controller recorded %d events of a %d-event storm", len(logResp.Events), len(storm))
	}
}

// TestControllerIngestRejections: malformed bodies are 400, semantically
// invalid batches are 422, and a clean rejection leaves the live state
// untouched — same version, same allocation.
func TestControllerIngestRejections(t *testing.T) {
	_, ts := newTestController(t, Config{})
	ingest(t, ts, `{"at":10,"job":"bert","work":1000}`)

	rejections := []struct {
		name, body string
		status     int
	}{
		{"malformed", `{"events":`, http.StatusBadRequest},
		{"unknown-field", `{"events":[],"bogus":1}`, http.StatusBadRequest},
		{"empty", `{"events":[]}`, http.StatusBadRequest},
		{"unknown-kind", `{"events":[{"at":20,"kind":"node_explode","node":1}]}`, http.StatusBadRequest},
		{"unknown-job", `{"events":[{"at":20,"job":"nope","work":1}]}`, http.StatusUnprocessableEntity},
		{"not-monotonic", `{"events":[{"at":10,"job":"bert","work":1}]}`, http.StatusUnprocessableEntity},
		{"absent-node", `{"events":[{"at":20,"kind":"node_fail","node":99}]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range rejections {
		status, body := post(t, ts, "/v1/fleet/events", tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d (want %d), body %s", tc.name, status, tc.status, body)
		}
	}

	status, body := get(t, ts, "/v1/fleet/allocation")
	if status != http.StatusOK {
		t.Fatalf("allocation after rejections: %d %s", status, body)
	}
	var alloc AllocationResponse
	if err := json.Unmarshal(body, &alloc); err != nil {
		t.Fatal(err)
	}
	if alloc.Version != 1 || alloc.Events != 1 {
		t.Fatalf("rejected batches moved the state machine: version %d events %d, want 1/1", alloc.Version, alloc.Events)
	}
}

// TestControllerPoison: an apply-phase failure (the resident cap, which
// cannot be pre-validated) poisons the controller — every state endpoint
// answers 503 from then on, and /healthz says why while staying 200.
func TestControllerPoison(t *testing.T) {
	_, ts := newTestController(t, Config{})
	var events []string
	for i := 0; i <= fleet.MaxResident; i++ {
		events = append(events, fmt.Sprintf(`{"at":1,"job":"gpt","work":100000}`))
	}
	status, body := post(t, ts, "/v1/fleet/events", `{"events":[`+strings.Join(events, ",")+`]}`)
	if status != http.StatusInternalServerError || !strings.Contains(string(body), "controller poisoned") {
		t.Fatalf("over-cap batch: %d %s, want 500 poisoned", status, body)
	}
	if status, body := post(t, ts, "/v1/fleet/events", `{"events":[{"at":2,"job":"gpt","work":1}]}`); status != http.StatusServiceUnavailable {
		t.Fatalf("ingest after poison: %d %s, want 503", status, body)
	}
	if status, _ := get(t, ts, "/v1/fleet/allocation"); status != http.StatusServiceUnavailable {
		t.Fatalf("allocation after poison: %d, want 503", status)
	}
	if status, _ := get(t, ts, "/v1/fleet/events/log"); status != http.StatusServiceUnavailable {
		t.Fatalf("log after poison: %d, want 503", status)
	}
	if status, body := post(t, ts, "/v1/fleet/whatif", `{"migration_penalty":10}`); status != http.StatusServiceUnavailable {
		t.Fatalf("whatif after poison: %d %s, want 503", status, body)
	}
	if status, _ := get(t, ts, "/readyz"); status != http.StatusServiceUnavailable {
		t.Fatalf("readyz after poison: %d, want 503", status)
	}
	status, health := get(t, ts, "/healthz")
	if status != http.StatusOK || !strings.Contains(string(health), `"status":"poisoned"`) {
		t.Fatalf("healthz after poison: %d %s", status, health)
	}
}

// TestControllerWhatIf: a what-if evaluates against a fork — the reply
// reflects the hypothesis, the live state machine stays untouched.
func TestControllerWhatIf(t *testing.T) {
	_, ts := newTestController(t, Config{})
	ingest(t, ts, `{"at":0,"job":"bert","work":4000},{"at":0,"job":"gpt","work":3000}`)

	status, body := post(t, ts, "/v1/fleet/whatif",
		`{"events":[{"at":60,"kind":"node_fail","node":0},{"at":60,"kind":"node_fail","node":1}]}`)
	if status != http.StatusOK {
		t.Fatalf("whatif: %d %s", status, body)
	}
	var wi WhatIfResponse
	if err := json.Unmarshal(body, &wi); err != nil {
		t.Fatal(err)
	}
	if wi.BaseVersion != 1 || wi.Now != 60 || wi.Nodes != 14 {
		t.Fatalf("whatif reply: %+v, want base_version 1, now 60, 14 nodes", wi)
	}

	// Knob-only hypotheses re-plan the fork in place.
	status, body = post(t, ts, "/v1/fleet/whatif", `{"migration_penalty":120,"deadlines":[{"job":"gpt","deadline":500}]}`)
	if status != http.StatusOK {
		t.Fatalf("knob whatif: %d %s", status, body)
	}

	// Hypothesis validation: empty is 400, unknown jobs and stale times 422.
	if status, _ := post(t, ts, "/v1/fleet/whatif", `{}`); status != http.StatusBadRequest {
		t.Fatalf("empty whatif: %d, want 400", status)
	}
	if status, _ := post(t, ts, "/v1/fleet/whatif", `{"deadlines":[{"job":"nope","deadline":5}]}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("unknown-job whatif: %d, want 422", status)
	}
	if status, _ := post(t, ts, "/v1/fleet/whatif", `{"events":[{"at":0,"job":"bert","work":1}]}`); status != http.StatusUnprocessableEntity {
		t.Fatalf("stale-time whatif: %d, want 422", status)
	}

	// The live machine never moved.
	status, body = get(t, ts, "/v1/fleet/allocation")
	if status != http.StatusOK {
		t.Fatalf("allocation after whatifs: %d %s", status, body)
	}
	var alloc AllocationResponse
	if err := json.Unmarshal(body, &alloc); err != nil {
		t.Fatal(err)
	}
	if alloc.Version != 1 || alloc.Now != 0 || alloc.Nodes != 16 {
		t.Fatalf("whatif leaked into live state: %+v", alloc)
	}
}

// TestControllerStream: a subscriber receives the current allocation on
// connect and one update per applied batch.
func TestControllerStream(t *testing.T) {
	_, ts := newTestController(t, Config{})
	ingest(t, ts, `{"at":0,"job":"gpt","work":1000}`)

	resp, err := http.Get(ts.URL + "/v1/fleet/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	updates := make(chan AllocationResponse, 4)
	errs := make(chan error, 1)
	go func() {
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				errs <- err
				return
			}
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				var u AllocationResponse
				if err := json.Unmarshal([]byte(strings.TrimSpace(data)), &u); err != nil {
					errs <- err
					return
				}
				updates <- u
			}
		}
	}()
	read := func(what string) AllocationResponse {
		t.Helper()
		select {
		case u := <-updates:
			return u
		case err := <-errs:
			t.Fatalf("%s: stream read: %v", what, err)
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no stream update within 10s", what)
		}
		return AllocationResponse{}
	}

	snap := read("snapshot")
	if snap.Version != 1 || snap.Residents != 1 {
		t.Fatalf("stream snapshot %+v, want version 1 with 1 resident", snap)
	}
	ingest(t, ts, `{"at":30,"job":"bert","work":2000}`)
	update := read("update")
	if update.Version != 2 || update.Residents != 2 {
		t.Fatalf("stream update %+v, want version 2 with 2 residents", update)
	}
}

// TestControllerDrainContract: a controller that has begun shutdown answers
// /readyz 503 "draining", and its sheds tell clients to stay away for what
// remains of the shutdown bound instead of inviting a 1-second retry against
// a closing listener.
func TestControllerDrainContract(t *testing.T) {
	c, ts := newTestController(t, Config{MaxInflight: 1})
	c.admission.TryAcquire() // hold the only slot so every heavy request sheds
	defer c.admission.Release()
	shedRetryAfter := func() string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/fleet/events", "application/json", strings.NewReader(`{"events":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", resp.StatusCode)
		}
		return resp.Header.Get("Retry-After")
	}

	if status, body := get(t, ts, "/readyz"); status != http.StatusOK || !strings.Contains(string(body), `"ready"`) {
		t.Fatalf("/readyz before shutdown: %d %s", status, body)
	}
	if ra := shedRetryAfter(); ra != "1" {
		t.Fatalf("pre-drain Retry-After %q, want \"1\"", ra)
	}

	c.BeginDrain()
	if status, body := get(t, ts, "/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Fatalf("/readyz during shutdown: %d %s, want 503 draining", status, body)
	}
	ra, err := strconv.Atoi(shedRetryAfter())
	if err != nil || ra < 10 || ra > 15 {
		t.Fatalf("draining Retry-After %d (err %v), want it to cover the 15s shutdown bound", ra, err)
	}
	if got := c.Registry().Snapshot().Counters["controller_shed_total"]; got != 2 {
		t.Fatalf("controller_shed_total = %d, want 2", got)
	}
}

// TestControllerNewRejections: construction validates the live scenario.
func TestControllerNewRejections(t *testing.T) {
	withEvents := testScenario()
	withEvents.Events = []serve.FleetEventRef{{At: 0, Job: "bert", Work: 1}}
	if _, err := New(Config{Scenario: withEvents}); err == nil || !strings.Contains(err.Error(), "ingests events over HTTP") {
		t.Fatalf("scenario with events: err %v, want a live-scenario rejection", err)
	}
	noJobs := testScenario()
	noJobs.Jobs = nil
	if _, err := New(Config{Scenario: noJobs}); err == nil {
		t.Fatal("scenario without jobs: want an error")
	}
}
