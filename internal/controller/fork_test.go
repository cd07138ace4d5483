package controller

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"chimera/internal/fleet"
	"chimera/internal/serve"
)

// TestConcurrentWhatIfsLeaveLiveStateAlone: what-if forks share the live
// sim's append-only histories, and GET /v1/fleet/events/log encodes its
// views of them after releasing the state lock. A seeded storm over
// examples/fleet/controller.json is ingested batch by batch twice: alone,
// and with three goroutines posting event, knob and mixed what-ifs and one
// reading the log for as long as the ingest runs. The live event log and
// the allocation must come out byte-identical. Run under -race this is also
// the check that the shared views are only read where another goroutine
// appends.
func TestConcurrentWhatIfsLeaveLiveStateAlone(t *testing.T) {
	f, err := os.Open("../../examples/fleet/controller.json")
	if err != nil {
		t.Fatal(err)
	}
	var sc serve.FleetScenario
	err = serve.DecodeStrict(f, &sc)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(sc.Jobs))
	for _, j := range sc.Jobs {
		names = append(names, j.Name)
	}
	storm, err := fleet.GenerateStorm(fleet.StormConfig{Seed: 2, Jobs: names, Nodes: sc.Cluster.Nodes, Events: 64})
	if err != nil {
		t.Fatal(err)
	}
	later := storm[len(storm)-1].At + 1e4 // after every live batch
	hypotheses := []string{
		fmt.Sprintf(`{"events":[{"at":%g,"job":%q,"work":5000}]}`, later, names[0]),
		`{"migration_penalty":60}`,
		fmt.Sprintf(`{"deadlines":[{"job":%q,"deadline":1}],"events":[{"at":%g,"kind":"node_join"}]}`, names[1], later),
	}

	run := func(concurrent bool) (log, alloc string, whatifs int64) {
		_, ts := newTestController(t, Config{Scenario: sc, MaxInflight: 64})
		var (
			wg   sync.WaitGroup
			stop atomic.Bool
			n    atomic.Int64
		)
		halt := func() {
			stop.Store(true)
			wg.Wait()
		}
		defer halt() // also when a storm batch fails the test
		request := func(method, path, body string) {
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			reply, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s %s %s: %d %s", method, path, body, resp.StatusCode, reply)
			}
		}
		if concurrent {
			for _, h := range hypotheses {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for first := true; first || !stop.Load(); first = false {
						request(http.MethodPost, "/v1/fleet/whatif", h)
						n.Add(1)
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					request(http.MethodGet, "/v1/fleet/events/log", "")
				}
			}()
		}
		for i, batch := range fleet.StormBatches(storm) {
			body, err := json.Marshal(EventsRequest{Events: serve.NewFleetEventRefs(batch)})
			if err != nil {
				t.Fatal(err)
			}
			if status, reply := post(t, ts, "/v1/fleet/events", string(body)); status != http.StatusOK {
				t.Fatalf("storm batch %d: %d %s", i, status, reply)
			}
		}
		halt()
		_, logBody := get(t, ts, "/v1/fleet/events/log")
		_, allocBody := get(t, ts, "/v1/fleet/allocation")
		return string(logBody), string(allocBody), n.Load()
	}

	wantLog, wantAlloc, _ := run(false)
	gotLog, gotAlloc, whatifs := run(true)
	if t.Failed() {
		return
	}
	if gotLog != wantLog {
		t.Fatalf("what-ifs changed the live event log:\n got %s\nwant %s", gotLog, wantLog)
	}
	if gotAlloc != wantAlloc {
		t.Fatalf("what-ifs changed the live allocation:\n got %s\nwant %s", gotAlloc, wantAlloc)
	}
	t.Logf("%d what-ifs beside a %d-event storm", whatifs, len(storm))
}
