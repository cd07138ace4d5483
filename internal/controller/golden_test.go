package controller

import (
	"bufio"
	"bytes"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replies.golden from current output")

// replanMillis matches the events reply's wall-time field, the one part of
// a controller reply that is not a function of the event log.
var replanMillis = regexp.MustCompile(`"replan_ms":[-+.0-9eE]+`)

// TestControllerRepliesGolden pins the controller's reply bodies byte for
// byte on examples/fleet/controller.json, driven by the CI smoke test's two
// batches: the log before the first batch and after the last, each events
// acknowledgment (replan_ms zeroed), the allocation, one what-if, the
// first SSE allocation frame (the subscribe snapshot) and the update frame
// a third batch publishes to that subscriber. Regenerate with -update only
// for an intended wire change.
func TestControllerRepliesGolden(t *testing.T) {
	sc := exampleScenario(t)
	_, ts := newTestController(t, Config{Scenario: sc, Workers: 1})

	var out bytes.Buffer
	section := func(name string, status int, body []byte) {
		t.Helper()
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", name, status, body)
		}
		out.WriteString("== " + name + "\n")
		out.Write(body)
		out.WriteString("\n")
	}
	status, body := get(t, ts, "/v1/fleet/events/log")
	section("GET /v1/fleet/events/log (before the first batch)", status, body)
	for _, batch := range []string{
		`{"events":[{"at":0,"job":"bert-production","work":50000},{"at":0,"job":"gpt2-research","work":20000}]}`,
		`{"events":[{"at":40,"kind":"node_fail","node":3},{"at":40,"kind":"node_join"}]}`,
	} {
		status, body = post(t, ts, "/v1/fleet/events", batch)
		section("POST /v1/fleet/events "+batch, status, replanMillis.ReplaceAll(body, []byte(`"replan_ms":0`)))
	}
	status, body = get(t, ts, "/v1/fleet/allocation")
	section("GET /v1/fleet/allocation", status, body)
	status, body = get(t, ts, "/v1/fleet/events/log")
	section("GET /v1/fleet/events/log", status, body)
	const whatIf = `{"events":[{"at":80,"kind":"node_drain","node":5},{"at":60,"kind":"node_join","class":"spot","price":0.5},{"at":80,"job":"bert-finetune","work":8000}],"migration_penalty":20}`
	status, body = post(t, ts, "/v1/fleet/whatif", whatIf)
	section("POST /v1/fleet/whatif "+whatIf, status, body)

	resp, err := http.Get(ts.URL + "/v1/fleet/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	section("GET /v1/fleet/stream (first frame)", resp.StatusCode, readFrame(t, br))
	// The snapshot above is handleStream's own; the batch below is the
	// update the hub publishes to every subscriber.
	const third = `{"events":[{"at":120,"kind":"node_join"}]}`
	status, body = post(t, ts, "/v1/fleet/events", third)
	if status != http.StatusOK {
		t.Fatalf("POST %s: %d %s", third, status, body)
	}
	section("GET /v1/fleet/stream (update frame after POST /v1/fleet/events "+third+")", resp.StatusCode, readFrame(t, br))

	path := filepath.Join("testdata", "replies.golden")
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
		t.Fatalf("missing golden file (run `go test ./internal/controller -run Golden -update` once): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("controller replies drifted from %s.\nIf the change is intentional, regenerate with -update.\ngot:\n%s", path, out.Bytes())
	}
}
