package controller

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/serve"
)

// exampleScenario loads the shipped live configuration,
// examples/fleet/controller.json.
func exampleScenario(t testing.TB) serve.FleetScenario {
	t.Helper()
	f, err := os.Open("../../examples/fleet/controller.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var sc serve.FleetScenario
	if err := serve.DecodeStrict(f, &sc); err != nil {
		t.Fatalf("examples/fleet/controller.json: %v", err)
	}
	return sc
}

// stormBodies is the seeded 64-event churn storm over sc, one
// POST /v1/fleet/events body per storm slot.
func stormBodies(t testing.TB, sc serve.FleetScenario) [][]byte {
	t.Helper()
	names := make([]string, 0, len(sc.Jobs))
	for _, j := range sc.Jobs {
		names = append(names, j.Name)
	}
	storm, err := fleet.GenerateStorm(fleet.StormConfig{Seed: 1, Jobs: names, Nodes: sc.Cluster.Nodes, Events: 64})
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, batch := range fleet.StormBatches(storm) {
		body, err := json.Marshal(EventsRequest{Events: serve.NewFleetEventRefs(batch)})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// readFrame reads one server-sent event, through its blank line.
func readFrame(t testing.TB, br *bufio.Reader) []byte {
	t.Helper()
	var frame bytes.Buffer
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		frame.WriteString(line)
		if line == "\n" {
			return frame.Bytes()
		}
	}
}

// TestControllerRepliesAreReferenceEncoding holds every batch of the seeded
// storm to json.Marshal of the public types: the events reply re-encodes
// to itself through EventsResponse, the update frame the batch publishes
// carries exactly the GET /v1/fleet/allocation body at that version, and
// that body re-encodes to itself through AllocationResponse. After every
// fourth batch, as in the benchmark's storm, a what-if asks for one more
// arrival (every eighth also moves the migration penalty): its reply
// re-encodes to itself through WhatIfResponse; and a late subscriber's
// snapshot frame carries exactly the GET body. Replies built from a shared
// allocation encoding, each version's spliced from the last one's bytes,
// must stay indistinguishable from the reference encoder; a field placed
// after "allocation" breaks that sharing and fails here.
func TestControllerRepliesAreReferenceEncoding(t *testing.T) {
	sc := exampleScenario(t)
	_, ts := newTestController(t, Config{Scenario: sc, Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/fleet/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	readFrame(t, br) // the subscribe snapshot

	for i, body := range stormBodies(t, sc) {
		status, reply := post(t, ts, "/v1/fleet/events", string(body))
		if status != http.StatusOK {
			t.Fatalf("storm batch %d: %d %s", i, status, reply)
		}
		var ack EventsResponse
		if err := json.Unmarshal(reply, &ack); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ack)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply, want) {
			t.Fatalf("storm batch %d: events reply is not the reference encoding:\ngot:  %s\nwant: %s", i, reply, want)
		}

		status, alloc := get(t, ts, "/v1/fleet/allocation")
		if status != http.StatusOK {
			t.Fatalf("storm batch %d: allocation: %d %s", i, status, alloc)
		}
		frame := readFrame(t, br)
		data, ok := bytes.CutPrefix(frame, []byte("event: allocation\ndata: "))
		if !ok || !bytes.HasSuffix(data, []byte("\n\n")) {
			t.Fatalf("storm batch %d: malformed update frame %q", i, frame)
		}
		if data = bytes.TrimSuffix(data, []byte("\n\n")); !bytes.Equal(data, alloc) {
			t.Fatalf("storm batch %d (version %d): update frame differs from GET /v1/fleet/allocation:\nframe: %s\nget:   %s", i, ack.Version, data, alloc)
		}
		var got AllocationResponse
		requireReferenceEncoding(t, fmt.Sprintf("storm batch %d: GET /v1/fleet/allocation", i), alloc, &got)
		if i%4 != 3 {
			continue
		}

		hyp := WhatIfRequest{Events: serve.NewFleetEventRefs([]fleet.Event{{
			At: ack.Now + 15, Kind: fleet.EvArrival, Job: sc.Jobs[i%len(sc.Jobs)].Name, Work: 5000,
		}})}
		if i%8 == 7 {
			penalty := float64(i)
			hyp.MigrationPenalty = &penalty
		}
		body, err := json.Marshal(hyp)
		if err != nil {
			t.Fatal(err)
		}
		status, reply = post(t, ts, "/v1/fleet/whatif", string(body))
		if status != http.StatusOK {
			t.Fatalf("storm batch %d: whatif %s: %d %s", i, body, status, reply)
		}
		var wi WhatIfResponse
		requireReferenceEncoding(t, fmt.Sprintf("storm batch %d: whatif %s", i, body), reply, &wi)
		if wi.BaseVersion != ack.Version {
			t.Fatalf("storm batch %d: whatif forked version %d, want %d", i, wi.BaseVersion, ack.Version)
		}

		late, err := http.Get(ts.URL + "/v1/fleet/stream")
		if err != nil {
			t.Fatal(err)
		}
		snap := readFrame(t, bufio.NewReader(late.Body))
		late.Body.Close()
		data, ok = bytes.CutPrefix(snap, []byte("event: allocation\ndata: "))
		if !ok || !bytes.Equal(data, append(alloc, "\n\n"...)) {
			t.Fatalf("storm batch %d (version %d): late subscriber's snapshot differs from GET /v1/fleet/allocation:\nframe: %q\nget:   %s", i, ack.Version, snap, alloc)
		}
	}
}

// requireReferenceEncoding requires reply to be json.Marshal of its own
// decode into v.
func requireReferenceEncoding(t *testing.T, what string, reply []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(reply, v); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, want) {
		t.Fatalf("%s: reply is not the reference encoding:\ngot:  %s\nwant: %s", what, reply, want)
	}
}

// sseSink is an in-process stream client: it discards what handleStream
// writes and signals its first flush, the subscribe snapshot.
type sseSink struct {
	header  http.Header
	flushed chan struct{}
}

func (s *sseSink) Header() http.Header         { return s.header }
func (s *sseSink) WriteHeader(int)             {}
func (s *sseSink) Write(p []byte) (int, error) { return len(p), nil }
func (s *sseSink) Flush() {
	if s.flushed != nil {
		close(s.flushed)
		s.flushed = nil
	}
}

// BenchmarkControllerEvents posts the seeded storm's batches through
// Handler() with one allocation-stream subscriber attached: one op is one
// applied batch, its reply and its published update. Plans stay memoized
// on one engine across storm episodes, so re-planning is warm and the
// encoding and framing of each batch's allocation weigh in the allocs/op.
func BenchmarkControllerEvents(b *testing.B) {
	sc := exampleScenario(b)
	bodies := stormBodies(b, sc)
	eng := engine.New(engine.Workers(1))

	var (
		h    http.Handler
		stop func()
		next int
	)
	episode := func() {
		if stop != nil {
			stop()
		}
		c, err := New(Config{Scenario: sc, Engine: eng})
		if err != nil {
			b.Fatal(err)
		}
		h = c.Handler()
		ctx, cancel := context.WithCancel(context.Background())
		sink := &sseSink{header: http.Header{}, flushed: make(chan struct{})}
		snapshot := sink.flushed
		done := make(chan struct{})
		go func() {
			h.ServeHTTP(sink, httptest.NewRequest(http.MethodGet, "/v1/fleet/stream", nil).WithContext(ctx))
			close(done)
		}()
		<-snapshot
		stop = func() {
			cancel()
			<-done
		}
		next = 0
	}
	episode() // warm the engine's plan memo
	for _, body := range bodies {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/fleet/events", bytes.NewReader(body)))
	}
	next = len(bodies)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(bodies) {
			b.StopTimer()
			episode()
			b.StartTimer()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/events", bytes.NewReader(bodies[next])))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"allocation":`) {
			b.Fatalf("storm batch %d: %d %s", next, rec.Code, rec.Body.Bytes())
		}
		next++
	}
	b.StopTimer()
	stop()
}

// BenchmarkControllerWhatIf posts what-ifs through Handler() against a
// controller that has ingested the first half of the seeded storm: one op
// is one fork, one more arrival of a vocabulary job (as the benchmark's
// storm asks after every fourth batch), the fork's re-plan and its reply,
// whose shares are mostly the live allocation's. Each reply is checked for
// its base version. Plans stay memoized, so the fork, the re-plan and the
// encoding weigh in the allocs/op.
func BenchmarkControllerWhatIf(b *testing.B) {
	sc := exampleScenario(b)
	bodies := stormBodies(b, sc)
	c, err := New(Config{Scenario: sc, Engine: engine.New(engine.Workers(1))})
	if err != nil {
		b.Fatal(err)
	}
	h := c.Handler()
	var ack EventsResponse
	for _, body := range bodies[:len(bodies)/2] {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/events", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("storm batch: %d %s", rec.Code, rec.Body.Bytes())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
			b.Fatal(err)
		}
	}
	var hyps [][]byte
	for _, j := range sc.Jobs {
		body, err := json.Marshal(WhatIfRequest{Events: serve.NewFleetEventRefs([]fleet.Event{{
			At: ack.Now + 15, Kind: fleet.EvArrival, Job: j.Name, Work: 5000,
		}})})
		if err != nil {
			b.Fatal(err)
		}
		hyps = append(hyps, body)
	}
	prefix := []byte(fmt.Sprintf(`{"base_version":%d,`, ack.Version))
	whatIf := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/whatif", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || !bytes.HasPrefix(rec.Body.Bytes(), prefix) || !bytes.Contains(rec.Body.Bytes(), []byte(`"allocation":[{`)) {
			b.Fatalf("whatif %s: %d %s", body, rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range hyps {
		whatIf(body) // warm the plans each hypothesis needs
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		whatIf(hyps[i%len(hyps)])
	}
}

// TestAllocationHeadRefusesTrailingFields: the splice holds only while the
// allocation is the last field; a type with a field after it is refused
// instead of encoded wrong.
func TestAllocationHeadRefusesTrailingFields(t *testing.T) {
	head, err := allocationHead(AllocationResponse{Version: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"version":3,"now":0,"events":0,"nodes":0,"residents":0,"allocation":[{"job":"a"}]}`
	if got := bytes.Join([][]byte{head, []byte(`[{"job":"a"}]`), closeBrace}, nil); string(got) != want {
		t.Fatalf("spliced %s, want %s", got, want)
	}
	type trailing struct {
		Allocation []fleet.FinalShare `json:"allocation"`
		Cost       *float64           `json:"cost"`
	}
	if _, err := allocationHead(trailing{}); err == nil {
		t.Fatal("a field after the allocation was spliced, want an error")
	}
}
