package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"chimera/internal/httpd"
)

// batchItemBodies are the per-item request documents the batch tests
// exercise: two distinct valid plans, a duplicate of the first, and an
// infeasible request (P=7 has no even-D pipeline split for bert48).
var batchItemBodies = []string{
	planBody,
	`{"model":{"preset":"bert48"},"p":8,"mini_batch":64,"max_b":8,"platform":{"preset":"pizdaint"}}`,
	planBody,
	`{"model":{"preset":"bert48"},"p":7,"mini_batch":512,"platform":{"preset":"pizdaint"}}`,
}

func batchBody(items []string) string {
	return `{"requests":[` + strings.Join(items, ",") + `]}`
}

// TestPlanBatchMatchesSequential: each batch item's plan bytes (or error
// string) must be exactly what a sequential /v1/plan call on a fresh
// server produces — the batch endpoint changes admission, not answers.
func TestPlanBatchMatchesSequential(t *testing.T) {
	_, batchTS := newTestServer(t, Config{})
	status, body := post(t, batchTS, "/v1/plan:batch", batchBody(batchItemBodies))
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var resp BatchPlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Items != len(batchItemBodies) || len(resp.Results) != len(batchItemBodies) {
		t.Fatalf("batch returned items=%d results=%d, want %d", resp.Items, len(resp.Results), len(batchItemBodies))
	}

	_, seqTS := newTestServer(t, Config{})
	for i, item := range batchItemBodies {
		seqStatus, seqBody := post(t, seqTS, "/v1/plan", item)
		if seqStatus == http.StatusOK {
			if resp.Results[i].Error != "" {
				t.Fatalf("item %d: batch error %q, sequential succeeded", i, resp.Results[i].Error)
			}
			if !bytes.Equal(resp.Results[i].Plan, seqBody) {
				t.Fatalf("item %d: batch plan diverges from sequential /v1/plan:\nbatch: %s\nseq:   %s",
					i, resp.Results[i].Plan, seqBody)
			}
			continue
		}
		var seqErr httpd.ErrorResponse
		if err := json.Unmarshal(seqBody, &seqErr); err != nil {
			t.Fatal(err)
		}
		if resp.Results[i].Plan != nil {
			t.Fatalf("item %d: batch succeeded, sequential failed with %q", i, seqErr.Error)
		}
		if resp.Results[i].Error != seqErr.Error {
			t.Fatalf("item %d: batch error %q != sequential %q", i, resp.Results[i].Error, seqErr.Error)
		}
	}
}

// TestPlanBatchDedupAndCacheShared: duplicate batch items plan once, the
// result lands in the plan cache, and a later single /v1/plan for the
// same request is a byte-identical cache hit.
func TestPlanBatchDedupAndCacheShared(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/plan:batch", batchBody([]string{planBody, planBody, planBody}))
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, body)
	}
	var resp BatchPlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().PlanCache; got.Misses != 1 || got.Entries != 1 {
		t.Fatalf("3 duplicate items produced misses=%d entries=%d, want 1 compute and 1 entry", got.Misses, got.Entries)
	}
	for i := 1; i < len(resp.Results); i++ {
		if !bytes.Equal(resp.Results[i].Plan, resp.Results[0].Plan) {
			t.Fatalf("duplicate item %d diverged from item 0", i)
		}
	}

	singleStatus, singleBody := post(t, ts, "/v1/plan", planBody)
	if singleStatus != http.StatusOK {
		t.Fatalf("single status %d: %s", singleStatus, singleBody)
	}
	if !bytes.Equal(singleBody, resp.Results[0].Plan) {
		t.Fatal("single /v1/plan after batch diverges from the batch item")
	}
	if got := s.Snapshot().PlanCache; got.Hits == 0 || got.Misses != 1 {
		t.Fatalf("single call after batch: hits=%d misses=%d, want a cache hit with no new compute", got.Hits, got.Misses)
	}
}

// TestPlanBatchRejections: malformed, empty and oversized batches are
// client errors — the whole document is refused, no items run.
func TestPlanBatchRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	oversize := make([]string, MaxBatchItems+1)
	for i := range oversize {
		oversize[i] = planBody
	}
	cases := []struct {
		name, body string
	}{
		{"malformed", `{"requests":`},
		{"unknown-field", `{"requestz":[]}`},
		{"empty", batchBody(nil)},
		{"oversize", batchBody(oversize)},
	}
	for _, tc := range cases {
		if status, body := post(t, ts, "/v1/plan:batch", tc.body); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %.120s", tc.name, status, body)
		}
	}
}

// TestReadySplitAndDrain: /readyz flips to 503 "draining" the moment
// drain begins while /healthz keeps answering 200 (reporting "draining"),
// so orchestrators can tell busy-draining from dead.
func TestReadySplitAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body := get(t, ts, "/readyz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ready"`) {
		t.Fatalf("/readyz before drain: %d %s", status, body)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	status, body = get(t, ts, "/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(string(body), `"draining"`) {
		t.Fatalf("/readyz during drain: %d %s, want 503 draining", status, body)
	}
	status, body = get(t, ts, "/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz during drain: %d, want 200 (liveness must survive drain)", status)
	}
	var health HealthResponse
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("/healthz status %q during drain, want draining", health.Status)
	}

	if counts := s.Snapshot().Requests; counts.Ready != 2 {
		t.Fatalf("ready counter %d, want 2", counts.Ready)
	}
}
