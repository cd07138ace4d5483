package chimera_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chimera"
	"chimera/internal/serve"
)

// TestFacadeServer: the facade-constructed service answers /healthz and
// serves /v1/plan byte-identical to the in-process chimera.Plan call
// encoded through the same codec — the service adds transport, not
// behavior.
func TestFacadeServer(t *testing.T) {
	srv := chimera.NewServer(chimera.ServeConfig{CacheCapacity: 256, MaxInflight: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body := `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16,"platform":{"preset":"pizdaint"}}`
	post, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	served, err := io.ReadAll(post.Body)
	post.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if post.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", post.StatusCode, served)
	}

	preds, err := chimera.Plan(nil, chimera.PlanRequest{
		Model: chimera.BERT48(), P: 16, MiniBatch: 128, MaxB: 16,
		Device: chimera.PizDaintNode(), Network: chimera.AriesNetwork(),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(serve.NewPlanResponse("Bert-48", 16, 128, preds))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served plan differs from chimera.Plan:\nserved: %s\nlocal:  %s", served, want)
	}
}
