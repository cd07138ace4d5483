package httpd_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chimera/internal/controller"
	"chimera/internal/httpd"
	"chimera/internal/router"
	"chimera/internal/serve"
)

const planBody = `{"model":{"preset":"bert48"},"p":16,"mini_batch":128,"max_b":16,"platform":{"preset":"pizdaint"}}`

// holdSlot occupies one admission slot of h: it starts a POST whose body
// stalls after the first byte, and returns once the handler has read that
// byte — so it is inside admission, holding the slot — with the function
// that lets the request finish.
func holdSlot(t *testing.T, h http.Handler, path string) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", path, pr))
	}()
	if _, err := pw.Write([]byte("{")); err != nil {
		t.Fatal(err)
	}
	return func() {
		pw.Close()
		<-done
	}
}

// TestDaemonsShareTheChassis runs one set of assertions against all three
// daemons' Handler(): an overloaded daemon answers 429 with a JSON error
// (and, where the daemon itself shed, a Retry-After), a body past the 1 MiB
// cap is refused with 400 whether it is one huge value or a valid request
// padded past the cap, and /metrics is Prometheus text.
func TestDaemonsShareTheChassis(t *testing.T) {
	srv := serve.New(serve.Config{MaxInflight: 1})

	// The router has no admission of its own: its 429 is its replica's,
	// relayed, so it fronts a second single-slot replica over real HTTP.
	replica := serve.New(serve.Config{MaxInflight: 1})
	backend := httptest.NewServer(replica.Handler())
	defer backend.Close()
	rt, err := router.New(router.Config{Replicas: []string{backend.URL}})
	if err != nil {
		t.Fatal(err)
	}

	ctl, err := controller.New(controller.Config{MaxInflight: 1, Scenario: serve.FleetScenario{
		Cluster: serve.FleetClusterRef{Nodes: 16, Platform: serve.PlatformRef{Preset: "pizdaint"}},
		Jobs:    []serve.FleetJobRef{{Name: "bert", Model: serve.ModelRef{Preset: "bert48"}, MiniBatch: 128, MaxB: 16}},
	}})
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range []struct {
		name    string
		handler http.Handler
		// path and body are a valid heavy request; slots is the handler
		// whose admission the 429 comes from.
		path, body string
		slots      http.Handler
		ownShed    bool
	}{
		{"serve", srv.Handler(), "/v1/plan", planBody, srv.Handler(), true},
		{"router", rt.Handler(), "/v1/plan", planBody, replica.Handler(), false},
		{"controller", ctl.Handler(), "/v1/fleet/events", `{"events":[{"at":1,"job":"bert","work":1000}]}`, ctl.Handler(), true},
	} {
		do := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			d.handler.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec
		}

		release := holdSlot(t, d.slots, d.path)
		rec := do("POST", d.path, d.body)
		release()
		var e httpd.ErrorResponse
		if rec.Code != http.StatusTooManyRequests || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Errorf("%s: overloaded: %d %q, want 429 with a JSON error", d.name, rec.Code, rec.Body.String())
		}
		if d.ownShed && rec.Header().Get("Retry-After") != "1" {
			t.Errorf("%s: 429 Retry-After %q, want \"1\"", d.name, rec.Header().Get("Retry-After"))
		}
		if rec := do("POST", d.path, d.body); rec.Code != http.StatusOK {
			t.Errorf("%s: after the slot was released: %d %q, want 200", d.name, rec.Code, rec.Body.String())
		}

		huge := `{"x":"` + strings.Repeat("x", 2<<20) + `"}`
		padded := d.body + strings.Repeat(" ", 2<<20)
		for kind, body := range map[string]string{"huge": huge, "padded": padded} {
			if rec := do("POST", d.path, body); rec.Code != http.StatusBadRequest {
				t.Errorf("%s: %s 2 MiB body: status %d, want 400", d.name, kind, rec.Code)
			}
		}

		rec = do("GET", "/metrics", "")
		if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("%s: /metrics: %d, Content-Type %q", d.name, rec.Code, ct)
		}
		if !strings.Contains(rec.Body.String(), "# TYPE ") {
			t.Errorf("%s: /metrics is not Prometheus text: %.80q", d.name, rec.Body.String())
		}
	}
}
