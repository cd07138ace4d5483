package httpd

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestAdmission: a free slot admits and is returned afterwards; with every
// slot held a request is shed — 429, the configured message, the supplier's
// Retry-After, the hook called once — and never reaches the handler.
func TestAdmission(t *testing.T) {
	shed, handled := 0, 0
	a := NewAdmission(2, "test at capacity", func() { shed++ }, func() string { return "7" })
	if a.Max() != 2 {
		t.Fatalf("Max = %d, want 2", a.Max())
	}
	h := a.Wrap(func(w http.ResponseWriter, r *http.Request) {
		handled++
		if a.Inflight() != 1 {
			t.Errorf("Inflight inside handler = %d, want 1", a.Inflight())
		}
		w.WriteHeader(http.StatusNoContent)
	})

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/", strings.NewReader("{}")))
	if rec.Code != http.StatusNoContent || handled != 1 || shed != 0 {
		t.Fatalf("free slot: status %d handled %d shed %d", rec.Code, handled, shed)
	}
	if a.Inflight() != 0 {
		t.Fatalf("slot not released: Inflight = %d", a.Inflight())
	}

	if !a.TryAcquire() || !a.TryAcquire() || a.TryAcquire() {
		t.Fatal("TryAcquire should succeed exactly Max times")
	}
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/", strings.NewReader("{}")))
	if rec.Code != http.StatusTooManyRequests || handled != 1 || shed != 1 {
		t.Fatalf("full: status %d handled %d shed %d, want 429 / 1 / 1", rec.Code, handled, shed)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("Retry-After %q, want the supplier's \"7\"", ra)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != "test at capacity" {
		t.Fatalf("429 body %q (err %v)", rec.Body.Bytes(), err)
	}
	a.Release()
	a.Release()

	if def := NewAdmission(0, "", func() {}, func() string { return "1" }); def.Max() < 4 {
		t.Fatalf("default bound %d, want 4×GOMAXPROCS", def.Max())
	}
}

// TestAdmissionCapsBody: an admitted handler cannot read past 1 MiB.
func TestAdmissionCapsBody(t *testing.T) {
	a := NewAdmission(1, "", func() {}, func() string { return "1" })
	var n int
	var readErr error
	h := a.Wrap(func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(r.Body)
		n, readErr = len(raw), err
	})
	h(httptest.NewRecorder(), httptest.NewRequest("POST", "/", strings.NewReader(strings.Repeat("x", 2<<20))))
	if readErr == nil || n > 1<<20 {
		t.Fatalf("read %d bytes, err %v; want the read refused at 1 MiB", n, readErr)
	}
}

// TestWriteJSON: replies are JSON with the status given; an unencodable
// value is a 500 and reported to the caller.
func TestWriteJSON(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusTeapot, "short and stout")
	if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Body.String() != `{"error":"short and stout"}` {
		t.Fatalf("WriteError: %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
	rec = httptest.NewRecorder()
	if WriteJSON(rec, http.StatusOK, func() {}) || rec.Code != http.StatusInternalServerError {
		t.Fatalf("unencodable value: status %d, want 500 and false", rec.Code)
	}
}

// serveOn starts d on a loopback listener and returns its base URL, the
// cancel that begins shutdown, and the channel Serve's result arrives on.
func serveOn(t *testing.T, d *Daemon) (base string, cancel context.CancelFunc, done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done = make(chan error, 1)
	go func() { done <- d.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), cancel, done
}

// TestDrainFlipsReadinessBeforeListenerCloses: after cancel, Draining is
// true and RetryAfter covers the remaining window while the listener still
// answers (the DrainDelay); only then does it close and Serve return.
func TestDrainFlipsReadinessBeforeListenerCloses(t *testing.T) {
	mux := http.NewServeMux()
	d := NewDaemon(mux, Lifecycle{DrainDelay: 300 * time.Millisecond, ShutdownTimeout: 4 * time.Second})
	mux.HandleFunc("/draining", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, strconv.FormatBool(d.Draining())+" "+d.RetryAfter())
	})
	if d.Handler() != http.Handler(mux) {
		t.Fatal("Handler() is not the handler the daemon was built around")
	}
	base, cancel, done := serveOn(t, d)

	probe := func() string {
		t.Helper()
		resp, err := http.Get(base + "/draining")
		if err != nil {
			t.Fatalf("listener closed before the drain delay elapsed: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	if got := probe(); got != "false 1" {
		t.Fatalf("before shutdown: %q, want \"false 1\"", got)
	}
	cancel()
	// BeginDrain runs as soon as Serve sees the cancel; wait for that event.
	for !d.Draining() {
		time.Sleep(time.Millisecond)
	}
	got := probe()
	secs, err := strconv.Atoi(strings.TrimPrefix(got, "true "))
	if err != nil || secs < 3 || secs > 5 {
		t.Fatalf("during drain delay: %q, want \"true <remaining ≈ 4.3s>\"", got)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the drain delay")
	}
	if _, err := http.Get(base + "/draining"); err == nil {
		t.Fatal("listener still accepting after Serve returned")
	}
}

// TestShutdownBoundedAndHooked: a handler that never finishes cannot hold
// Serve past ShutdownTimeout, OnShutdown runs as shutdown begins, and the
// Background function is cancelled and waited for.
func TestShutdownBoundedAndHooked(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
	})
	hooked := make(chan struct{})
	bgStarted := make(chan struct{})
	bgStopped := make(chan struct{})
	d := NewDaemon(mux, Lifecycle{
		ShutdownTimeout: 100 * time.Millisecond,
		OnShutdown:      func() { close(hooked) },
		Background: func(ctx context.Context) {
			close(bgStarted)
			<-ctx.Done()
			close(bgStopped)
		},
	})
	base, cancel, done := serveOn(t, d)
	go http.Get(base + "/stuck")
	<-entered
	<-bgStarted

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != context.DeadlineExceeded {
			t.Fatalf("Serve returned %v, want the shutdown bound's DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve held past its shutdown bound by a stuck handler")
	}
	if waited := time.Since(start); waited < 100*time.Millisecond {
		t.Fatalf("Serve returned after %v, before the shutdown bound", waited)
	}
	select {
	case <-hooked:
	default:
		t.Fatal("OnShutdown did not run")
	}
	select {
	case <-bgStopped:
	default:
		t.Fatal("Serve returned before Background stopped")
	}
}
