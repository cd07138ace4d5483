// Package httpd is the daemon chassis chimera-serve, chimera-router and the
// fleet controller share: the decisions every one of them makes the same
// way, made once. It owns the request-body cap, slot-or-429 admission
// control, the listen → serve → drain → bounded-shutdown lifecycle with its
// readiness flag and drain-aware Retry-After, the JSON and error reply
// writers, the /metrics and pprof mounts, and the body memo (memo.go) that
// lets the router and the replicas skip re-deriving a repeated body. It
// depends on the standard
// library and internal/obs only, so any daemon can embed it.
package httpd

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"chimera/internal/obs"
)

// maxBodyBytes caps request bodies; every valid request is far smaller, and
// without it one client could buffer gigabytes into a decode while holding
// an admission slot.
const maxBodyBytes = 1 << 20

// shutdownTimeout is the default bound on graceful shutdown's wait for
// in-flight requests.
const shutdownTimeout = 15 * time.Second

// LimitBody caps r's body at 1 MiB: reads beyond the cap fail instead of
// buffering.
func LimitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON replies with v encoded as JSON. It reports false when v could
// not be encoded, in which case the reply is a 500.
func WriteJSON(w http.ResponseWriter, status int, v any) bool {
	raw, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return false
	}
	WriteEncoded(w, status, raw)
	return true
}

// WriteEncoded replies with a body already encoded as JSON, the
// concatenation of parts, writing each part as it stands: a body spliced
// from pieces goes out without being joined first. Several parts carry a
// Content-Length summed from them, so the server neither buffers nor chunks
// them, however long. A single part is left to the server's own framing (a
// Content-Length it computes when the body fits its buffer): the header
// value would cost two allocations on the serve tier's cache-hit path,
// which allocates two in all (serve.TestResolveMemoHitAllocs).
func WriteEncoded(w http.ResponseWriter, status int, parts ...[]byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if len(parts) > 1 {
		n := 0
		for _, p := range parts {
			n += len(p)
		}
		h.Set("Content-Length", strconv.Itoa(n))
	}
	w.WriteHeader(status)
	for _, p := range parts {
		w.Write(p)
	}
}

// WriteError replies with an ErrorResponse carrying msg.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorResponse{Error: msg})
}

// Metrics serves reg in the Prometheus text exposition format.
func Metrics(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}

// MountPprof exposes the standard runtime profiles under /debug/pprof/.
// Opt-in: profiles can reveal operational detail and cost CPU to collect.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Admission is slot-or-429 admission control: a request either takes one of
// a fixed number of slots immediately or is shed — it never queues, so
// offered load beyond the bound cannot pile up work or memory.
type Admission struct {
	slots       chan struct{}
	shedMessage string
	onShed      func()
	retryAfter  func() string
}

// DefaultMaxInflight is the admission bound a zero maxInflight selects:
// 4×GOMAXPROCS.
func DefaultMaxInflight() int { return 4 * runtime.GOMAXPROCS(0) }

// NewAdmission bounds concurrently admitted requests to maxInflight
// (≤ 0 selects DefaultMaxInflight). A shed request gets 429 with shedMessage as
// its error and retryAfter() as its Retry-After header; onShed runs once
// per shed request.
func NewAdmission(maxInflight int, shedMessage string, onShed func(), retryAfter func() string) *Admission {
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight()
	}
	return &Admission{
		slots:       make(chan struct{}, maxInflight),
		shedMessage: shedMessage,
		onShed:      onShed,
		retryAfter:  retryAfter,
	}
}

// Max reports the slot bound.
func (a *Admission) Max() int { return cap(a.slots) }

// Inflight reports how many slots are held right now.
func (a *Admission) Inflight() int { return len(a.slots) }

// TryAcquire takes a slot if one is free; the caller must Release it.
func (a *Admission) TryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by TryAcquire.
func (a *Admission) Release() { <-a.slots }

// Wrap puts h behind admission control and the request-body cap.
func (a *Admission) Wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !a.TryAcquire() {
			a.onShed()
			w.Header().Set("Retry-After", a.retryAfter())
			WriteError(w, http.StatusTooManyRequests, a.shedMessage)
			return
		}
		defer a.Release()
		LimitBody(w, r)
		h(w, r)
	}
}

// Lifecycle is what differs between the daemons' serve loops; every field
// is optional.
type Lifecycle struct {
	// DrainDelay holds the listener open (still serving, but with Draining
	// reporting true) for this long after shutdown begins, giving a router
	// or load balancer time to observe the readiness flip and stop routing
	// new work before connections start being refused.
	DrainDelay time.Duration
	// ShutdownTimeout bounds the wait for in-flight requests once the
	// listener closes (0 = 15s).
	ShutdownTimeout time.Duration
	// Background, when non-nil, runs alongside the listener; Serve cancels
	// its context and waits for it before returning (the router's health
	// loop).
	Background func(ctx context.Context)
	// OnShutdown, when non-nil, runs as the bounded shutdown begins: the
	// place to end long-lived responses that would otherwise hold it to
	// its timeout (the controller's event streams).
	OnShutdown func()
}

// Daemon serves one handler through the shared lifecycle. Embed *Daemon to
// give a daemon type Handler, ListenAndServe, Serve, BeginDrain, Draining
// and RetryAfter.
type Daemon struct {
	handler http.Handler
	lc      Lifecycle

	// drainStart is when graceful shutdown began (unix nanos; 0 = not
	// draining). It flips while the listener is still open.
	drainStart atomic.Int64
}

// NewDaemon builds the chassis around handler.
func NewDaemon(handler http.Handler, lc Lifecycle) *Daemon {
	if lc.ShutdownTimeout <= 0 {
		lc.ShutdownTimeout = shutdownTimeout
	}
	return &Daemon{handler: handler, lc: lc}
}

// Handler returns the daemon's HTTP handler (for embedding and tests).
func (d *Daemon) Handler() http.Handler { return d.handler }

// Run is a daemon's main loop: it serves on addr until SIGINT or SIGTERM,
// drains, and returns nil after a clean stop.
func (d *Daemon) Run(addr string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := d.ListenAndServe(ctx, addr); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe serves on addr until ctx is cancelled, then drains.
func (d *Daemon) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.Serve(ctx, ln)
}

// Serve is ListenAndServe on a caller-supplied listener (tests use a
// pre-bound port). It always closes the listener. When ctx is cancelled it
// flips Draining, keeps serving for DrainDelay, then shuts down: no new
// connections, in-flight requests get ShutdownTimeout to finish.
func (d *Daemon) Serve(ctx context.Context, ln net.Listener) error {
	if d.lc.Background != nil {
		bctx, stop := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			d.lc.Background(bctx)
		}()
		defer func() {
			stop()
			<-done
		}()
	}
	hs := &http.Server{
		Handler: d.handler,
		// Bound connection-level resource use: a client cannot hold a
		// connection open unboundedly while trickling headers, and idle
		// keep-alive connections are reaped.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	if d.lc.OnShutdown != nil {
		hs.RegisterOnShutdown(d.lc.OnShutdown)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness first, then keep the listener open for DrainDelay: a
	// router polling /readyz (or any LB) sees "draining" and routes around
	// this daemon while it can still answer, instead of new requests racing
	// the listener close.
	d.BeginDrain()
	if d.lc.DrainDelay > 0 {
		select {
		case err := <-errc:
			return err
		case <-time.After(d.lc.DrainDelay):
		}
	}
	sctx, cancel := context.WithTimeout(context.Background(), d.lc.ShutdownTimeout)
	defer cancel()
	return hs.Shutdown(sctx)
}

// BeginDrain marks the daemon as draining. Serve calls it when its context
// is cancelled; exposed so embedders driving their own http.Server can wire
// the same readiness contract.
func (d *Daemon) BeginDrain() {
	d.drainStart.CompareAndSwap(0, time.Now().UnixNano())
}

// Draining reports whether graceful shutdown has begun; a daemon's /readyz
// answers 503 from that moment.
func (d *Daemon) Draining() bool { return d.drainStart.Load() != 0 }

// RetryAfter is the shed hint in whole seconds: 1 under normal overload,
// but once draining it covers what remains of the drain window plus the
// shutdown bound — this daemon is going away, so a shed client should come
// back after it is gone (and land elsewhere via its router) rather than
// hammer a dying listener at 1-second intervals.
func (d *Daemon) RetryAfter() string {
	start := d.drainStart.Load()
	if start == 0 {
		return "1"
	}
	rem := d.lc.DrainDelay + d.lc.ShutdownTimeout - time.Since(time.Unix(0, start))
	secs := int(math.Ceil(rem.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
