// Package controller is the fleet control plane: a long-running daemon
// that owns one live elastic simulation (fleet.ElasticSim) and exposes it
// over HTTP. Clients push churn and arrival events as they happen
// (POST /v1/fleet/events), read the allocation currently in effect
// (GET /v1/fleet/allocation), subscribe to allocation updates
// (GET /v1/fleet/stream, server-sent events), and explore hypotheticals
// against a fork of the live state (POST /v1/fleet/whatif) without
// touching it.
//
// The controller is a single serialized state machine: one mutex orders
// every ingested batch, so the applied event sequence is exactly the
// append-only log the sim records. That log is the correctness anchor —
// replaying it through fleet.NewAllocator(e).SimulateElastic reproduces the
// controller's event records and current allocation bit for bit (the live
// log is a byte-identical prefix of the replay's; the replay goes on to
// retire the still-resident instances). Replies carry the fleet results themselves
// (fleet.FinalShare, fleet.EventRecord), which encode exactly as they do in
// a replay's result, so the bytes are directly comparable.
//
// A failed apply (resident cap mid-batch, planner failure) leaves the sim
// inconsistent with its recorded log; the controller then poisons itself —
// every state endpoint answers 503 until the operator restarts it — rather
// than serve allocations that no longer replay.
package controller

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/httpd"
	"chimera/internal/obs"
	"chimera/internal/serve"
)

// Config configures New.
type Config struct {
	// Scenario is the live configuration: cluster, job vocabulary, policy
	// and re-plan knobs. It must not carry a trace or events — those arrive
	// over POST /v1/fleet/events.
	Scenario serve.FleetScenario
	// Workers sizes the engine's worker pool (0 = GOMAXPROCS).
	Workers int
	// CacheCapacity bounds the engine memo tables with LRU eviction
	// (0 = unbounded). A controller runs forever; daemons should set it.
	CacheCapacity int
	// MaxInflight bounds concurrently admitted heavy requests (events,
	// whatif); excess requests are shed with 429. 0 selects 4×GOMAXPROCS.
	MaxInflight int
	// Engine, when non-nil, supplies a caller-owned engine and overrides
	// Workers/CacheCapacity; the allocator's plan memo takes the engine's
	// bound.
	Engine *engine.Engine
	// Registry, when non-nil, receives the controller_* series; the
	// controller otherwise creates its own. GET /metrics serves it.
	Registry *obs.Registry
}

// Controller is the fleet control plane. Build with New; the zero value is
// not usable. The embedded chassis supplies Handler, Run, ListenAndServe and
// Serve; on shutdown /readyz answers 503 "draining", sheds carry the
// drain-aware Retry-After, and the event streams are closed so they cannot
// hold the bounded shutdown to its timeout.
type Controller struct {
	*httpd.Daemon
	admission *httpd.Admission
	reg       *obs.Registry
	started   time.Time
	hub       *hub

	// mu serializes the state machine: every batch applies under it, so
	// the recorded event log is the exact applied order.
	mu       sync.Mutex
	sim      *fleet.ElasticSim
	version  uint64 // batches applied
	poisoned error  // non-nil once an apply-phase failure corrupted the sim
	// alloc is the newest encoded allocation, replaced under mu by each
	// batch; every allocation reply splices its bytes, and the next
	// version (or a what-if fork) reuses them for each unchanged share.
	alloc *encodedAllocation

	eventsTotal   *obs.Counter   // events accepted
	batchesTotal  *obs.Counter   // batches applied
	rejectsTotal  *obs.Counter   // batches rejected (pre-mutation)
	whatifsTotal  *obs.Counter   // what-if forks evaluated
	shedTotal     *obs.Counter   // requests shed by admission control
	replanSeconds *obs.Histogram // wall time of one batch's ingest (all its re-plans)
	nodesGauge    *obs.Gauge     // present pool size
	residentsG    *obs.Gauge     // resident instance count
	streamClients *obs.Gauge     // connected SSE subscribers
}

// New builds a Controller, its engine, and its live simulation.
func New(cfg Config) (*Controller, error) {
	esc, err := cfg.Scenario.ResolveLive()
	if err != nil {
		return nil, err
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	eng := engine.ForDaemon(cfg.Engine, reg, cfg.Workers, cfg.CacheCapacity)
	alloc := fleet.NewAllocator(eng)
	alloc.Observe(reg)
	sim, err := alloc.NewElasticSim(esc)
	if err != nil {
		return nil, err
	}
	enc, err := (*encodedAllocation)(nil).encode(0, sim.Shares())
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	h := newHub()
	c := &Controller{
		Daemon:  httpd.NewDaemon(mux, httpd.Lifecycle{OnShutdown: h.closeAll}),
		reg:     reg,
		started: time.Now(),
		hub:     h,
		sim:     sim,
		alloc:   enc,

		eventsTotal:   reg.Counter("controller_events_total", "live events accepted into the simulation"),
		batchesTotal:  reg.Counter("controller_batches_total", "event batches applied"),
		rejectsTotal:  reg.Counter("controller_rejected_batches_total", "event batches rejected before any state mutated"),
		whatifsTotal:  reg.Counter("controller_whatifs_total", "what-if forks evaluated"),
		shedTotal:     reg.Counter("controller_shed_total", "requests shed by admission control"),
		replanSeconds: reg.Histogram("controller_replan_seconds", "wall time to apply one event batch (validation, re-plans, log append)"),
		nodesGauge:    reg.Gauge("controller_nodes", "present node-pool size"),
		residentsG:    reg.Gauge("controller_residents", "resident job instances"),
		streamClients: reg.Gauge("controller_stream_clients", "connected allocation-stream subscribers"),
	}
	c.nodesGauge.Set(int64(sim.NodeCount()))
	c.admission = httpd.NewAdmission(cfg.MaxInflight, "controller at capacity, retry later",
		c.shedTotal.Inc, c.RetryAfter)

	mux.HandleFunc("POST /v1/fleet/events", c.admission.Wrap(c.handleEvents))
	mux.HandleFunc("POST /v1/fleet/whatif", c.admission.Wrap(c.handleWhatIf))
	mux.HandleFunc("GET /v1/fleet/allocation", c.handleAllocation)
	mux.HandleFunc("GET /v1/fleet/events/log", c.handleLog)
	mux.HandleFunc("GET /v1/fleet/stream", c.handleStream)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /readyz", c.handleReady)
	mux.HandleFunc("GET /metrics", httpd.Metrics(reg))
	return c, nil
}

// Registry returns the controller's metric registry.
func (c *Controller) Registry() *obs.Registry { return c.reg }

// MaxInflight reports the admission-control bound.
func (c *Controller) MaxInflight() int { return c.admission.Max() }

// EventsRequest is the POST /v1/fleet/events body: one batch of live
// events, any order within the batch, every time strictly after the last
// applied batch.
type EventsRequest struct {
	Events []serve.FleetEventRef `json:"events"`
}

// EventsResponse acknowledges an applied batch with the allocation it
// produced.
type EventsResponse struct {
	// Accepted is how many events the batch carried; Version counts applied
	// batches; Now is the simulation time after the batch.
	Accepted int     `json:"accepted"`
	Version  uint64  `json:"version"`
	Now      float64 `json:"now"`
	// ReplanMillis is the wall time the batch took to apply — validation,
	// every re-plan it triggered, and the log append.
	ReplanMillis float64            `json:"replan_ms"`
	Nodes        int                `json:"nodes"`
	Residents    int                `json:"residents"`
	Allocation   []fleet.FinalShare `json:"allocation"`
}

func (c *Controller) handleEvents(w http.ResponseWriter, r *http.Request) {
	var req EventsRequest
	if err := serve.DecodeStrict(r.Body, &req); err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Events) == 0 {
		httpd.WriteError(w, http.StatusBadRequest, "controller: events must be non-empty")
		return
	}
	events, err := serve.ResolveFleetEvents(req.Events)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	c.mu.Lock()
	if c.poisoned != nil {
		c.mu.Unlock()
		c.unavailable(w)
		return
	}
	start := time.Now()
	err = c.sim.Ingest(events)
	elapsed := time.Since(start)
	if err != nil {
		var ae *fleet.ApplyError
		if errors.As(err, &ae) {
			// Validation passed but the apply failed mid-batch: the state no
			// longer matches the recorded log, so stop serving it.
			c.poisoned = err
			c.mu.Unlock()
			httpd.WriteError(w, http.StatusInternalServerError, "controller poisoned: "+err.Error())
			return
		}
		c.mu.Unlock()
		c.rejectsTotal.Inc()
		httpd.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	c.version++
	// The allocation is left out of both headers: it is encoded once, under
	// the lock so that versions replace each other in order, and spliced
	// into each.
	alloc, encErr := c.encodedLocked()
	resp := EventsResponse{
		Accepted: len(events), Version: c.version, Now: c.sim.Now(),
		ReplanMillis: float64(elapsed) / float64(time.Millisecond),
		Nodes:        c.sim.NodeCount(), Residents: c.sim.Residents(),
	}
	update := AllocationResponse{
		Version: resp.Version, Now: resp.Now, Events: c.sim.EventCount(),
		Nodes: resp.Nodes, Residents: resp.Residents,
	}
	c.mu.Unlock()

	c.eventsTotal.Add(uint64(resp.Accepted))
	c.batchesTotal.Inc()
	c.replanSeconds.Observe(elapsed)
	c.nodesGauge.Set(int64(resp.Nodes))
	c.residentsG.Set(int64(resp.Residents))
	if encErr != nil {
		httpd.WriteError(w, http.StatusInternalServerError, "controller: encoding the allocation: "+encErr.Error())
		return
	}
	// Nobody listening, nothing to encode: a subscriber that attaches after
	// this check reads the state this batch produced from its own snapshot.
	if c.hub.subscribed() {
		if head, err := allocationHead(update); err == nil {
			c.hub.publish(frame{head: head, alloc: alloc})
		}
	}
	writeAllocation(w, resp, alloc)
}

// encodedLocked returns the current version's encoded allocation, encoding
// it against the previous version's bytes if a batch applied since; c.mu
// must be held. A failed encoding leaves the previous version in place: it
// stays a correct base, because reuse compares share values, and the next
// call encodes again.
func (c *Controller) encodedLocked() (*encodedAllocation, error) {
	if c.alloc.version == c.version {
		return c.alloc, nil
	}
	next, err := c.alloc.encode(c.version, c.sim.Shares())
	if err != nil {
		return nil, err
	}
	c.alloc = next
	return next, nil
}

// writeAllocation replies 200 with v's encoding, alloc's bytes spliced in
// as v's nil allocation: head, alloc.raw and closeBrace go out as parts,
// never joined.
func writeAllocation(w http.ResponseWriter, v any, alloc *encodedAllocation) {
	head, err := allocationHead(v)
	if err != nil {
		httpd.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	httpd.WriteEncoded(w, http.StatusOK, head, alloc.raw, closeBrace)
}

var (
	nilAllocation = []byte(`"allocation":null}`)
	closeBrace    = []byte(`}`)
)

// allocationHead encodes v, whose last field is a nil Allocation, up to
// that field's null: head, the allocation's encoding and closeBrace joined
// are json.Marshal of v carrying that allocation. An encoding that does not
// end in the nil allocation (a field after it) is an error, never a wrong
// body.
func allocationHead(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(raw, nilAllocation) {
		return nil, fmt.Errorf("controller: %T does not end in a nil allocation", v)
	}
	return raw[:len(raw)-len("null}")], nil
}

// AllocationResponse is GET /v1/fleet/allocation (and each SSE update's
// data payload): the allocation currently in effect.
type AllocationResponse struct {
	Version    uint64             `json:"version"`
	Now        float64            `json:"now"`
	Events     int                `json:"events"`
	Nodes      int                `json:"nodes"`
	Residents  int                `json:"residents"`
	Allocation []fleet.FinalShare `json:"allocation"`
}

func (c *Controller) handleAllocation(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	if c.poisoned != nil {
		c.mu.Unlock()
		c.unavailable(w)
		return
	}
	head, alloc, err := c.allocationLocked()
	c.mu.Unlock()
	if err != nil {
		httpd.WriteError(w, http.StatusInternalServerError, "controller: encoding the allocation: "+err.Error())
		return
	}
	writeAllocation(w, head, alloc)
}

// allocationLocked snapshots the current allocation: the response with a
// nil Allocation, and the encoding to splice in its place; c.mu must be
// held.
func (c *Controller) allocationLocked() (AllocationResponse, *encodedAllocation, error) {
	alloc, err := c.encodedLocked()
	return AllocationResponse{
		Version: c.version, Now: c.sim.Now(), Events: c.sim.EventCount(),
		Nodes: c.sim.NodeCount(), Residents: c.sim.Residents(),
	}, alloc, err
}

// LogResponse is GET /v1/fleet/events/log: the raw ingested events (the
// trace that replays this controller bit for bit) plus the processed-event
// records the simulation logged while applying them.
type LogResponse struct {
	Version uint64                `json:"version"`
	Events  []serve.FleetEventRef `json:"events"`
	Log     []fleet.EventRecord   `json:"log"`
}

func (c *Controller) handleLog(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	if c.poisoned != nil {
		c.mu.Unlock()
		c.unavailable(w)
		return
	}
	// Both histories are append-only: the clipped views taken under the
	// lock stay valid while later batches append, so they encode unlocked.
	version, events, log := c.version, c.sim.Events(), c.sim.Log()
	c.mu.Unlock()
	if log == nil {
		log = []fleet.EventRecord{} // "log":[] before the first batch, like "events"
	}
	httpd.WriteJSON(w, http.StatusOK, LogResponse{Version: version, Events: serve.NewFleetEventRefs(events), Log: log})
}

// WhatIfRequest is the POST /v1/fleet/whatif body: a hypothesis to evaluate
// against a fork of the live state. At least one of the fields must be set.
// Events follow the same rules as /v1/fleet/events (strictly after the live
// sim's last batch); deadline and penalty moves apply before any events.
type WhatIfRequest struct {
	Events           []serve.FleetEventRef `json:"events,omitempty"`
	MigrationPenalty *float64              `json:"migration_penalty,omitempty"`
	Deadlines        []WhatIfDeadline      `json:"deadlines,omitempty"`
}

// WhatIfDeadline moves one job's deadline (0 removes it).
type WhatIfDeadline struct {
	Job      string  `json:"job"`
	Deadline float64 `json:"deadline"`
}

// WhatIfResponse reports the forked simulation after the hypothesis:
// BaseVersion is the live version the fork branched from.
type WhatIfResponse struct {
	BaseVersion uint64             `json:"base_version"`
	Now         float64            `json:"now"`
	Nodes       int                `json:"nodes"`
	Residents   int                `json:"residents"`
	Cost        float64            `json:"cost,omitempty"`
	Allocation  []fleet.FinalShare `json:"allocation"`
}

// handleWhatIf forks the live simulation and applies the hypothesis to the
// fork. The fork shares the allocator and the live sim's plan curves, and
// its histories start empty, so it copies only the state written in place
// and pays only for plans nobody has needed before; forking holds the state
// lock, applying does not — a slow hypothesis never blocks ingestion, and
// the two may read and fill the curves concurrently.
func (c *Controller) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req WhatIfRequest
	if err := serve.DecodeStrict(r.Body, &req); err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Events) == 0 && req.MigrationPenalty == nil && len(req.Deadlines) == 0 {
		httpd.WriteError(w, http.StatusBadRequest, "controller: whatif needs events, migration_penalty or deadlines")
		return
	}
	events, err := serve.ResolveFleetEvents(req.Events)
	if err != nil {
		httpd.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}

	c.mu.Lock()
	if c.poisoned != nil {
		c.mu.Unlock()
		c.unavailable(w)
		return
	}
	fork := c.sim.Fork()
	baseVersion, base := c.version, c.alloc
	c.mu.Unlock()

	if req.MigrationPenalty != nil {
		if err := fork.SetMigrationPenalty(*req.MigrationPenalty); err != nil {
			httpd.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	for _, d := range req.Deadlines {
		if err := fork.SetDeadline(d.Job, d.Deadline); err != nil {
			httpd.WriteError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	}
	if len(events) > 0 {
		if err := fork.Ingest(events); err != nil {
			// The fork is discarded either way; an apply failure poisons
			// nothing but means the hypothesis has no answer.
			httpd.WriteError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	} else if err := fork.ReplanNow(); err != nil {
		httpd.WriteError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	c.whatifsTotal.Inc()
	alloc, err := base.encode(baseVersion, fork.Shares())
	if err != nil {
		httpd.WriteError(w, http.StatusInternalServerError, "controller: encoding the allocation: "+err.Error())
		return
	}
	writeAllocation(w, WhatIfResponse{
		BaseVersion: baseVersion, Now: fork.Now(),
		Nodes: fork.NodeCount(), Residents: fork.Residents(),
		Cost: fork.Cost(),
	}, alloc)
}

// handleStream is GET /v1/fleet/stream: a server-sent-event stream with one
// "allocation" event per applied batch (data: AllocationResponse JSON),
// preceded by a snapshot of the current state on subscribe. A subscriber
// that cannot keep up skips updates rather than stalling ingestion.
func (c *Controller) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpd.WriteError(w, http.StatusInternalServerError, "controller: streaming unsupported by this connection")
		return
	}
	sub := c.hub.subscribe()
	defer c.hub.unsubscribe(sub)
	c.streamClients.Inc()
	defer c.streamClients.Dec()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	c.mu.Lock()
	poisoned := c.poisoned != nil
	var (
		snap  AllocationResponse
		alloc *encodedAllocation
		err   error
	)
	if !poisoned {
		snap, alloc, err = c.allocationLocked()
	}
	c.mu.Unlock()
	if poisoned {
		writeEvent(w, "error", []byte(`{"error":"controller poisoned"}`))
		fl.Flush()
		return
	}
	if err == nil {
		if head, err := allocationHead(snap); err == nil {
			frame{head: head, alloc: alloc}.write(w)
			fl.Flush()
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case f, ok := <-sub:
			if !ok {
				return // hub closed (shutdown)
			}
			f.write(w)
			fl.Flush()
		}
	}
}

// frame is one "allocation" event of the stream: its data is head,
// alloc.raw and closeBrace, the parts of the AllocationResponse encoding.
// The hub hands the same frame to every subscriber, and each writes the
// parts into its own connection's buffer.
type frame struct {
	head  []byte
	alloc *encodedAllocation
}

func (f frame) write(w io.Writer) { writeEvent(w, "allocation", f.head, f.alloc.raw, closeBrace) }

// writeEvent writes one server-sent event whose data is the concatenation of
// data's parts.
func writeEvent(w io.Writer, event string, data ...[]byte) {
	io.WriteString(w, "event: ")
	io.WriteString(w, event)
	io.WriteString(w, "\ndata: ")
	for _, p := range data {
		w.Write(p)
	}
	io.WriteString(w, "\n\n")
}

// HealthResponse is GET /healthz: liveness plus the state machine's vitals.
type HealthResponse struct {
	Status        string  `json:"status"` // ok | poisoned
	UptimeSeconds float64 `json:"uptime_seconds"`
	Version       uint64  `json:"version"`
	Events        int     `json:"events"`
	Nodes         int     `json:"nodes"`
	Residents     int     `json:"residents"`
}

func (c *Controller) handleHealth(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(c.started).Seconds(),
		Version:       c.version,
		Events:        c.sim.EventCount(),
		Nodes:         c.sim.NodeCount(),
		Residents:     c.sim.Residents(),
	}
	if c.poisoned != nil {
		resp.Status = "poisoned"
	}
	c.mu.Unlock()
	httpd.WriteJSON(w, http.StatusOK, resp)
}

// handleReady mirrors the serve tier's readiness split: 200 while the
// state machine accepts events, 503 once poisoned or once shutdown has begun.
func (c *Controller) handleReady(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	poisoned := c.poisoned != nil
	c.mu.Unlock()
	switch {
	case poisoned:
		httpd.WriteJSON(w, http.StatusServiceUnavailable, serve.ReadyResponse{Status: "poisoned"})
	case c.Draining():
		httpd.WriteJSON(w, http.StatusServiceUnavailable, serve.ReadyResponse{Status: "draining"})
	default:
		httpd.WriteJSON(w, http.StatusOK, serve.ReadyResponse{Status: "ready"})
	}
}

func (c *Controller) unavailable(w http.ResponseWriter) {
	c.mu.Lock()
	msg := "controller poisoned"
	if c.poisoned != nil {
		msg = "controller poisoned: " + c.poisoned.Error()
	}
	c.mu.Unlock()
	httpd.WriteError(w, http.StatusServiceUnavailable, msg)
}
