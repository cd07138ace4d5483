// Package serve exposes the planner (§3.4), the cluster simulator, schedule
// analysis (Table 2 units) and timeline rendering over an HTTP/JSON API, so
// one long-running daemon (cmd/chimera-serve) can amortize the engine's
// memoized schedules and evaluations across every client instead of each
// process paying cold-cache sweep costs.
//
// This file is the single serialization path for the service and the CLIs'
// -json modes: request types resolve named presets (models, platforms,
// schemes) into the internal value types, decoded strictly. The codec maps
// names, presets and size caps and spells out defaults for the cache key;
// each remaining rule is checked once, by the package that owns the value —
// sim the speed-factor range, perfmodel the placement selector, fleet its
// requests and scenarios — and every resolver runs that check, so a
// malformed request is a 400 before any planning. Results
// carry their own json tags — a planner prediction, a simulator result, a
// schedule analysis, a fleet allocation or simulation encodes as it stands —
// so one result has one wire shape and no copy here. The resolved inputs (perfmodel.PlanRequest, the fleet request
// and scenario types) stay untagged on purpose: their Go-field-name JSON is
// the response-cache key, the router's shard key and the snapshot key.
// Encoding is canonical (encoding/json, no indentation), so two encodes of
// equal values are byte-identical — the property the benchmark's
// equivalence gate relies on.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// ModelRef names a model-zoo preset or inlines a full transformer config.
// Exactly one of the two forms must be used.
type ModelRef struct {
	// Preset is a Table 4 zoo name: bert48 | bert48-512 | gpt2 | gpt2-32.
	Preset string `json:"preset,omitempty"`
	// Inline configuration (all five numeric fields required when used).
	Name   string `json:"name,omitempty"`
	Layers int    `json:"layers,omitempty"`
	Hidden int    `json:"hidden,omitempty"`
	Heads  int    `json:"heads,omitempty"`
	Vocab  int    `json:"vocab,omitempty"`
	SeqLen int    `json:"seq_len,omitempty"`
}

// Request size caps. Admission control bounds how many requests execute at
// once; these bound how big any single admitted request can be, so one
// oversized problem cannot exhaust the daemon's memory on its own. They sit
// well above the paper's largest cases (P=2048, D=64, B̂=2048).
const (
	// MaxStages and MaxMicroBatches bound a schedule's D and N; their
	// product bounds the op-structure allocation (≤ ~1M ops).
	MaxStages       = 4096
	MaxMicroBatches = 4096
	MaxScheduleOps  = 1 << 20
	// MaxWorkers bounds P and W; MaxMiniBatch bounds B̂ and B.
	MaxWorkers   = 1 << 16
	MaxMiniBatch = 1 << 20
	// MaxModelDim bounds every inline model field (layers, hidden, heads,
	// vocab, seq_len).
	MaxModelDim = 1 << 20
)

var modelPresets = map[string]func() model.Config{
	"bert48":     model.BERT48,
	"bert48-512": model.BERT48Seq512,
	"gpt2":       model.GPT2,
	"gpt2-32":    model.GPT2Small32,
}

// ModelPresets lists the model preset names the service resolves.
func ModelPresets() []string { return sortedKeys(modelPresets) }

// ResolveModel returns the preset config for a zoo name.
func ResolveModel(name string) (model.Config, error) {
	fn, ok := modelPresets[name]
	if !ok {
		return model.Config{}, fmt.Errorf("unknown model preset %q (have %s)",
			name, strings.Join(ModelPresets(), ", "))
	}
	return fn(), nil
}

// Resolve validates the reference and returns the model config.
func (r ModelRef) Resolve() (model.Config, error) {
	inline := r.Layers != 0 || r.Hidden != 0 || r.Heads != 0 || r.Vocab != 0 || r.SeqLen != 0 || r.Name != ""
	if r.Preset != "" {
		if inline {
			return model.Config{}, fmt.Errorf("model: preset %q and inline fields are mutually exclusive", r.Preset)
		}
		return ResolveModel(r.Preset)
	}
	if !inline {
		return model.Config{}, fmt.Errorf("model: missing (set preset or inline fields)")
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"layers", r.Layers}, {"hidden", r.Hidden}, {"heads", r.Heads}, {"vocab", r.Vocab}, {"seq_len", r.SeqLen}} {
		if f.v <= 0 {
			return model.Config{}, fmt.Errorf("model: inline field %s must be ≥ 1, got %d", f.name, f.v)
		}
		if f.v > MaxModelDim {
			return model.Config{}, fmt.Errorf("model: inline field %s = %d exceeds the limit %d", f.name, f.v, MaxModelDim)
		}
	}
	name := r.Name
	if name == "" {
		name = "custom"
	}
	return model.Config{
		Name: name, Layers: r.Layers, Hidden: r.Hidden,
		Heads: r.Heads, Vocab: r.Vocab, SeqLen: r.SeqLen,
	}, nil
}

// DeviceRef inlines a sim.Device.
type DeviceRef struct {
	Name      string  `json:"name,omitempty"`
	PeakFLOPS float64 `json:"peak_flops"`
	MemBytes  int64   `json:"mem_bytes"`
	EffHalfB  float64 `json:"eff_half_b,omitempty"`
	EffFloor  float64 `json:"eff_floor,omitempty"`
}

// NetworkRef inlines a sim.Network.
type NetworkRef struct {
	Name    string  `json:"name,omitempty"`
	Alpha   float64 `json:"alpha"`
	Beta    float64 `json:"beta"`
	BetaP2P float64 `json:"beta_p2p,omitempty"`
}

// PlatformRef names a calibrated platform preset or inlines device+network.
type PlatformRef struct {
	// Preset is a platform name: pizdaint | v100.
	Preset  string      `json:"preset,omitempty"`
	Device  *DeviceRef  `json:"device,omitempty"`
	Network *NetworkRef `json:"network,omitempty"`
}

type platformPreset struct {
	dev func() sim.Device
	net func() sim.Network
}

var platformPresets = map[string]platformPreset{
	"pizdaint": {sim.PizDaintNode, sim.AriesNetwork},
	"v100":     {sim.V100Node, sim.NVLinkIBNetwork},
}

// PlatformPresets lists the platform preset names the service resolves.
func PlatformPresets() []string { return sortedKeys(platformPresets) }

// ResolvePlatform returns the preset device and network for a name.
func ResolvePlatform(name string) (sim.Device, sim.Network, error) {
	p, ok := platformPresets[name]
	if !ok {
		return sim.Device{}, sim.Network{}, fmt.Errorf("unknown platform preset %q (have %s)",
			name, strings.Join(PlatformPresets(), ", "))
	}
	return p.dev(), p.net(), nil
}

// Resolve validates the reference and returns the device and network.
func (r PlatformRef) Resolve() (sim.Device, sim.Network, error) {
	if r.Preset != "" {
		if r.Device != nil || r.Network != nil {
			return sim.Device{}, sim.Network{}, fmt.Errorf("platform: preset %q and inline device/network are mutually exclusive", r.Preset)
		}
		return ResolvePlatform(r.Preset)
	}
	if r.Device == nil || r.Network == nil {
		return sim.Device{}, sim.Network{}, fmt.Errorf("platform: missing (set preset, or both device and network)")
	}
	if r.Device.PeakFLOPS <= 0 || r.Device.MemBytes <= 0 {
		return sim.Device{}, sim.Network{}, fmt.Errorf("platform: device needs peak_flops > 0 and mem_bytes > 0")
	}
	// Negative curve/cost parameters would drive NaNs or negative times
	// through the simulator (efficiency divides by b + eff_half_b).
	if r.Device.EffHalfB < 0 || r.Device.EffFloor < 0 || r.Device.EffFloor > 1 {
		return sim.Device{}, sim.Network{}, fmt.Errorf("platform: device needs eff_half_b ≥ 0 and eff_floor in [0, 1]")
	}
	if r.Network.Alpha < 0 || r.Network.Beta <= 0 || r.Network.BetaP2P < 0 {
		return sim.Device{}, sim.Network{}, fmt.Errorf("platform: network needs alpha ≥ 0, beta > 0 and beta_p2p ≥ 0")
	}
	dev := sim.Device{
		Name: r.Device.Name, PeakFLOPS: r.Device.PeakFLOPS, MemBytes: r.Device.MemBytes,
		EffHalfB: r.Device.EffHalfB, EffFloor: r.Device.EffFloor,
	}
	net := sim.Network{
		Name: r.Network.Name, Alpha: r.Network.Alpha, Beta: r.Network.Beta, BetaP2P: r.Network.BetaP2P,
	}
	return dev, net, nil
}

// ScheduleRef names a pipeline schedule by its construction parameters.
type ScheduleRef struct {
	// Scheme: chimera | gpipe | dapple | 1f1b | gems | pipedream | pipedream-2bw.
	Scheme string `json:"scheme"`
	D      int    `json:"d"`
	N      int    `json:"n"`
	// F is Chimera's pipelines per direction (chimera only; default 1).
	F int `json:"f,omitempty"`
	// Concat is Chimera's N > D method: direct | doubling | halving.
	Concat string `json:"concat,omitempty"`
	// Scheduler is the placement policy: fixed (default) | heft | cpop | lb.
	// List policies re-shape the schedule using the request's speed factors;
	// with no (or uniform) factors they fall back to the fixed placement.
	Scheduler string `json:"scheduler,omitempty"`
}

var concatModes = map[string]schedule.ConcatMode{
	"":         schedule.Direct,
	"direct":   schedule.Direct,
	"doubling": schedule.ForwardDoubling,
	"halving":  schedule.BackwardHalving,
}

// ConcatModes lists the accepted concat mode names.
func ConcatModes() []string { return []string{"direct", "doubling", "halving"} }

// ResolveConcat returns the N > D method for a concat mode name ("" is
// direct).
func ResolveConcat(name string) (schedule.ConcatMode, error) {
	mode, ok := concatModes[name]
	if !ok {
		return 0, fmt.Errorf("unknown concat %q (have %s)", name, strings.Join(ConcatModes(), ", "))
	}
	return mode, nil
}

// Schemes lists every scheme name the service accepts: the Table 2 set
// plus the 1f1b alias (schedule.ByName's full vocabulary).
func Schemes() []string { return append(schedule.Schemes(), "1f1b") }

// Schedulers lists the placement-policy names the service accepts ("fixed"
// first), schedule.Schedulers' vocabulary.
func Schedulers() []string { return schedule.Schedulers() }

// resolveScheduler validates a wire scheduler name and returns its engine-key
// form ("" for the fixed placement).
func resolveScheduler(ctx, name string) (string, error) {
	if name == "" || name == "fixed" {
		return "", nil
	}
	if _, err := schedule.SchedulerByName(name); err != nil {
		return "", fmt.Errorf("%s: unknown scheduler %q (have %s)", ctx, name, strings.Join(Schedulers(), ", "))
	}
	return name, nil
}

// Key validates the reference and returns the engine's schedule key.
func (r ScheduleRef) Key() (engine.ScheduleKey, error) {
	var zero engine.ScheduleKey
	known := false
	for _, s := range Schemes() {
		if s == r.Scheme {
			known = true
			break
		}
	}
	if !known {
		return zero, fmt.Errorf("schedule: unknown scheme %q (have %s)",
			r.Scheme, strings.Join(Schemes(), ", "))
	}
	if r.D < 1 || r.N < 1 {
		return zero, fmt.Errorf("schedule: d and n must be ≥ 1, got d=%d n=%d", r.D, r.N)
	}
	if r.D > MaxStages || r.N > MaxMicroBatches || r.D*r.N > MaxScheduleOps {
		return zero, fmt.Errorf("schedule: d=%d n=%d exceeds the limits (d ≤ %d, n ≤ %d, d·n ≤ %d)",
			r.D, r.N, MaxStages, MaxMicroBatches, MaxScheduleOps)
	}
	mode, err := ResolveConcat(r.Concat)
	if err != nil {
		return zero, fmt.Errorf("schedule: %w", err)
	}
	if r.Scheme != "chimera" && (r.F != 0 || r.Concat != "") {
		return zero, fmt.Errorf("schedule: f and concat apply to chimera only, not %q", r.Scheme)
	}
	if r.F < 0 {
		return zero, fmt.Errorf("schedule: f must be ≥ 0, got %d", r.F)
	}
	sched, err := resolveScheduler("schedule", r.Scheduler)
	if err != nil {
		return zero, err
	}
	key := engine.ScheduleKey{Scheme: r.Scheme, D: r.D, N: r.N}
	if r.Scheme == "chimera" {
		key = engine.ChimeraKey(r.D, r.N, r.F, mode)
	}
	// The list policies' speed factors travel beside the ScheduleRef (the
	// simulate request's speed_factors); SimulateRequest.Spec attaches them.
	key.Scheduler = sched
	return key, nil
}

// PlanRequest is the /v1/plan body: a §3.4 configuration-selection problem.
type PlanRequest struct {
	Model ModelRef `json:"model"`
	// P is the total worker count (W·D).
	P int `json:"p"`
	// MiniBatch is the target mini-batch size B̂.
	MiniBatch int `json:"mini_batch"`
	// MaxB caps the greedy micro-batch search (default 64).
	MaxB int `json:"max_b,omitempty"`
	// SpeedFactors describes a heterogeneous pipeline: factor i is the
	// compute-time multiplier of the worker hosting pipeline position i
	// (1 = nominal, 2 = twice as slow). When set, the plan search is
	// restricted to configurations whose depth D equals the factor count.
	SpeedFactors []float64 `json:"speed_factors,omitempty"`
	// Scheduler selects the placement-policy axis: fixed (default) plans the
	// scheme's own placement; heft | cpop | lb plan that policy's re-shaped
	// schedules; auto sweeps fixed plus every list policy.
	Scheduler string      `json:"scheduler,omitempty"`
	Platform  PlatformRef `json:"platform"`
}

// Resolve validates the request into a perfmodel.PlanRequest.
func (r PlanRequest) Resolve() (perfmodel.PlanRequest, error) {
	var out perfmodel.PlanRequest
	m, err := r.Model.Resolve()
	if err != nil {
		return out, err
	}
	dev, net, err := r.Platform.Resolve()
	if err != nil {
		return out, err
	}
	if r.P < 2 || r.P > MaxWorkers {
		return out, fmt.Errorf("plan: p must be in [2, %d], got %d", MaxWorkers, r.P)
	}
	if r.MiniBatch < 1 || r.MiniBatch > MaxMiniBatch {
		return out, fmt.Errorf("plan: mini_batch must be in [1, %d], got %d", MaxMiniBatch, r.MiniBatch)
	}
	if r.MaxB < 0 || r.MaxB > MaxMiniBatch {
		return out, fmt.Errorf("plan: max_b must be in [0, %d], got %d", MaxMiniBatch, r.MaxB)
	}
	maxB := r.MaxB
	if maxB == 0 {
		// PlanOn's default; normalized here so max_b omitted and max_b=64
		// share one plan-cache entry.
		maxB = 64
	}
	if len(r.SpeedFactors) != 0 {
		// The factors name the workers of one pipeline, so the list length
		// is the pipeline depth the plan is restricted to: it must be a
		// legal depth (even, within bounds) that divides P.
		d := len(r.SpeedFactors)
		if d < 2 || d > MaxStages || d%2 != 0 {
			return out, fmt.Errorf("plan: speed_factors needs an even length in [2, %d] (it fixes the pipeline depth D), got %d",
				MaxStages, d)
		}
		if r.P%d != 0 {
			return out, fmt.Errorf("plan: speed_factors length %d must divide p=%d", d, r.P)
		}
		// Speed factors make the planner build and replay the candidate's
		// schedule, and the search reaches N = B̂/W at B = 1: bound that
		// schedule as /v1/simulate bounds its own.
		if n := r.MiniBatch / (r.P / d); d*n > MaxScheduleOps {
			return out, fmt.Errorf("plan: d=%d n=%d exceeds the limits (d·n ≤ %d): speed_factors fix d, and the micro-batch search reaches n = mini_batch·d/p",
				d, n, MaxScheduleOps)
		}
		if err := sim.CheckSpeedFactors("speed_factors", r.SpeedFactors...); err != nil {
			return out, fmt.Errorf("plan: %w", err)
		}
	}
	if err := perfmodel.ValidateScheduler(r.Scheduler); err != nil {
		return out, fmt.Errorf("plan: %w", err)
	}
	sched := r.Scheduler
	if sched == "fixed" {
		// Normalized so scheduler omitted and scheduler="fixed" share one
		// plan-cache entry.
		sched = ""
	}
	return perfmodel.PlanRequest{
		Model: m, P: r.P, MiniBatch: r.MiniBatch, MaxB: maxB,
		SpeedFactors: sim.EncodeSpeedFactors(r.SpeedFactors),
		Scheduler:    sched,
		Device:       dev, Network: net,
	}, nil
}

// SimulateRequest is the /v1/simulate body: one simulator evaluation.
type SimulateRequest struct {
	Model      ModelRef    `json:"model"`
	Schedule   ScheduleRef `json:"schedule"`
	MicroBatch int         `json:"micro_batch"`
	W          int         `json:"w"`
	// Recompute forces activation recomputation; AutoRecompute enables it
	// only when the plain configuration exceeds device memory.
	Recompute     bool `json:"recompute,omitempty"`
	AutoRecompute bool `json:"auto_recompute,omitempty"`
	// Sync: eager-sync-opt (default) | eager-sync | post-hoc.
	Sync string `json:"sync,omitempty"`
	// Allreduce: rabenseifner (default) | ring.
	Allreduce         string  `json:"allreduce,omitempty"`
	Interference      float64 `json:"interference,omitempty"`
	ZeRO              bool    `json:"zero,omitempty"`
	CompressionFactor float64 `json:"compression_factor,omitempty"`
	// SpeedFactors[w] is the compute-time multiplier of pipeline worker w
	// (1 = nominal, 2 = twice as slow). Length must equal the schedule's d.
	SpeedFactors []float64   `json:"speed_factors,omitempty"`
	Platform     PlatformRef `json:"platform"`
}

var syncStrategies = map[string]sim.SyncStrategy{
	"":               sim.SyncEagerOpt,
	"eager-sync-opt": sim.SyncEagerOpt,
	"eager-sync":     sim.SyncEager,
	"post-hoc":       sim.SyncPostHoc,
}

var allreduceAlgs = map[string]sim.AllReduceAlg{
	"":             sim.ARRabenseifner,
	"rabenseifner": sim.ARRabenseifner,
	"ring":         sim.ARRing,
}

// Spec validates the request into an engine evaluation spec.
func (r SimulateRequest) Spec() (engine.Spec, error) {
	var out engine.Spec
	m, err := r.Model.Resolve()
	if err != nil {
		return out, err
	}
	key, err := r.Schedule.Key()
	if err != nil {
		return out, err
	}
	dev, net, err := r.Platform.Resolve()
	if err != nil {
		return out, err
	}
	if r.MicroBatch < 1 || r.MicroBatch > MaxMiniBatch {
		return out, fmt.Errorf("simulate: micro_batch must be in [1, %d], got %d", MaxMiniBatch, r.MicroBatch)
	}
	if r.W < 1 || r.W > MaxWorkers {
		return out, fmt.Errorf("simulate: w must be in [1, %d], got %d", MaxWorkers, r.W)
	}
	sync, ok := syncStrategies[r.Sync]
	if !ok {
		return out, fmt.Errorf("simulate: unknown sync %q (have eager-sync-opt, eager-sync, post-hoc)", r.Sync)
	}
	ar, ok := allreduceAlgs[r.Allreduce]
	if !ok {
		return out, fmt.Errorf("simulate: unknown allreduce %q (have rabenseifner, ring)", r.Allreduce)
	}
	if r.Recompute && r.AutoRecompute {
		return out, fmt.Errorf("simulate: recompute and auto_recompute are mutually exclusive")
	}
	if r.Interference < 0 || r.Interference > 1 {
		return out, fmt.Errorf("simulate: interference must be in [0, 1], got %g", r.Interference)
	}
	if r.CompressionFactor < 0 || r.CompressionFactor > 1 {
		return out, fmt.Errorf("simulate: compression_factor must be in [0, 1], got %g", r.CompressionFactor)
	}
	if len(r.SpeedFactors) != 0 && len(r.SpeedFactors) != r.Schedule.D {
		return out, fmt.Errorf("simulate: speed_factors has %d entries, schedule has d=%d workers (lengths must match)",
			len(r.SpeedFactors), r.Schedule.D)
	}
	if err := sim.CheckSpeedFactors("speed_factors", r.SpeedFactors...); err != nil {
		return out, fmt.Errorf("simulate: %w", err)
	}
	if key.Scheduler != "" {
		// The placement policy consumes the same per-worker factors the
		// simulator replays with; the engine collapses uniform factors back
		// onto the fixed-placement cache entry.
		key.Speed = sim.EncodeSpeedFactors(r.SpeedFactors)
	}
	return engine.Spec{
		Sched: key, Model: m, MicroBatch: r.MicroBatch, W: r.W,
		Recompute: r.Recompute, AutoRecompute: r.AutoRecompute,
		Sync: sync, Allreduce: ar, Interference: r.Interference,
		ZeRO: r.ZeRO, CompressionFactor: r.CompressionFactor,
		SpeedFactors: sim.EncodeSpeedFactors(r.SpeedFactors),
		Device:       dev, Network: net,
	}, nil
}

// MaxBatchItems bounds a /v1/plan:batch request's item list. Admission
// control charges a whole batch one slot, so the bound keeps a single batch
// from smuggling unbounded work past the inflight limit.
const MaxBatchItems = 256

// BatchPlanRequest is the /v1/plan:batch body: up to MaxBatchItems plan
// problems validated together and evaluated as one engine sweep.
type BatchPlanRequest struct {
	Requests []PlanRequest `json:"requests"`
}

// BatchPlanItem is one /v1/plan:batch result. Exactly one of Plan and Error
// is set: Plan carries the bytes a sequential POST /v1/plan would have
// returned for the same item (the batch endpoint's equivalence contract),
// Error the message that call would have put in its ErrorResponse.
type BatchPlanItem struct {
	Plan  json.RawMessage `json:"plan,omitempty"`
	Error string          `json:"error,omitempty"`
}

// BatchPlanResponse is the /v1/plan:batch reply; Results is positional
// (Results[i] answers Requests[i]).
type BatchPlanResponse struct {
	Items   int             `json:"items"`
	Results []BatchPlanItem `json:"results"`
}

// AnalyzeRequest is the /v1/analyze body.
type AnalyzeRequest struct {
	Schedule ScheduleRef `json:"schedule"`
}

// RenderRequest is the /v1/render body.
type RenderRequest struct {
	Schedule ScheduleRef `json:"schedule"`
	// Format: ascii (default) | svg | chrome.
	Format string `json:"format,omitempty"`
	// Cost: equal (default) | practical (backward = 2× forward).
	Cost string `json:"cost,omitempty"`
}

// CostModel resolves the request's replay cost model.
func (r RenderRequest) CostModel() (schedule.CostModel, error) {
	switch r.Cost {
	case "", "equal":
		return schedule.UnitEqual, nil
	case "practical":
		return schedule.UnitPractical, nil
	default:
		return schedule.CostModel{}, fmt.Errorf("render: unknown cost %q (have equal, practical)", r.Cost)
	}
}

// PlanResponse is the /v1/plan reply: predictions ranked best-first.
type PlanResponse struct {
	Model       string                  `json:"model"`
	P           int                     `json:"p"`
	MiniBatch   int                     `json:"mini_batch"`
	Predictions []*perfmodel.Prediction `json:"predictions"`
}

// NewPlanResponse wraps a ranked prediction list. The same function backs
// the service and chimera-plan -json, so both emit identical bytes for
// identical plans.
func NewPlanResponse(model string, p, miniBatch int, preds []*perfmodel.Prediction) PlanResponse {
	return PlanResponse{Model: model, P: p, MiniBatch: miniBatch, Predictions: preds}
}

// SimulateResponse is the /v1/simulate reply (and chimera-sim -json output):
// the simulator's result, which encodes itself, and whether the run used
// activation recomputation (meaningful under auto_recompute).
type SimulateResponse struct {
	*sim.Result
	Recompute bool `json:"recompute"`
}

// RenderResponse is the /v1/render reply.
type RenderResponse struct {
	Format string `json:"format"`
	// Content is the rendered timeline: ASCII text, an SVG document, or
	// Chrome-trace JSON (as a string, ready for chrome://tracing).
	Content string `json:"content"`
}

// SchedulesResponse is the /v1/schedules reply: the service's vocabulary.
type SchedulesResponse struct {
	Schemes     []string `json:"schemes"`
	Schedulers  []string `json:"schedulers"`
	ConcatModes []string `json:"concat_modes"`
	Models      []string `json:"models"`
	Platforms   []string `json:"platforms"`
}

// CacheTableJSON is one memo table's counters in /v1/stats.
type CacheTableJSON struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// EngineStatsJSON is the engine block of /v1/stats.
type EngineStatsJSON struct {
	Workers       int            `json:"workers"`
	CacheCapacity int            `json:"cache_capacity"`
	CacheHitRate  float64        `json:"cache_hit_rate"`
	Schedules     CacheTableJSON `json:"schedules"`
	Criticals     CacheTableJSON `json:"criticals"`
	Outcomes      CacheTableJSON `json:"outcomes"`
}

// NewEngineStats encodes an engine snapshot.
func NewEngineStats(workers int, st engine.Stats) EngineStatsJSON {
	return EngineStatsJSON{
		Workers:       workers,
		CacheCapacity: st.Capacity,
		CacheHitRate:  st.HitRate(),
		Schedules:     CacheTableJSON{st.ScheduleHits, st.ScheduleMisses, st.ScheduleEvictions, st.ScheduleEntries},
		Criticals:     CacheTableJSON{st.CriticalHits, st.CriticalMisses, st.CriticalEvictions, st.CriticalEntries},
		Outcomes:      CacheTableJSON{st.OutcomeHits, st.OutcomeMisses, st.OutcomeEvictions, st.OutcomeEntries},
	}
}

// RequestCounts are per-endpoint admitted-request counters in /v1/stats.
type RequestCounts struct {
	Plan          uint64 `json:"plan"`
	PlanBatch     uint64 `json:"plan_batch"`
	FleetPlan     uint64 `json:"fleet_plan"`
	FleetSimulate uint64 `json:"fleet_simulate"`
	Simulate      uint64 `json:"simulate"`
	Analyze       uint64 `json:"analyze"`
	Schedules     uint64 `json:"schedules"`
	Render        uint64 `json:"render"`
	Health        uint64 `json:"healthz"`
	Ready         uint64 `json:"readyz"`
	Stats         uint64 `json:"stats"`
	CacheSnapshot uint64 `json:"cache_snapshot"`
}

// StatsResponse is the /v1/stats reply.
type StatsResponse struct {
	Requests RequestCounts `json:"requests"`
	// Shed counts requests rejected with 429 by admission control.
	Shed uint64 `json:"shed"`
	// ClientErrors counts 4xx replies other than 429; ServerErrors 5xx.
	ClientErrors uint64 `json:"client_errors"`
	ServerErrors uint64 `json:"server_errors"`
	// MaxInflight is the admission-control bound on concurrently executing
	// heavy requests.
	MaxInflight int `json:"max_inflight"`
	// PlanCache is the service-level memo of encoded /v1/plan responses;
	// FleetCache the same for /v1/fleet/plan and FleetSimCache for
	// /v1/fleet/simulate.
	PlanCache     CacheTableJSON  `json:"plan_cache"`
	FleetCache    CacheTableJSON  `json:"fleet_cache"`
	FleetSimCache CacheTableJSON  `json:"fleet_sim_cache"`
	Engine        EngineStatsJSON `json:"engine"`
	// Metrics embeds the observability registry's snapshot — every
	// counter and gauge by full series name, histograms as quantile
	// digests. Appended after the legacy fields, which are unchanged.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// ReadyResponse is the /readyz reply: the readiness half of the liveness/
// readiness split. Status is "ready" (HTTP 200) while the server accepts new
// work and "draining" (HTTP 503) from the moment graceful shutdown begins,
// so a router or load balancer stops sending new requests before the
// listener actually closes.
type ReadyResponse struct {
	Status string `json:"status"`
}

// SnapshotResponse is the POST /v1/cache/snapshot reply.
type SnapshotResponse struct {
	Path string `json:"path"`
	// Entries is how many cached responses the snapshot holds; Bytes the
	// on-disk file size including the header and checksum.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// HealthResponse is the /healthz reply: liveness plus the build identity
// and uptime an operator needs to tell which binary has been running for
// how long. Status stays "ok" for as long as the process can answer at all
// (liveness); it reports "draining" once graceful shutdown has begun —
// readiness proper lives on /readyz, which flips to 503 at that moment.
type HealthResponse struct {
	Status string `json:"status"`
	// Version is the module version, refined by the VCS revision when the
	// binary was built from a checkout (see BuildVersion).
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	// UptimeSeconds is the time since the Server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// DecodeStrict decodes JSON from r into v, rejecting unknown fields and
// trailing data — the strict-validation contract of every POST endpoint.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return fmt.Errorf("invalid request body: trailing data after JSON object")
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
