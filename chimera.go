// Package chimera is the public facade of this reproduction of
// "Chimera: Efficiently Training Large-Scale Neural Networks with
// Bidirectional Pipelines" (Li & Hoefler, SC'21).
//
// It exposes the four things a user composes:
//
//   - schedules — Chimera's bidirectional pipelines (including the
//     generalized 2f-pipeline form and the three N>D scaling methods) and
//     the baselines the paper evaluates against (GPipe, DAPPLE/1F1B, GEMS,
//     PipeDream, PipeDream-2BW);
//   - the cluster simulator — throughput/memory evaluation of any schedule
//     on calibrated Piz-Daint-like or V100-cluster-like platforms;
//   - the planner — the §3.4 performance model that picks (W, D, B);
//   - the training runtime — goroutine workers executing a schedule for
//     real on a pure-Go transformer: gradient-equivalent to sequential
//     mini-batch SGD on a synchronous schedule, PipeDream's weight
//     stashing on the pipedream schedule (one NewTrainer for both).
//
// See examples/quickstart for a guided tour and DESIGN.md for the
// system inventory.
package chimera

import (
	"io"

	"chimera/internal/data"
	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/optim"
	"chimera/internal/perfmodel"
	"chimera/internal/pipeline"
	"chimera/internal/schedule"
	"chimera/internal/serve"
	"chimera/internal/sim"
	"chimera/internal/trace"
)

// Re-exported schedule construction.
type (
	// Schedule is a per-worker pipeline program (see internal/schedule).
	Schedule = schedule.Schedule
	// ScheduleSpec is the unified schedule request for Build: scheme,
	// placement policy (scheduler), shape, and the policy's inputs.
	ScheduleSpec = schedule.Spec
	// ConcatMode selects the N > D scaling method (§3.5).
	ConcatMode = schedule.ConcatMode
	// CostModel supplies unit op costs for schedule analysis.
	CostModel = schedule.CostModel
	// Scheduler is a placement policy re-shaping schedules for
	// heterogeneous clusters (see Schedulers for the registered names).
	Scheduler = schedule.Scheduler
)

// Concatenation modes for Chimera beyond N = D micro-batches.
const (
	Direct          = schedule.Direct
	ForwardDoubling = schedule.ForwardDoubling
	BackwardHalving = schedule.BackwardHalving
)

// Build constructs the schedule a ScheduleSpec describes: the named scheme
// ("chimera", "gpipe", "dapple", "gems", "pipedream", "pipedream-2bw",
// "1f1b") re-placed by the named scheduler ("" or "fixed" keeps the scheme's
// own placement).
func Build(spec ScheduleSpec) (*Schedule, error) { return schedule.Build(spec) }

// Schemes lists the supported scheme names.
func Schemes() []string { return schedule.Schemes() }

// Schedulers lists the registered placement-policy names ("fixed" first) —
// the ScheduleSpec.Scheduler vocabulary, companion to Schemes.
func Schedulers() []string { return schedule.Schedulers() }

// Analyze computes bubble ratios and memory profiles (Table 2 units).
func Analyze(s *Schedule) (*schedule.Analysis, error) { return schedule.Analyze(s) }

// Simulation.
type (
	// SimConfig configures one simulated training run.
	SimConfig = sim.Config
	// SimResult is the simulated iteration outcome.
	SimResult = sim.Result
	// Device models an accelerator; Network an interconnect.
	Device  = sim.Device
	Network = sim.Network
	// ModelConfig describes a transformer for the simulator and planner.
	ModelConfig = model.Config
)

// Simulate runs one training iteration under the cluster simulator.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// SimulateAuto enables activation recomputation automatically when the
// plain configuration exceeds device memory (the paper's R annotation).
func SimulateAuto(cfg SimConfig) (*SimResult, bool, error) { return sim.AutoRun(cfg) }

// Platform presets.
func PizDaintNode() Device     { return sim.PizDaintNode() }
func AriesNetwork() Network    { return sim.AriesNetwork() }
func V100Node() Device         { return sim.V100Node() }
func NVLinkIBNetwork() Network { return sim.NVLinkIBNetwork() }

// Model zoo (paper Table 4).
func BERT48() ModelConfig      { return model.BERT48() }
func GPT2() ModelConfig        { return model.GPT2() }
func GPT2Small32() ModelConfig { return model.GPT2Small32() }

// Planning (§3.4).
type (
	// PlanRequest describes a configuration-selection problem.
	PlanRequest = perfmodel.PlanRequest
	// Prediction is the performance model's estimate for one configuration.
	Prediction = perfmodel.Prediction
)

// Plan ranks feasible (W, D, B) Chimera configurations by Eq. 1. The
// candidates are evaluated concurrently on e, whose pool size and caches the
// caller controls (e.g. NewEngine(1) for a serial reference); a nil engine
// selects the shared default.
func Plan(e *Engine, req PlanRequest) ([]*Prediction, error) {
	if e == nil {
		e = engine.Default()
	}
	return perfmodel.PlanOn(e, req)
}

// Predict evaluates Eq. 1 for one configuration.
func Predict(cfg SimConfig) (*Prediction, error) { return perfmodel.Predict(cfg) }

// Concurrent sweep engine (see internal/engine): a GOMAXPROCS worker pool
// with memoized schedule construction, critical-path counts, and simulator
// evaluations. Sweeps return outcomes in input order — identical to the
// serial path — regardless of pool size.
type (
	// Engine owns the worker pool and memoization tables.
	Engine = engine.Engine
	// SweepSpec describes one simulator evaluation as a comparable value.
	SweepSpec = engine.Spec
	// SweepOutcome is the (result, recompute, error) of one evaluation.
	SweepOutcome = engine.Outcome
	// SweepScheduleKey identifies a memoized schedule construction.
	SweepScheduleKey = engine.ScheduleKey
	// EngineStats snapshots cache hit/miss counters.
	EngineStats = engine.Stats
)

// DefaultEngine returns the process-wide shared engine used by Plan and the
// experiment sweeps.
func DefaultEngine() *Engine { return engine.Default() }

// NewEngine builds a private engine with the given worker-pool size
// (workers <= 0 selects GOMAXPROCS).
func NewEngine(workers int) *Engine { return engine.New(engine.Workers(workers)) }

// Sweep evaluates every spec concurrently on the shared engine and returns
// outcomes in input order.
func Sweep(specs []SweepSpec) []SweepOutcome { return engine.Default().Sweep(specs) }

// HTTP service layer (cmd/chimera-serve, internal/serve): the planner,
// simulator, schedule analysis and timeline rendering behind an HTTP/JSON
// API with admission control, bounded caches, and graceful shutdown.
type (
	// Server routes the /v1 API onto a shared evaluation engine.
	Server = serve.Server
	// ServeConfig configures NewServer: engine pool size, LRU cache
	// capacity, admission limit, drain timeout.
	ServeConfig = serve.Config
)

// NewServer builds the HTTP planning service. Serve it with
// (*Server).ListenAndServe (graceful shutdown on context cancel) or embed
// (*Server).Handler in an existing mux.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// Observability (internal/obs): the zero-dependency metrics core behind
// GET /metrics, /debug/requests and the engine/serve/fleet instrumentation.
type (
	// MetricsRegistry names, interns and renders metric series
	// (Prometheus text via WritePrometheus, JSON via Snapshot).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time JSON digest of a registry, as
	// embedded in /v1/stats responses.
	MetricsSnapshot = obs.Snapshot
)

// NewMetricsRegistry builds an empty metrics registry. Attach it to a
// private engine with engine.Observe, to a server via ServeConfig.Registry,
// or to a fleet allocator with (*FleetAllocator).Observe; instrumentation
// stays disabled — and free — on components without one.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Fleet planning (internal/fleet): multi-job cluster allocation on top of
// the planner, plus a deterministic discrete-event fleet simulator.
type (
	// FleetRequest is one fleet-allocation problem: a cluster, the jobs
	// competing for its nodes, and an allocation policy.
	FleetRequest = fleet.Request
	// FleetCluster describes the shared node pool (size, optional
	// per-node speed factors, platform).
	FleetCluster = fleet.Cluster
	// FleetJob is one job asking for nodes.
	FleetJob = fleet.Job
	// FleetAllocation is the per-job node shares and chosen plans.
	FleetAllocation = fleet.Allocation
	// FleetPolicy selects the allocator.
	FleetPolicy = fleet.Policy
	// FleetScenario is a cluster + job vocabulary + arrival trace for the
	// fleet simulator.
	FleetScenario = fleet.Scenario
	// FleetArrival is one trace event.
	FleetArrival = fleet.Arrival
	// FleetSimResult reports makespan, per-job waits, and utilization.
	FleetSimResult = fleet.SimResult
	// FleetAllocator runs repeated allocations with a shared plan memo.
	FleetAllocator = fleet.Allocator
	// FleetEvent is one elastic-trace event: a job arrival or node churn
	// (fail/drain/join).
	FleetEvent = fleet.Event
	// FleetEventKind names an elastic event type.
	FleetEventKind = fleet.EventKind
	// FleetElasticScenario is a cluster + job vocabulary + churn-bearing
	// event trace for the elastic fleet simulator.
	FleetElasticScenario = fleet.ElasticScenario
	// FleetElasticResult reports the elastic replay: makespan, churn and
	// migration counters, the pinned event log, and the final allocation.
	FleetElasticResult = fleet.ElasticResult
	// FleetReplanMode selects incremental or full re-planning on events.
	FleetReplanMode = fleet.ReplanMode
)

// Fleet allocation policies.
const (
	FleetEqualSplit    = fleet.EqualSplit
	FleetPlannerGuided = fleet.PlannerGuided
)

// Elastic-trace event kinds and re-plan modes.
const (
	FleetArrivalEvent      = fleet.EvArrival
	FleetNodeFail          = fleet.EvNodeFail
	FleetNodeDrain         = fleet.EvNodeDrain
	FleetNodeJoin          = fleet.EvNodeJoin
	FleetReplanIncremental = fleet.ReplanIncremental
	FleetReplanFull        = fleet.ReplanFull
)

// PlanFleet allocates cluster nodes across competing jobs and picks each
// job's (W, D, B) with the §3.4 planner, maximizing Σ priority·throughput.
// Runs on the shared engine; deterministic at any pool size.
// For another engine, use NewFleetAllocator(e).Allocate.
func PlanFleet(req FleetRequest) (*FleetAllocation, error) {
	return fleet.NewAllocator(nil).Allocate(req)
}

// SimulateFleet replays a job arrival/departure trace as a deterministic
// discrete-event simulation: the elastic simulator fed arrivals only,
// re-planning in full at every event.
func SimulateFleet(sc FleetScenario) (*FleetSimResult, error) {
	return fleet.NewAllocator(nil).Simulate(sc)
}

// SimulateFleetElastic replays an elastic trace — arrivals plus node
// failures, drains, and joins — re-planning incrementally on every event
// with migration-cost-aware preemption and deadline-aware priority aging.
// Bit-deterministic at any engine pool size.
func SimulateFleetElastic(sc FleetElasticScenario) (*FleetElasticResult, error) {
	return fleet.NewAllocator(nil).SimulateElastic(sc)
}

// NewFleetAllocator builds an allocator that reuses one plan memo across
// many allocations (nil engine selects the shared default).
func NewFleetAllocator(e *Engine) *FleetAllocator { return fleet.NewAllocator(e) }

// Real training runtime.
type (
	// Trainer executes a schedule with goroutine workers on a pure-Go
	// transformer.
	Trainer = pipeline.Trainer
	// TrainerConfig configures New.
	TrainerConfig = pipeline.Config
	// ModelSpec describes the trained transformer.
	ModelSpec = pipeline.ModelSpec
	// Reference is the sequential mini-batch SGD baseline.
	Reference = pipeline.Reference
	// Batch is a mini-batch of token sequences.
	Batch = data.Batch
	// Optimizer applies a first-order update rule.
	Optimizer = optim.Optimizer
)

// NewTrainer builds the distributed training runtime for a schedule. The
// schedule picks the update rule: a synchronous schedule steps once per
// iteration on synchronized gradients; PipeDream steps after every
// micro-batch's backward on its stashed weight version.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) { return pipeline.New(cfg) }

// NewReference builds the sequential baseline with identical weights.
func NewReference(spec ModelSpec, d, microBatch int, newOpt func() Optimizer) (*Reference, error) {
	return pipeline.NewReference(spec, d, microBatch, newOpt)
}

// NewStream creates a deterministic synthetic token stream.
func NewStream(vocab, seqLen int, seed int64) *data.Stream {
	return data.NewStream(vocab, seqLen, seed)
}

// SGD, Momentum and Adam optimizers.
func NewSGD(lr float64) Optimizer          { return &optim.SGD{LR: lr} }
func NewMomentum(lr, mu float64) Optimizer { return &optim.Momentum{LR: lr, Mu: mu} }
func NewAdam(lr float64) Optimizer         { return optim.NewAdam(lr) }

// RenderASCII draws a schedule timeline (Figs. 2/3/7/8 style).
func RenderASCII(s *Schedule, cm CostModel) (string, error) { return trace.ASCII(s, cm) }

// WriteChromeTrace writes the replayed schedule as Chrome-trace JSON.
func WriteChromeTrace(w io.Writer, s *Schedule, cm CostModel) error {
	raw, err := trace.ChromeTrace(s, cm)
	if err != nil {
		return err
	}
	_, err = w.Write(raw)
	return err
}

// Unit cost models for analysis.
var (
	// UnitEqual: forward == backward == 1 (construction figures).
	UnitEqual = schedule.UnitEqual
	// UnitPractical: backward = 2× forward (practical workloads).
	UnitPractical = schedule.UnitPractical
)

// CompressionKind selects the lossy gradient codec for TrainerConfig (the
// paper's conclusion names quantization and sparsification as next steps).
type CompressionKind = pipeline.CompressionKind

// Gradient compression codecs for TrainerConfig.Compression.
const (
	CompressNone = pipeline.CompressNone
	CompressInt8 = pipeline.CompressInt8
	CompressTopK = pipeline.CompressTopK
)
