package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// SyncStrategy selects how gradient allreduces are scheduled (§3.2).
type SyncStrategy int

const (
	// SyncEagerOpt launches allreduces eagerly only for stages whose
	// gradients finish early enough to hide in bubbles and trailing
	// compute; middle stages synchronize after local compute. The paper's
	// default ("eager-sync-opt").
	SyncEagerOpt SyncStrategy = iota
	// SyncEager launches every stage's allreduce eagerly, paying
	// progression interference on the critical path ("eager-sync").
	SyncEager
	// SyncPostHoc synchronizes all stages after local compute (Fig. 4a).
	SyncPostHoc
)

func (s SyncStrategy) String() string {
	switch s {
	case SyncEagerOpt:
		return "eager-sync-opt"
	case SyncEager:
		return "eager-sync"
	default:
		return "post-hoc"
	}
}

// Config describes one simulated training configuration.
type Config struct {
	Model model.Config
	// Schedule is the pipeline program; its D must divide Model.Layers.
	Schedule *schedule.Schedule
	// MicroBatch is B, the micro-batch size.
	MicroBatch int
	// W is the number of data-parallel pipeline replicas.
	W int
	// Recompute enables activation recomputation (backward = 3× forward,
	// boundary-only activation residency).
	Recompute bool
	// Sync selects the gradient synchronization strategy.
	Sync SyncStrategy
	// Allreduce selects the collective cost model.
	Allreduce AllReduceAlg
	// Interference is the progression-overhead fraction charged when an
	// eager allreduce overlaps compute with no bubble (η in DESIGN.md;
	// the asynchronous-progress cost of §3.2). Default 0.15.
	Interference float64
	// ZeRO enables ZeRO-1-style optimizer-state sharding across each
	// stage's holder group in the memory model (the paper's §2 future-work
	// direction); adds one parameter allgather per stage to sync time.
	ZeRO bool
	// CompressionFactor scales the gradient bytes moved by allreduce
	// (sparsification/quantization, the paper's conclusion): 0 or 1 means
	// exact fp32; int8 ≈ 0.26; top-1% ≈ 0.02.
	CompressionFactor float64
	// SpeedFactors models a heterogeneous cluster: SpeedFactors[w] is the
	// per-op compute-time multiplier of pipeline worker w (1 = nominal,
	// 2 = a 2× slower straggler). Empty means homogeneous. When set, the
	// length must equal the schedule's D and every factor must lie in
	// [MinSpeedFactor, MaxSpeedFactor]. Factors scale compute only, not
	// p2p or allreduce. The slice may be shared between configs (the
	// engine interns decoded factor strings); it is never mutated here.
	SpeedFactors []float64

	Device  Device
	Network Network
}

// speedFactor returns worker w's compute-time multiplier (1 when
// homogeneous). Multiplying by the 1.0 default is exact in IEEE arithmetic,
// so a homogeneous run is bit-identical to one with no factors set.
func (c *Config) speedFactor(w int) float64 {
	if len(c.SpeedFactors) == 0 {
		return 1
	}
	return c.SpeedFactors[w]
}

// Result summarizes one simulated training iteration.
type Result struct {
	// IterTime is the wall-clock seconds of one training iteration.
	IterTime float64 `json:"iter_time"`
	// Throughput is sequences per second: B·N·W / IterTime.
	Throughput float64 `json:"throughput"`
	// BubbleRatio is idle worker time over total worker time (compute part).
	BubbleRatio float64 `json:"bubble_ratio"`
	// ComputeSpan is the makespan of the compute+p2p part.
	ComputeSpan float64 `json:"compute_span"`
	// SyncTime is the additional (unoverlapped) gradient sync time on the
	// slowest worker.
	SyncTime float64 `json:"sync_time"`
	// PeakMemBytes is per-worker peak memory.
	PeakMemBytes []int64 `json:"peak_mem_bytes"`
	// OOM reports whether any worker exceeds device memory.
	OOM bool `json:"oom"`
	// MiniBatch is B·N·W, the effective mini-batch size B̂.
	MiniBatch int `json:"mini_batch"`
}

const timeQuantum = 1e-9 // replay integer unit: one nanosecond

// Run simulates one training iteration.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := cfg.Schedule
	rc := cfg.replayConfig()
	ro, err := s.Readout(rc)
	if err != nil {
		return nil, err
	}
	defer ro.Release()
	res := &Result{
		BubbleRatio:  ro.BubbleRatio(),
		ComputeSpan:  float64(ro.Makespan()) * timeQuantum,
		PeakMemBytes: PeakMemory(&cfg),
		MiniBatch:    cfg.MicroBatch * s.N * cfg.W,
	}
	for _, m := range res.PeakMemBytes {
		if m > cfg.Device.MemBytes {
			res.OOM = true
		}
	}

	var iterEnd float64
	if s.Synchronous {
		iterEnd = syncFinish(&cfg, ro)
	} else {
		iterEnd = asyncFinish(&cfg, rc, ro)
	}
	res.IterTime = iterEnd
	span := res.ComputeSpan
	if span <= 0 {
		span = timeQuantum
	}
	res.SyncTime = iterEnd - span
	if res.SyncTime < 0 {
		res.SyncTime = 0
	}
	res.Throughput = float64(res.MiniBatch) / res.IterTime
	return res, nil
}

var errNilSchedule = errors.New("sim: nil schedule")

// Validate checks cfg and fills in its defaults (interference, device,
// network) in place: the one rule for what Run, the memory model and
// perfmodel.Predict accept.
func (cfg *Config) Validate() error {
	if cfg.Schedule == nil {
		return errNilSchedule
	}
	return validateFor(cfg, cfg.Schedule.D)
}

// validateFor checks (and defaults) everything about cfg that does not need
// the schedule itself, only its depth d — last, that the model splits into
// d stages.
func validateFor(cfg *Config, d int) error {
	if cfg.MicroBatch < 1 {
		return fmt.Errorf("sim: micro-batch must be ≥1, got %d", cfg.MicroBatch)
	}
	if cfg.W < 1 {
		return fmt.Errorf("sim: W must be ≥1, got %d", cfg.W)
	}
	if cfg.Interference == 0 {
		cfg.Interference = 0.15
	}
	if len(cfg.SpeedFactors) != 0 {
		if len(cfg.SpeedFactors) != d {
			return fmt.Errorf("sim: %d speed factors for D=%d workers (lengths must match)",
				len(cfg.SpeedFactors), d)
		}
		if err := CheckSpeedFactors("speed_factors", cfg.SpeedFactors...); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	cfg.Device, cfg.Network = DefaultPlatform(cfg.Device, cfg.Network)
	return cfg.Model.CheckDepth(d)
}

func toQ(sec float64) int64 { return int64(math.Round(sec / timeQuantum)) }

// replayConfig prices the schedule's ops and cross-worker edges in replay
// units. The hooks are pure functions of an op's shape: the graph replay
// behind Run calls them once per shape, and the read-out tests hand the
// same config to the reference interpreter (internal/refinterp), which
// calls them once per op.
func (c *Config) replayConfig() schedule.ReplayConfig {
	d := c.Schedule.D
	return schedule.ReplayConfig{
		OpCost:   func(w int, op schedule.Op) int64 { return toQ(opSeconds(c, d, w, op)) },
		EdgeCost: func(op schedule.Op) int64 { return toQ(edgeSeconds(c, op)) },
	}
}

// opSeconds is the compute time of one schedule op on worker w of a depth-d
// pipeline: FLOPs over the device's effective rate at the op's effective
// batch size, scaled by the worker's speed factor (the heterogeneity seam).
// Doubled forwards run two micro-batches jointly (better efficiency);
// halved backwards run half a micro-batch (worse efficiency) — exactly the
// trade-offs of §3.5.
func opSeconds(cfg *Config, d, w int, op schedule.Op) float64 {
	st := cfg.Model.Stage(op.Stage, d)
	b := float64(cfg.MicroBatch)
	if op.Kind == schedule.Forward {
		b *= float64(len(op.Micros))
		flops := float64(st.FwdFLOPs(1)) * b
		return cfg.speedFactor(w) * flops / (cfg.Device.PeakFLOPS * cfg.Device.Efficiency(b))
	}
	if op.Half != 0 {
		b /= 2
	}
	mult := 2.0
	if cfg.Recompute {
		mult = 3.0
	}
	flops := mult * float64(st.FwdFLOPs(1)) * b * float64(len(op.Micros))
	return cfg.speedFactor(w) * flops / (cfg.Device.PeakFLOPS * cfg.Device.Efficiency(b))
}

// edgeSeconds is the p2p cost of the activation (or boundary-gradient)
// tensor crossing a stage boundary for this op.
func edgeSeconds(cfg *Config, op schedule.Op) float64 {
	b := float64(cfg.MicroBatch) * float64(len(op.Micros))
	if op.Half != 0 {
		b /= 2
	}
	bytes := int64(float64(cfg.Model.BoundaryBytes(1)) * b)
	return cfg.Network.P2PCost(bytes)
}

// syncFinish computes the iteration end time for synchronous schemes under
// the configured gradient synchronization strategy. Gradients of stage s are
// synchronized across all workers holding a replica of s and across the W
// data-parallel copies: r = replicas·W members (§3.3: local gradient size
// unchanged, member count grows with W).
func syncFinish(cfg *Config, ro *schedule.Readout) float64 {
	s := cfg.Schedule
	r := len(s.Replicas) * cfg.W
	var worst float64
	for w := 0; w < s.D; w++ {
		ce := float64(ro.ComputeEnd(w)) * timeQuantum
		// Collect this worker's allreduces sorted by gradient-ready time;
		// they serialize on the worker's single network interface. The sort
		// breaks ready-time ties on (stage, replica) so the launch order —
		// and therefore the result — is a total order (concurrent sweeps
		// compare results bit-for-bit).
		type arOp struct {
			ready, cost    float64
			stage, replica int
		}
		var ops []arOp
		cf := cfg.CompressionFactor
		if cf <= 0 || cf > 1 {
			cf = 1
		}
		for _, gr := range ro.GradReady(w) {
			bytes := int64(float64(cfg.Model.Stage(gr.Stage, s.D).Params()*4) * cf)
			ops = append(ops, arOp{
				ready:   float64(gr.At) * timeQuantum,
				cost:    cfg.Network.AllReduceCost(cfg.Allreduce, r, bytes),
				stage:   gr.Stage,
				replica: gr.Replica,
			})
		}
		sort.Slice(ops, func(i, j int) bool {
			a, b := ops[i], ops[j]
			if a.ready != b.ready {
				return a.ready < b.ready
			}
			if a.stage != b.stage {
				return a.stage < b.stage
			}
			return a.replica < b.replica
		})

		var total float64
		switch cfg.Sync {
		case SyncPostHoc:
			total = ce
			for _, op := range ops {
				total += op.cost
			}
		case SyncEager:
			// Every allreduce launches when its gradients are ready;
			// asynchronous progression of transfers that overlap active
			// compute charges interference on the critical path (§3.2's
			// threading/initialization overheads).
			nic, interference := 0.0, 0.0
			for _, op := range ops {
				start := math.Max(op.ready, nic)
				nic = start + op.cost
				if overlap := math.Min(ce, nic) - start; overlap > 0 {
					interference += cfg.Interference * overlap
				}
			}
			total = math.Max(nic, ce) + interference
		case SyncEagerOpt:
			// Eager only for stages with a meaningful bubble between
			// gradient completion and the end of local compute (the
			// non-middle stages of Fig. 4b); those launch into idle time,
			// hide partially, and pay no progression interference. Middle
			// stages — no bubble follows their gradients — synchronize
			// after local compute.
			nic := 0.0
			var postHoc float64
			for _, op := range ops {
				if slack := ce - op.ready; slack >= 0.25*op.cost {
					start := math.Max(op.ready, nic)
					nic = start + op.cost
				} else {
					postHoc += op.cost
				}
			}
			total = math.Max(nic, ce) + postHoc
		}
		if cfg.ZeRO {
			// ZeRO-1 pays a parameter allgather per stage after the sharded
			// update (~half an allreduce: one pass instead of two).
			for _, op := range ops {
				total += 0.5 * op.cost
			}
		}
		if total > worst {
			worst = total
		}
	}
	return worst
}

// asyncFinish models PipeDream-style schemes: no flush, so the iteration
// cost is the steady-state marginal time — measured honestly by replaying
// the same 1F1B program at 2N micro-batches and differencing the makespans
// (fill/drain amortize; unoverlapped p2p in the 1F1B chain, which §3.5
// notes cannot hide communication, stays on the cycle). Gradient
// synchronization adds per the scheme: PipeDream after every micro-batch
// backward across the W pipelines; PipeDream-2BW one accumulated allreduce,
// half-overlapped.
func asyncFinish(cfg *Config, rc schedule.ReplayConfig, ro *schedule.Readout) float64 {
	s := cfg.Schedule
	steady := float64(ro.Makespan()) * timeQuantum
	if doubled, err := schedule.ByName(s.Scheme, s.D, 2*s.N); err == nil {
		if ro2, err := doubled.Readout(rc); err == nil {
			steady = float64(ro2.Makespan()-ro.Makespan()) * timeQuantum
			ro2.Release()
		}
	}
	var worstSync float64
	for w := 0; w < s.D; w++ {
		var sync float64
		bytes := cfg.Model.Stage(w, s.D).Params() * 4 // single-pipeline placement: stage w on worker w
		switch s.Scheme {
		case "pipedream":
			// Per-micro-batch gradient synchronization across W replicas.
			sync = float64(s.N) * cfg.Network.AllReduceCost(cfg.Allreduce, cfg.W, bytes)
		default: // pipedream-2bw
			// One accumulated allreduce per iteration. The bubble-free
			// steady state leaves no idle compute to hide it (§4.2.3: 2BW
			// "may not have enough computation to fully overlap the
			// gradient synchronization overhead").
			sync = cfg.Network.AllReduceCost(cfg.Allreduce, cfg.W, bytes)
		}
		if sync > worstSync {
			worstSync = sync
		}
	}
	return steady + worstSync
}
