// Package pipeline executes pipeline schedules for real: every worker is a
// goroutine running its per-worker op program over the in-process
// communicator, exchanging activations and boundary gradients exactly as
// the schedule dictates, synchronizing weight gradients with allreduce
// across stage replicas and data-parallel copies, and applying a
// deterministic optimizer step.
//
// This is the executable form of the paper's synchronization argument: for
// every synchronous schedule (Chimera, GPipe, DAPPLE, GEMS) the resulting
// gradients equal those of sequential mini-batch SGD on the same data — a
// property the tests check numerically. The PipeDream schedule runs on the
// same data plane under PipeDream's asynchronous rule (weight stashing and
// a step after every backward), the negative control: its result is not
// mini-batch SGD. The schedule's Synchronous flag picks the rule.
// Forward-doubling and backward-halving variants and PipeDream-2BW are
// simulator-only and are rejected here.
package pipeline

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"chimera/internal/collective"
	"chimera/internal/comm"
	"chimera/internal/data"
	"chimera/internal/nn"
	"chimera/internal/optim"
	"chimera/internal/schedule"
	"chimera/internal/tensor"
)

// ModelSpec describes the (small) transformer trained by the runtime.
type ModelSpec struct {
	Vocab, Dim, Heads, SeqLen, Layers int
	Seed                              int64
}

// Validate checks the spec against a pipeline depth.
func (m ModelSpec) Validate(d int) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"Vocab", m.Vocab}, {"Dim", m.Dim}, {"Heads", m.Heads}, {"SeqLen", m.SeqLen}, {"Layers", m.Layers}} {
		if f.v < 1 {
			return fmt.Errorf("pipeline: ModelSpec.%s must be ≥ 1, got %d", f.name, f.v)
		}
	}
	if m.Layers%d != 0 {
		return fmt.Errorf("pipeline: %d layers do not split into %d stages", m.Layers, d)
	}
	if m.Dim%m.Heads != 0 {
		return fmt.Errorf("pipeline: dim %d not divisible by heads %d", m.Dim, m.Heads)
	}
	return nil
}

// checkBatch refuses a batch the model cannot consume: every sequence's
// tokens and targets must be SeqLen long and every target id in
// [0, Vocab). Token ids need no check: the embedding maps an unknown id to
// id 0. Run before any worker starts, it keeps a bad batch from panicking
// one worker while its peers wait on it.
func (m ModelSpec) checkBatch(b *data.Batch) error {
	if len(b.Targets) != len(b.Tokens) {
		return fmt.Errorf("pipeline: batch has %d target rows for %d sequences", len(b.Targets), len(b.Tokens))
	}
	for i, toks := range b.Tokens {
		if len(toks) != m.SeqLen || len(b.Targets[i]) != m.SeqLen {
			return fmt.Errorf("pipeline: sequence %d has %d tokens and %d targets, need SeqLen = %d",
				i, len(toks), len(b.Targets[i]), m.SeqLen)
		}
		for _, id := range b.Targets[i] {
			if id < 0 || id >= m.Vocab {
				return fmt.Errorf("pipeline: sequence %d has target id %d, outside [0, Vocab = %d)", i, id, m.Vocab)
			}
		}
	}
	return nil
}

// Config configures a Trainer.
type Config struct {
	// Schedule is a synchronous schedule or PipeDream's; PipeDream
	// rejects EagerSync, ZeROShard, Compression and Recompute.
	Schedule *schedule.Schedule
	// W is the number of data-parallel pipeline copies; total workers are
	// W·D.
	W    int
	Spec ModelSpec
	// MicroBatch is the number of sequences per micro-batch.
	MicroBatch int
	// NewOptimizer constructs the per-stage optimizer (one instance per
	// stage replica; determinism keeps replicas consistent).
	NewOptimizer func() optim.Optimizer
	// Recompute enables activation recomputation inside stages.
	Recompute bool
	// EagerSync launches per-stage nonblocking allreduces as soon as a
	// stage's gradients are complete (§3.2); otherwise gradients are
	// synchronized after local compute.
	EagerSync bool
	// ZeROShard enables ZeRO-1-style optimizer-state sharding across each
	// stage's holders (the memory extension the paper's §2 defers to
	// future work); numerically identical to the unsharded update.
	ZeROShard bool
	// Compression selects lossy gradient synchronization (the paper's
	// stated next step: quantization and sparsification). Lossy sync is
	// allgather-based and deterministic, so replicas stay consistent;
	// incompatible with EagerSync.
	Compression CompressionKind
	// TopKRatio is the kept fraction for CompressTopK (default 0.01).
	TopKRatio float64
}

// CompressionKind selects the gradient codec.
type CompressionKind int

const (
	// CompressNone synchronizes exact fp32 gradients (allreduce).
	CompressNone CompressionKind = iota
	// CompressInt8 exchanges QSGD-style 8-bit quantized gradients.
	CompressInt8
	// CompressTopK exchanges top-k sparsified gradients.
	CompressTopK
)

// Trainer owns the worker state for iterated training.
type Trainer struct {
	cfg      Config
	d, w     int
	p2p      *comm.World
	arWorlds []*comm.World                           // one per stage, for concurrent eager allreduces
	groups   []collective.Group                      // stage -> participating ranks
	stages   map[int]map[int]*nn.Stage               // rank -> replica -> stage module
	opts     map[int]map[int]optim.Optimizer         // rank -> replica -> optimizer
	place    map[int]map[int]schedule.StagePlacement // rank -> replica -> placement
	iter     int
	// maxStash is the deepest weight-version stash each rank held under
	// PipeDream: Table 2's min(N, D−p) versions on worker p.
	maxStash []int
	// failed is the worker failure that ended an iteration. Its worlds are
	// aborted and its workers' state is torn mid-iteration, so every later
	// TrainIteration refuses with it.
	failed error
}

// New builds a Trainer: W·D workers, stage modules with replica-consistent
// initialization, and allreduce groups per stage.
func New(cfg Config) (*Trainer, error) {
	s := cfg.Schedule
	if s == nil {
		return nil, fmt.Errorf("pipeline: nil schedule")
	}
	if s.DoubledForward || s.HalvedBackward {
		return nil, fmt.Errorf("pipeline: %s forward-doubling/backward-halving schedules are simulator-only", s.Scheme)
	}
	if !s.Synchronous {
		if s.Scheme != "pipedream" {
			return nil, fmt.Errorf("pipeline: asynchronous scheme %s is simulator-only; the runtime implements PipeDream's weight stashing", s.Scheme)
		}
		if cfg.EagerSync || cfg.ZeROShard || cfg.Compression != CompressNone || cfg.Recompute {
			return nil, fmt.Errorf("pipeline: eager sync, ZeRO sharding, compression and recomputation are synchronous-only, not for %s", s.Scheme)
		}
	}
	if cfg.W < 1 {
		return nil, fmt.Errorf("pipeline: W must be ≥1")
	}
	if cfg.MicroBatch < 1 {
		return nil, fmt.Errorf("pipeline: MicroBatch must be ≥ 1, got %d", cfg.MicroBatch)
	}
	if err := cfg.Spec.Validate(s.D); err != nil {
		return nil, err
	}
	if cfg.NewOptimizer == nil {
		cfg.NewOptimizer = func() optim.Optimizer { return &optim.SGD{LR: 0.1} }
	}
	if cfg.Compression != CompressNone && cfg.EagerSync {
		return nil, fmt.Errorf("pipeline: compressed gradient sync is post-hoc only")
	}
	if cfg.TopKRatio == 0 {
		cfg.TopKRatio = 0.01
	}
	t := &Trainer{
		cfg: cfg, d: s.D, w: cfg.W,
		p2p:      comm.NewWorld(cfg.W * s.D),
		stages:   make(map[int]map[int]*nn.Stage),
		opts:     make(map[int]map[int]optim.Optimizer),
		place:    make(map[int]map[int]schedule.StagePlacement),
		maxStash: make([]int, cfg.W*s.D),
	}
	for st := 0; st < s.D; st++ {
		t.arWorlds = append(t.arWorlds, comm.NewWorld(cfg.W*s.D))
		var ranks []int
		for copyIdx := 0; copyIdx < cfg.W; copyIdx++ {
			for _, rm := range s.Replicas {
				ranks = append(ranks, copyIdx*s.D+rm.WorkerOf[st])
			}
		}
		slices.Sort(ranks)
		t.groups = append(t.groups, collective.NewGroup(slices.Compact(ranks)...))
	}
	for copyIdx := 0; copyIdx < cfg.W; copyIdx++ {
		for w := 0; w < s.D; w++ {
			rank := copyIdx*s.D + w
			t.stages[rank] = make(map[int]*nn.Stage)
			t.opts[rank] = make(map[int]optim.Optimizer)
			t.place[rank] = make(map[int]schedule.StagePlacement)
			for _, pl := range s.StagesOn(w) {
				st := buildStage(cfg.Spec, s.D, pl.Stage)
				st.Recompute = cfg.Recompute
				t.stages[rank][pl.Replica] = st
				t.opts[rank][pl.Replica] = cfg.NewOptimizer()
				t.place[rank][pl.Replica] = pl
			}
		}
	}
	return t, nil
}

// buildStage constructs the layers of one pipeline stage with
// stage-deterministic initialization (replicas of a stage start identical).
func buildStage(spec ModelSpec, d, stageIdx int) *nn.Stage {
	perStage := spec.Layers / d
	var layers []nn.Layer
	if stageIdx == 0 {
		layers = append(layers, nn.NewEmbedding(fmt.Sprintf("s%d.emb", stageIdx), spec.Vocab, spec.Dim, spec.SeqLen))
	}
	for l := 0; l < perStage; l++ {
		layers = append(layers, nn.NewTransformerBlock(fmt.Sprintf("s%d.blk%d", stageIdx, l), spec.Dim, spec.Heads, spec.SeqLen))
	}
	if stageIdx == d-1 {
		layers = append(layers, nn.NewLayerNorm(fmt.Sprintf("s%d.lnf", stageIdx), spec.Dim))
		layers = append(layers, nn.NewLinear(fmt.Sprintf("s%d.head", stageIdx), spec.Dim, spec.Vocab))
	}
	nn.InitWeights(layers, spec.Seed+int64(stageIdx)*1000003)
	return nn.NewStage(stageIdx, layers...)
}

// TrainIteration runs one training iteration over batch, which must contain
// exactly MicroBatch·N·W sequences of SeqLen tokens and targets, every
// target id in [0, Vocab). Returns the mean loss.
func (t *Trainer) TrainIteration(batch *data.Batch) (float64, error) {
	if t.failed != nil {
		return 0, fmt.Errorf("pipeline: an earlier iteration failed: %w", t.failed)
	}
	s := t.cfg.Schedule
	need := t.cfg.MicroBatch * s.N * t.w
	if batch.Sequences() != need {
		return 0, fmt.Errorf("pipeline: batch has %d sequences, need B·N·W = %d", batch.Sequences(), need)
	}
	if err := t.cfg.Spec.checkBatch(batch); err != nil {
		return 0, err
	}
	// Per-rank loss slots summed in rank order: a sum in completion order
	// would make the loss's last bits depend on goroutine scheduling.
	losses := make([]float64, t.w*t.d)
	errs := make([]error, t.w*t.d)
	var wg sync.WaitGroup
	for copyIdx := 0; copyIdx < t.w; copyIdx++ {
		for w := 0; w < t.d; w++ {
			wg.Add(1)
			go func(copyIdx, w int) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						// Its peers may be waiting on this worker's messages
						// or on a barrier: abort every world so they stop.
						t.abort()
						err, ok := r.(error)
						if !ok {
							err = fmt.Errorf("%v", r)
						}
						errs[copyIdx*t.d+w] = fmt.Errorf("worker (%d,%d): %w", copyIdx, w, err)
					}
				}()
				losses[copyIdx*t.d+w] = t.runWorker(copyIdx, w, batch)
			}(copyIdx, w)
		}
	}
	wg.Wait()
	if err := firstFailure(errs); err != nil {
		t.failed = err
		return 0, err
	}
	t.iter++
	var total float64
	for _, l := range losses {
		total += l
	}
	return total / float64(s.N*t.w), nil
}

// abort ends every world the trainer's workers communicate over.
func (t *Trainer) abort() {
	t.p2p.Abort()
	for _, w := range t.arWorlds {
		w.Abort()
	}
}

// firstFailure picks an iteration's error from the per-rank slots: the
// lowest rank's own failure, not a peer's comm.ErrAborted that the failure
// caused; nil when no worker failed.
func firstFailure(errs []error) error {
	for _, err := range errs {
		if err != nil && !errors.Is(err, comm.ErrAborted) {
			return err
		}
	}
	return errors.Join(errs...)
}

// tag encodes a p2p message identity; iteration parity prevents adjacent
// iterations from aliasing.
func (t *Trainer) tag(kind schedule.Kind, micro, stage int) int {
	k := 0
	if kind == schedule.Backward {
		k = 1
	}
	return ((t.iter%2)*(1<<20) + (micro*(t.d+1)+stage)<<1) | k
}

// pendingAR is an eager allreduce in flight for one replica's gradients.
type pendingAR struct {
	handle *collective.Handle
	rep    int
	vec    []float32
}

// runWorker executes one worker's op program for the iteration. The data
// plane is the same for every schedule; the update rule is the schedule's.
// A synchronous schedule accumulates gradients over the iteration and
// synchronizes and steps at its end. PipeDream steps after every backward,
// on the weight version the micro-batch's forward saw.
func (t *Trainer) runWorker(copyIdx, w int, batch *data.Batch) float64 {
	s := t.cfg.Schedule
	rank := copyIdx*t.d + w
	c := t.p2p.Rank(rank)
	b := t.cfg.MicroBatch
	rows := b * t.cfg.Spec.SeqLen

	for _, st := range t.stages[rank] {
		st.ZeroGrads()
	}
	dlogits := make(map[int]*tensor.Tensor)
	var lossSum float64
	// A synchronous step averages over the mini-batch at the loss; PipeDream
	// steps on each micro-batch's own gradient.
	gradScale := float32(1)
	if s.Synchronous {
		gradScale /= float32(s.N * t.w)
	}
	stash := make(map[int][]float32) // PipeDream: micro-batch -> weight version

	// Track outstanding backward tokens per replica for eager sync.
	remainingB := make(map[int]int)
	for _, op := range s.Workers[w] {
		if op.Kind == schedule.Backward {
			remainingB[op.Replica] += len(op.Micros)
		}
	}
	var pending []pendingAR

	for _, op := range s.Workers[w] {
		rep := op.Replica
		stage := t.stages[rank][rep]
		rm := s.Replicas[rep]
		m := op.Micro()
		globalM := copyIdx*s.N + m
		switch op.Kind {
		case schedule.Forward:
			if !s.Synchronous {
				stash[m] = stage.WeightVector()
				t.maxStash[rank] = max(t.maxStash[rank], len(stash))
			}
			var x *tensor.Tensor
			if op.Stage == 0 {
				mb := batch.MicroBatch(globalM*b, (globalM+1)*b)
				x = tensor.FromSlice(mb.FlatTokens(), rows)
			} else {
				prev := copyIdx*t.d + rm.WorkerOf[op.Stage-1]
				payload := c.Recv(prev, t.tag(schedule.Forward, m, op.Stage))
				x = tensor.FromSlice(payload, rows, t.cfg.Spec.Dim)
			}
			y := stage.Forward(m, x)
			if op.Stage == s.D-1 {
				mb := batch.MicroBatch(globalM*b, (globalM+1)*b)
				loss, dl := nn.CrossEntropy(y.Reshape(rows, t.cfg.Spec.Vocab), mb.FlatTargets(), gradScale)
				lossSum += loss
				dlogits[m] = dl
			} else {
				next := copyIdx*t.d + rm.WorkerOf[op.Stage+1]
				c.Send(next, t.tag(schedule.Forward, m, op.Stage+1), y.Data)
			}
		case schedule.Backward:
			var dy *tensor.Tensor
			if op.Stage == s.D-1 {
				dy = dlogits[m]
				delete(dlogits, m)
			} else {
				next := copyIdx*t.d + rm.WorkerOf[op.Stage+1]
				payload := c.Recv(next, t.tag(schedule.Backward, m, op.Stage))
				dy = tensor.FromSlice(payload, rows, t.cfg.Spec.Dim)
			}
			var dx *tensor.Tensor
			if s.Synchronous {
				dx = stage.Backward(m, dy)
			} else {
				dx = stashedBackward(stage, stash, m, dy)
			}
			if op.Stage > 0 {
				prev := copyIdx*t.d + rm.WorkerOf[op.Stage-1]
				c.Send(prev, t.tag(schedule.Backward, m, op.Stage-1), dx.Data)
			}
			if !s.Synchronous {
				// PipeDream steps after every backward, on the gradient
				// averaged across the W pipeline copies.
				vec := stage.GradVector()
				collective.AllReduce(t.arWorlds[op.Stage].Rank(rank), t.groups[op.Stage], 0, vec)
				for i := range vec {
					vec[i] /= float32(t.w)
				}
				stage.SetGradVector(vec)
				t.opts[rank][rep].Step(stage.Params())
				continue
			}
			remainingB[rep] -= len(op.Micros)
			if t.cfg.EagerSync && remainingB[rep] == 0 {
				pl := t.place[rank][rep]
				vec := stage.GradVector()
				h := collective.IAllReduce(t.arWorlds[pl.Stage].Rank(rank), t.groups[pl.Stage], 0, vec)
				pending = append(pending, pendingAR{handle: h, rep: rep, vec: vec})
			}
		}
	}
	if s.Synchronous {
		t.syncAndStep(rank, pending)
	}
	c.Barrier()
	return lossSum
}

// stashedBackward runs micro-batch m's backward on fresh gradients and on
// the weight version stashed at its forward, then restores the current
// weights: PipeDream's version consistency (Narayanan et al. 2019).
func stashedBackward(stage *nn.Stage, stash map[int][]float32, m int, dy *tensor.Tensor) *tensor.Tensor {
	current := stage.WeightVector()
	stage.SetWeightVector(stash[m])
	delete(stash, m)
	stage.ZeroGrads()
	dx := stage.Backward(m, dy)
	stage.SetWeightVector(current)
	return dx
}

// syncAndStep ends a synchronous iteration on one rank: it sums every
// hosted replica's gradients across the stage's holders (§3.2/§3.3) and
// takes the optimizer steps.
func (t *Trainer) syncAndStep(rank int, pending []pendingAR) {
	if t.cfg.EagerSync {
		for _, p := range pending {
			p.handle.Wait()
			t.stages[rank][p.rep].SetGradVector(p.vec)
		}
	} else {
		// Ascending stage order on every worker: blocking collectives with
		// per-worker divergent orders (worker0 holds stage0 via the down
		// replica and stage D−1 via the up replica; worker D−1 the reverse)
		// would deadlock, so the global order must key on the stage.
		for _, rep := range replicasByStage(t.place[rank]) {
			pl := t.place[rank][rep]
			stage := t.stages[rank][rep]
			if t.cfg.Compression != CompressNone {
				t.compressedSync(rank, pl.Stage, stage)
				continue
			}
			vec := stage.GradVector()
			collective.AllReduce(t.arWorlds[pl.Stage].Rank(rank), t.groups[pl.Stage], 0, vec)
			stage.SetGradVector(vec)
		}
	}
	// Optimizer steps in ascending-stage order (sharded steps allgather
	// within the stage group and must not interleave across groups).
	for _, rep := range replicasByStage(t.place[rank]) {
		pl := t.place[rank][rep]
		stage := t.stages[rank][rep]
		if t.cfg.ZeROShard {
			shardedStep(t.arWorlds[pl.Stage].Rank(rank), t.groups[pl.Stage], t.opts[rank][rep], stage)
		} else {
			t.opts[rank][rep].Step(stage.Params())
		}
	}
}

// StageWeights returns the weight vector of one stage from holder idx in
// its group (for replica-consistency checks).
func (t *Trainer) StageWeights(stage, holderIdx int) []float32 {
	rank := t.groups[stage].Ranks[holderIdx%t.groups[stage].Size()]
	for rep, pl := range t.place[rank] {
		if pl.Stage == stage {
			return t.stages[rank][rep].WeightVector()
		}
	}
	return nil
}

// replicasByStage orders a worker's replica ids by the stage each one hosts
// here, ascending — the deadlock-free global collective order.
func replicasByStage(m map[int]schedule.StagePlacement) []int {
	return slices.SortedFunc(maps.Keys(m), func(a, b int) int { return cmp.Compare(m[a].Stage, m[b].Stage) })
}
