package schedule

import "fmt"

// ConcatMode selects how Chimera scales past N = D micro-batches (§3.5).
type ConcatMode int

const (
	// Direct concatenates basic scheduling units; with backward ≈ 2×
	// forward this leaves intermediate bubbles that in practice absorb p2p
	// communication.
	Direct ConcatMode = iota
	// ForwardDoubling runs two micro-batches per forward pass (double
	// activation memory, usually paired with recomputation).
	ForwardDoubling
	// BackwardHalving keeps the doubled-forward schedule shape but halves
	// the micro-batch size instead (no extra activation memory, lower
	// compute efficiency).
	BackwardHalving
)

func (m ConcatMode) String() string {
	switch m {
	case Direct:
		return "direct"
	case ForwardDoubling:
		return "forward-doubling"
	case BackwardHalving:
		return "backward-halving"
	default:
		return fmt.Sprintf("ConcatMode(%d)", int(m))
	}
}

// ChimeraConfig parameterizes the Chimera generator.
type ChimeraConfig struct {
	// D is the number of pipeline stages; must be even (paper assumption).
	D int
	// N is the number of micro-batches per worker per iteration.
	N int
	// F is the number of pipelines per direction (default 1). 2F model
	// replicas are maintained; F must divide D/2.
	F int
	// Concat selects the N > D scaling method.
	Concat ConcatMode
}

// check rejects a configuration Chimera cannot build and returns its
// pipelines per direction (F = 0 means 1).
func (cfg ChimeraConfig) check() (int, error) {
	d, n, f := cfg.D, cfg.N, cfg.F
	if f == 0 {
		f = 1
	}
	if d < 2 || d%2 != 0 {
		return 0, fmt.Errorf("chimera: D must be even and ≥2, got %d", d)
	}
	if f < 1 {
		return 0, fmt.Errorf("chimera: F must be ≥1, got %d", f)
	}
	if (d/2)%f != 0 {
		return 0, fmt.Errorf("chimera: F=%d must divide D/2=%d", f, d/2)
	}
	if n < 1 {
		return 0, fmt.Errorf("chimera: N must be ≥1, got %d", n)
	}
	switch {
	case n <= d || cfg.Concat == Direct:
	case cfg.Concat == ForwardDoubling || cfg.Concat == BackwardHalving:
		if n%d != 0 {
			return 0, fmt.Errorf("chimera: %v needs N a multiple of D, got N=%d D=%d", cfg.Concat, n, d)
		}
	default:
		return 0, fmt.Errorf("chimera: unknown concat mode %v", cfg.Concat)
	}
	return f, nil
}

// Validate returns the error Chimera returns for cfg, or nil for a
// configuration it builds, without building anything.
func (cfg ChimeraConfig) Validate() error {
	_, err := cfg.check()
	return err
}

// closedForm reports whether cfg is in the closed forms' scope: one pipeline
// per direction (F ≤ 1) and direct concatenation past N = D, whose every op
// §3.1's slot formulas fix. ResidencyRow, CriticalPath, FreeRegions and
// ComputeMakespan answer for these configurations and for no other: F > 1,
// forward doubling and backward halving build the schedule and walk it.
func (cfg ChimeraConfig) closedForm() bool {
	return cfg.F <= 1 && (cfg.N <= cfg.D || cfg.Concat == Direct)
}

// ResidencyRow returns worker w's one Pareto row of the residency profile
// of the schedule Chimera builds for cfg, in half-micro-batch units: down
// resident units of its down stage w and up of its up stage D−1−w (worker
// w hosts exactly those two placements). With n = min(N, D) the row is
// [2·min(⌈n/2⌉, D−w), 2·min(⌊n/2⌋, w+1)]. DESIGN.md §3 item 4 derives it:
// a placement's backwards trail its forwards by a fixed lag, so its count
// is the forwards of the last lag slots, and the first unit reaches both
// maxima at once. For N ≥ D a worker's peak is D/2 + min(D/2, w+1, D−w)
// micro-batches, Table 2's range of (D/2 + 1)·Ma to D·Ma.
//
// It checks nothing and allocates nothing: cfg must be valid and in the
// closed forms' scope (closedForm), and 0 ≤ w < D. A memory fit that tries
// many N at one depth reads the rows here instead of building a profile per
// N. The oracle sweep (TestChimeraClosedForms) and FuzzResidencyClosedForm
// hold the profile built from these rows to the walk of the schedule.
func (cfg ChimeraConfig) ResidencyRow(w int) (down, up int32) {
	n := min(cfg.N, cfg.D)
	return int32(2 * min((n+1)/2, cfg.D-w)), int32(2 * min(n/2, w+1))
}

// CriticalPath returns the (Cf, Cb) that CriticalPath probes on the schedule
// Chimera builds for cfg, without building it; ok is false outside the
// closed forms' scope (closedForm). Invalid configurations return Chimera's
// error.
//
// With k = ⌊(N−1)/D⌋ units before the last, j = N − kD ∈ [1, D]
// micro-batches in the last and h = ⌈j/2⌉ of them on its down pipeline, one
// unit (k = 0) has Cf = D and Cb = D − 2 + 2h (Fig. 6: D = N = 6 gives
// (6, 10)), and k ≥ 1 further units add 2k forwards and 2k(D − 1)
// backwards, less one forward if j ≤ D − 2. At k ≥ 1 and j = D − 3 or D − 2
// two paths are equally long under the first probe, and the second reports
// the one with two more forwards and one backward fewer. The form is
// tabulated from the probe, not derived: the oracle sweep
// (TestChimeraClosedForms) and FuzzCriticalClosedForm hold it there.
func (cfg ChimeraConfig) CriticalPath() (cf, cb int, ok bool, err error) {
	if _, err := cfg.check(); err != nil || !cfg.closedForm() {
		return 0, 0, false, err
	}
	d := cfg.D
	k := (cfg.N - 1) / d
	j := cfg.N - k*d
	cf, cb = d+2*k, d-2+2*((j+1)/2)+2*k*(d-1)
	switch {
	case k == 0 || j >= d-1:
	case j >= d-3:
		cf, cb = cf+1, cb-1
	default:
		cf--
	}
	return cf, cb, true, nil
}

// FreeRegions returns the free regions that the replay of Chimera's schedule
// for cfg under cm reads ((*Readout).FreeRegions), without building or
// replaying that schedule; ok is false outside the closed forms' scope
// (closedForm), or for any cost model but Eq. 1's unit costs — a
// backward of two or three forwards and no p2p latency (FUnit > 0,
// BUnit = 2·FUnit or 3·FUnit, P2P = 0), the only ratios the form is
// checked at. Invalid configurations return Chimera's error. The table
// holds a few numbers and computes each worker's regions on demand
// (AppendWorker), so it allocates nothing.
//
// With F and B the forward and backward costs, k = ⌊(N−1)/D⌋ units before
// the last and j = N − kD ∈ [1, D] micro-batches in the last, h = ⌈j/2⌉ of
// them on the down pipeline and u = ⌊j/2⌋ on the up one, worker w's last
// down backward sits at slot 2D−1−w + 2(h−1) of the last unit and its last
// up backward at D+w + 2(u−1), x = 2w−D+1−2(h−u) slots later. The
// placement whose pipeline finishes first on w waits |x| backwards: down
// stage w if x > 0, up stage D−1−w otherwise, and the other has no slack.
// The waiting placement adds (c−1)(B−F) when its stage is at least
// D/2 − 1 + c, c being its pipeline's micro-batches in the last unit, and at
// k ≥ 1 and j = D−1 worker D−1's adds F. At k ≥ 1 and j = 1 the last unit
// is one down micro-batch: the up stage on w waits F + (2D−1−2w)·B, worker
// 0's (D/2−1)(B−F) more, and at D = 2 one more F. N = 1 has no up pipeline,
// and its one placement per worker no slack. So N and N + D have one table
// for N ≥ D (the oracle sweep's TestChimeraClosedForms/TestFreeRegionsPeriodic
// pins that on the replay for every even D ≤ 64 and 2D ≤ N ≤ 4D). The form
// is tabulated from the replay, as CriticalPath's is: the sweep's
// TestChimeraClosedForms/TestFreeRegionsClosedForm (every even D ≤ 64 and
// N ≤ 4D + 1, and the critical-path grid) and FuzzFreeRegionsClosedForm
// hold it there.
func (cfg ChimeraConfig) FreeRegions(cm CostModel) (f FreeRegions, ok bool, err error) {
	if _, err := cfg.check(); err != nil || !cfg.closedForm() || cm.P2P != 0 || cm.FUnit <= 0 || (cm.BUnit != 2*cm.FUnit && cm.BUnit != 3*cm.FUnit) {
		return FreeRegions{}, false, err
	}
	d, k := cfg.D, (cfg.N-1)/cfg.D
	j := cfg.N - k*d
	c := chimeraFree{d: d, b: cm.BUnit, downFrom: d}
	switch h, u, spill := (j+1)/2, j/2, cm.BUnit-cm.FUnit; {
	case k == 0 && j == 1:
		c.single = true
	case j == 1:
		c.gap, c.upBase, c.upFar = 2*d-1, cm.FUnit, int64(d/2-1)*spill
		if d == 2 {
			c.upBase += cm.FUnit
		}
	default:
		// At j = D−1, h = D/2 puts downFrom at D−1: worker D−1's extra F
		// rides its far term.
		c.gap = d - 1 + 2*(h-u)
		c.upTo, c.upFar = d/2-u, int64(u-1)*spill
		c.downFrom, c.downFar = d/2-1+h, int64(h-1)*spill
		if k > 0 && j == d-1 {
			c.downFar += cm.FUnit
		}
	}
	return FreeRegions{form: c}, true, nil
}

// ComputeCosts are the four op costs of a homogeneous Chimera replay with
// no p2p latency, Eq. 1's compute term: a forward and a backward pass on
// the body stages 0 … D−2, which carry equal FLOPs, and on the head stage
// D−1.
type ComputeCosts struct {
	F, B, HeadF, HeadB int64
}

// inCone reports whether c lies in the cone the compute form is proved on:
// 0 ≤ F ≤ HeadF, B ≥ 2F and HeadB ≥ 2·HeadF. Eq. 1's costs are in it: the
// head stage adds FLOPs to a body stage's, and a backward truncates two or
// three times its forward's float cost, which is at least twice the
// truncated forward.
func (c ComputeCosts) inCone() bool {
	return 0 <= c.F && c.F <= c.HeadF && 2*c.F <= c.B && 2*c.HeadF <= c.HeadB
}

// computePath is one path family of the compute form: how many body
// forwards and backwards and head passes of each kind the path runs.
type computePath struct{ f, b, h int64 }

func (p computePath) cost(c ComputeCosts) int64 {
	return p.f*c.F + p.b*c.B + p.h*(c.HeadF+c.HeadB)
}

// ComputeMakespan returns the makespan of the replay of Chimera's schedule
// for cfg under c — every body op costing c.F or c.B, every head op c.HeadF
// or c.HeadB, no p2p latency — without building or replaying that schedule;
// ok is false outside the closed forms' scope (closedForm), or for costs
// outside the cone inCone states. Invalid configurations return Chimera's
// error. It allocates nothing.
//
// With four costs and no edge cost the replay is a longest path: the largest
// over the schedule's paths of (count vector) · c. With k = ⌊(N−1)/D⌋ units
// before the last, j = N − kD ∈ [1, D] micro-batches in the last and
// h = ⌈j/2⌉ of them on its down pipeline, three paths cover the cone:
//
//   - through the backwards: D − 2 + k body forwards (D − 1 at k = 0, one
//     more at k ≥ 1 and j ≥ D − 1), D − 1 + k(2D − 3) + 2(h − 1) body
//     backwards and k + 1 head passes of each kind;
//   - through the head: the same body forwards but for the one more, which
//     it takes at j = D only, (k + 1)(D − 1) body backwards and kD/2 + h
//     head passes of each kind;
//   - at k ≥ 1, j = D − 1 and D ≥ 4 only: the head path with one more body
//     forward, two more body backwards and one head pass of each kind fewer.
//
// The families are tabulated from a traced replay. The oracle sweep's
// TestChimeraClosedForms/ComputeMakespan proves them on the whole cone for
// every even D ≤ 64 and N ≤ 4D + 1: the replay is convex and positively
// homogeneous in c, so equality at every extreme ray of each family's region
// and at one interior point of it is equality on the region (DESIGN.md §3
// item 4). Past that grid the sweep's
// TestChimeraClosedForms/TestComputeMakespanPeriodic (the cone's four rays,
// every even D ≤ 32 and 3D ≤ N ≤ 8D) and FuzzComputeMakespanClosedForm hold
// it to the replay.
func (cfg ChimeraConfig) ComputeMakespan(c ComputeCosts) (makespan int64, ok bool, err error) {
	if _, err := cfg.check(); err != nil || !cfg.closedForm() || !c.inCone() {
		return 0, false, err
	}
	paths, n := cfg.computePaths()
	for _, p := range paths[:n] {
		makespan = max(makespan, p.cost(c))
	}
	return makespan, true, nil
}

// computePaths returns ComputeMakespan's path families for cfg, a
// configuration in the closed forms' scope: the first n of the array.
func (cfg ChimeraConfig) computePaths() (paths [3]computePath, n int) {
	d, k := int64(cfg.D), int64((cfg.N-1)/cfg.D)
	j := int64(cfg.N) - k*d
	h := (j + 1) / 2
	f := d - 2 + k
	if k == 0 {
		f++
	}
	through := computePath{f: f, b: d - 1 + k*(2*d-3) + 2*(h-1), h: k + 1}
	head := computePath{f: f, b: (k + 1) * (d - 1), h: k*d/2 + h}
	if k > 0 && j >= d-1 {
		through.f++
	}
	if k > 0 && j == d {
		head.f++
	}
	paths[0], paths[1], n = through, head, 2
	if k > 0 && j == d-1 && d >= 4 {
		paths[2], n = computePath{f: head.f + 1, b: head.b + 2, h: head.h - 1}, 3
	}
	return paths, n
}

// chimeraFree is ChimeraConfig.FreeRegions' form with its per-table terms
// worked out, so that a worker's regions cost a few integer operations. On
// worker w the down placement waits x = 2w − gap backwards if x > 0, the up
// placement upBase − x·b otherwise; an up placement on a worker ≤ upTo adds
// upFar and a down placement on a worker ≥ downFrom adds downFar. single
// marks N = 1.
type chimeraFree struct {
	d, gap, upTo, downFrom    int
	single                    bool
	b, upBase, upFar, downFar int64
}

// Chimera builds the bidirectional pipeline schedule of §3.1–§3.6.
func Chimera(cfg ChimeraConfig) (*Schedule, error) {
	f, err := cfg.check()
	if err != nil {
		return nil, err
	}
	d, n := cfg.D, cfg.N
	s := &Schedule{
		Scheme:       "chimera",
		D:            d,
		N:            n,
		F:            f,
		Workers:      make([][]Op, d),
		Replicas:     make([]ReplicaMap, 0, 2*f),
		Synchronous:  true,
		MicroReplica: make([]int, n),
	}
	for i := 0; i < f; i++ {
		s.Replicas = append(s.Replicas, downMap(d, f, i))
	}
	for i := 0; i < f; i++ {
		s.Replicas = append(s.Replicas, upMap(d, f, i))
	}

	if n > d && cfg.Concat != Direct {
		s.DoubledForward = true
		s.HalvedBackward = cfg.Concat == BackwardHalving
	}
	buildChimera(s, f)
	return s, nil
}

// buildChimera writes every worker's ops once, at their final index in the
// schedule's single backing array. Every slot is closed-form, so instead of
// emitting micro-major and sorting, each worker's ops are enumerated twice
// straight from the formulas — once to count ops per slot, once to place
// them — and opLess settles the slots that hold more than one op.
func buildChimera(s *Schedule, f int) {
	d, n := s.D, s.N
	// Direct: a forward and a backward per micro-batch, a unit every 2D
	// slots, whose last backward runs D/f − 2 slots into the next unit.
	perWorker, hi := 2*n, 2*d*((n+d-1)/d)+d
	if s.DoubledForward {
		// A 1F2B unit every 3D slots. Halving: a forward and two half
		// backwards per micro-batch. Doubling: a unit's D forwards carry 2D
		// micro-batches (3D ops), and the odd residual unit is a plain one
		// (2D ops).
		perWorker, hi = 3*n, 3*n+d
		if !s.HalvedBackward {
			units := n / d
			perWorker, hi = 3*d*(units/2)+2*d*(units%2), 3*d*((units+1)/2)+d
		}
	}
	// stageOn[r·D + w] is the stage of replica r that worker w hosts.
	stageOn := make([]int32, len(s.Replicas)*d)
	for r, rm := range s.Replicas {
		for st, w := range rm.WorkerOf {
			stageOn[r*d+w] = int32(st)
		}
	}
	backing := make([]Op, d*perWorker)
	var slots slotTable
	for w := range s.Workers {
		dst := backing[perWorker*w : perWorker*(w+1) : perWorker*(w+1)]
		slots.reset(0, int32(hi))
		s.workerOps(w, f, stageOn, &slots, nil)
		ties := slots.prefix()
		s.workerOps(w, f, stageOn, &slots, dst)
		if ties {
			settleTies(dst)
		}
		s.Workers[w] = dst
	}
	// Every replica has a stage on every worker, so worker 0 runs every
	// micro-batch.
	for _, op := range s.Workers[0] {
		for _, m := range op.Micros {
			s.MicroReplica[m] = op.Replica
		}
	}
}

// workerOps runs the enumerator of the schedule's concatenation mode over
// worker w: with a nil dst it only counts the ops into slots, otherwise it
// writes each op to the index slots hands out for its slot. Both calls are
// static, which keeps slots on the caller's stack.
func (s *Schedule) workerOps(w, f int, stageOn []int32, slots *slotTable, dst []Op) {
	if s.DoubledForward {
		s.doublingWorkerOps(w, f, stageOn, slots, dst)
		return
	}
	s.directWorkerOps(w, f, stageOn, slots, dst)
}

// pairSlots gives the construction slots of the forward and backward op of
// stage st for the m-th micro-batch of a pipeline within a basic unit that
// starts at slot unitOffset.
//
// Base-unit slotting (equal-cost model): within pipeline-local order m,
// every pipeline — regardless of f — places F(m, s) at slot s + 2m and
// B(m, s) at 2D−1−s + 2m, mapped to workers by its replica map. This merge
// is conflict-free for even D and any f dividing D/2:
//
//   - forward slots of down pipelines on worker w all share parity(w) (the
//     rotation step D/f is even), up forwards parity(w)+1 — no F/F clash;
//     same-direction pipelines occupy disjoint offset ranges of width
//     D/f − 2 < D/f;
//   - down backwards share parity(w)+1 and up backwards parity(w) — no B/B
//     clash;
//   - a down-B vs up-F clash (same parity) would need D − (i−j)·D/f ≤
//     D/f − 2, impossible for i−j < f.
//
// The per-worker idle is D/f − 2 slots, i.e. Table 3's bubble ratio
// (D−2f)/(2fN+D−2f) = (D/f−2)/(2N+D/f−2). TestChimeraFConflictFree
// exercises this over many (D, f).
func pairSlots(d, st, m, unitOffset int) (fSlot, bSlot int32) {
	return int32(st + 2*m + unitOffset), int32(2*d - 1 - st + 2*m + unitOffset)
}

// directWorkerOps enumerates worker w's ops of a direct-concatenation
// schedule (N ≤ D included), pipeline by pipeline and unit by unit.
// Micro-batches are dealt to the 2f pipelines round-robin (down pipelines
// first), each unit carrying up to D micro-batches and starting 2D slots —
// its busy slots per worker — after the previous one.
func (s *Schedule) directWorkerOps(w, f int, stageOn []int32, slots *slotTable, dst []Op) {
	d, n := s.D, s.N
	micros := microTable(n)
	for pi := 0; pi < 2*f; pi++ {
		rep := dealReplica(f, pi)
		st := int(stageOn[rep*d+w])
		for mb0 := 0; mb0 < n; mb0 += d {
			count, first := dealt(min(d, n-mb0), 2*f, pi)
			for m := 0; m < count; m++ {
				fSlot, bSlot := pairSlots(d, st, m, 2*mb0) // unit mb0/D starts at slot 2D·(mb0/D)
				mb := mb0 + first + m
				one := micros[mb : mb+1 : mb+1]
				slots.put(dst, Forward, 0, fSlot, st, rep, one)
				slots.put(dst, Backward, 0, bSlot, st, rep, one)
			}
		}
	}
}

// doublingWorkerOps enumerates worker w's ops of a forward-doubling or
// backward-halving schedule (§3.5), pipeline by pipeline and unit by unit.
// Both share the "1F2B" unit shape, 3D slots per worker: the pipeline dealt
// position j of a unit (D/2f positions each, dealt like direct
// concatenation's micro-batches) runs stage st's forward at slot st + 3j and
// its two backwards at 2D − 1 − st + 3j and one slot later. Under halving a
// position is one micro-batch, its backward run as two half-size passes, so
// a unit covers D micro-batches; under doubling it is two, carried by one
// forward and one backward each, so a unit covers 2D, and an odd residual
// unit of D micro-batches is a plain bidirectional one.
func (s *Schedule) doublingWorkerOps(w, f int, stageOn []int32, slots *slotTable, dst []Op) {
	d, n := s.D, s.N
	micros := microTable(n)
	per := d / (2 * f) // positions per pipeline per unit
	// width is the micro-batches per position, units the 1F2B units.
	width, units, half0, half1 := 2, n/(2*d), uint8(0), uint8(0)
	if s.HalvedBackward {
		width, units, half0, half1 = 1, n/d, 1, 2
	}
	for pi := 0; pi < 2*f; pi++ {
		rep := dealReplica(f, pi)
		st := int(stageOn[rep*d+w])
		for u := 0; u < units; u++ {
			for j := 0; j < per; j++ {
				at := 3*d*u + 3*j
				m := width * (d*u + pi*per + j)
				fw := micros[m : m+width : m+width]
				slots.put(dst, Forward, 0, int32(at+st), st, rep, fw)
				slots.put(dst, Backward, half0, int32(at+2*d-1-st), st, rep, fw[:1:1])
				slots.put(dst, Backward, half1, int32(at+2*d-st), st, rep, fw[width-1:width:width])
			}
		}
		if width == 2 && (n/d)%2 == 1 {
			for j := 0; j < per; j++ {
				fSlot, bSlot := pairSlots(d, st, j, 3*d*units)
				m := 2*d*units + pi*per + j
				one := micros[m : m+1 : m+1]
				slots.put(dst, Forward, 0, fSlot, st, rep, one)
				slots.put(dst, Backward, 0, bSlot, st, rep, one)
			}
		}
	}
}

// dealReplica is the replica behind position pi of the deal order: the
// directions alternate — down0, up0, down1, up1, ... — so that for f=1 the
// down pipeline receives ⌈N/2⌉ and the up pipeline ⌊N/2⌋ micro-batches
// (paper §3.1). Replicas 0..f-1 are down pipelines, f..2f-1 up pipelines.
func dealReplica(f, pi int) int {
	return (pi%2)*f + pi/2
}

// dealt splits n items over k pipelines in nearly equal runs (first ones
// larger) and returns how many the i-th gets and the index of its first.
func dealt(n, k, i int) (count, first int) {
	count, first = n/k, i*(n/k)+min(i, n%k)
	if i < n%k {
		count++
	}
	return count, first
}

// OneF1B builds a single-pipeline 1F1B schedule with flush (used as the
// "1 pipe" baseline of Fig. 19 and as the building block of DAPPLE).
func OneF1B(d, n int) (*Schedule, error) {
	return dapple1F1B("1f1b", d, n, true)
}
