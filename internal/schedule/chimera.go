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

// ResidencyEquivalent returns the shortest configuration known to have the
// same residency profile as cfg (cfg itself when none is known). A direct-
// concatenation, F = 1 schedule repeats with a period of one basic unit —
// D micro-batches, 2D slots — and a unit's ops span fewer than 4D slots, so
// it only ever overlaps its immediate neighbours: every live-count vector a
// worker reaches at N ≥ 2D it already reaches at N′ = D + (N mod D), one
// full unit followed by the same partial one. TestResidencyPeriodic pins
// this for every even D ≤ 128 up to N = 1024. F > 1, forward doubling and
// backward halving are out of scope and map to themselves.
func (cfg ChimeraConfig) ResidencyEquivalent() ChimeraConfig {
	if cfg.F <= 1 && cfg.Concat == Direct && cfg.D >= 2 && cfg.N >= 2*cfg.D {
		cfg.N = cfg.D + cfg.N%cfg.D
	}
	return cfg
}

// ReplayEquivalent returns the short configuration whose replay extends to
// cfg's, and by how many basic units (0 and cfg itself when none is known).
// A direct-concatenation, F = 1 schedule of N ≥ 3D micro-batches is its first
// two units, ⌊N/D⌋ − 2 repetitions of the steady-state unit, and the trailing
// partial unit: (*Readout).Extend verifies on the replay of (D, 2D + N mod D)
// that the steady state has been reached and moves the read-outs on by the
// units left out. DESIGN.md §3 "Steady-state replay" carries the argument;
// TestReplayPeriodic and TestChimeraDirectLockstep pin it. Out of scope, as
// for ResidencyEquivalent: F > 1, forward doubling, backward halving.
func (cfg ChimeraConfig) ReplayEquivalent() (short ChimeraConfig, units int) {
	if cfg.F <= 1 && cfg.Concat == Direct && cfg.D >= 2 && cfg.N >= 3*cfg.D {
		units = cfg.N/cfg.D - 2
		cfg.N -= units * cfg.D
	}
	return cfg, units
}

// Chimera builds the bidirectional pipeline schedule of §3.1–§3.6.
func Chimera(cfg ChimeraConfig) (*Schedule, error) {
	return chimera(cfg, doublingUpPhase)
}

// doublingUpPhase staggers the up pipelines of a doubled/halved unit against
// the down pipelines. The value is fixed by measurement (see
// TestDoublingPhaseChoice): it minimizes the replayed makespan over the
// candidate phases for the evaluated depths.
const doublingUpPhase = 0

// chimera is Chimera with the 1F2B units' up-pipeline phase as an argument,
// so the test that justifies the constant can build the alternatives.
func chimera(cfg ChimeraConfig, upPhase int) (*Schedule, error) {
	d, n, f := cfg.D, cfg.N, cfg.F
	if f == 0 {
		f = 1
	}
	if d < 2 || d%2 != 0 {
		return nil, fmt.Errorf("chimera: D must be even and ≥2, got %d", d)
	}
	if (d/2)%f != 0 {
		return nil, fmt.Errorf("chimera: F=%d must divide D/2=%d", f, d/2)
	}
	if n < 1 {
		return nil, fmt.Errorf("chimera: N must be ≥1, got %d", n)
	}
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

	switch {
	case n <= d || cfg.Concat == Direct:
		buildChimeraDirect(s, f)
	case cfg.Concat == ForwardDoubling || cfg.Concat == BackwardHalving:
		if n%d != 0 {
			return nil, fmt.Errorf("chimera: %v needs N a multiple of D, got N=%d D=%d", cfg.Concat, n, d)
		}
		// Halving: a forward and two half backwards per micro-batch.
		// Doubling: a unit's D forwards carry 2D micro-batches (3D ops),
		// and the odd residual unit is a plain one (2D ops).
		perWorker := 3 * n
		if cfg.Concat == ForwardDoubling {
			units := n / d
			perWorker = 3*d*(units/2) + 2*d*(units%2)
		}
		s.reserveOps(perWorker)
		buildChimeraDoubling(s, cfg, f, upPhase)
		s.DoubledForward = true
		s.HalvedBackward = cfg.Concat == BackwardHalving
		s.sortWorkerOps()
	default:
		return nil, fmt.Errorf("chimera: unknown concat mode %v", cfg.Concat)
	}
	return s, nil
}

// reserveOps gives every worker an empty op list with room for perWorker
// ops, all carved from one allocation, so emission never regrows a list.
func (s *Schedule) reserveOps(perWorker int) {
	backing := make([]Op, s.D*perWorker)
	for w := range s.Workers {
		s.Workers[w] = backing[w*perWorker : w*perWorker : (w+1)*perWorker]
	}
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

// emitPair appends the forward+backward pair of micro-batch mb of replica r,
// the m-th of its pipeline within the unit at unitOffset, to every worker
// the replica crosses (micro-major emission: sortWorkerOps orders it later).
func (s *Schedule) emitPair(r, mb, m, unitOffset int) {
	d := s.D
	rm := s.Replicas[r]
	micros := microRun(mb, 1)
	for st := 0; st < d; st++ {
		w := rm.WorkerOf[st]
		fSlot, bSlot := pairSlots(d, st, m, unitOffset)
		s.Workers[w] = append(s.Workers[w],
			Op{Kind: Forward, Stage: st, Replica: r, Micros: micros, prio: fSlot},
			Op{Kind: Backward, Stage: st, Replica: r, Micros: micros, prio: bSlot})
	}
	s.MicroReplica[mb] = r
}

// emitPlainUnit deals inUnit ≤ D consecutive micro-batches starting at mb to
// the 2f pipelines — pipeline p = down0, up0, down1, up1, ... gets its
// ceil-fair share, locally 1F1B ordered — as one basic unit at unitOffset.
func (s *Schedule) emitPlainUnit(order, counts []int, mb, unitOffset int) {
	for pi, rep := range order {
		for m := 0; m < counts[pi]; m++ {
			s.emitPair(rep, mb, m, unitOffset)
			mb++
		}
	}
}

// buildChimeraDirect handles N ≤ D and direct concatenation of basic units.
// Micro-batches are dealt to the 2f pipelines round-robin (down pipelines
// first), each unit carrying up to D micro-batches and starting 2D slots —
// its busy slots per worker — after the previous one.
//
// This is the one generator the planner calls, so it writes each op once.
// Every slot is closed-form, so instead of emitting micro-major and sorting
// a copy, each worker's ops are enumerated twice straight from the formulas
// — once to count ops per slot, once to place them — and land at their final
// index in the schedule's single backing array.
func buildChimeraDirect(s *Schedule, f int) {
	d, n := s.D, s.N
	units := (n + d - 1) / d
	// stageOn[r·D + w] is the stage of replica r that worker w hosts.
	stageOn := make([]int32, 2*f*d)
	for r, rm := range s.Replicas {
		for st, w := range rm.WorkerOf {
			stageOn[r*d+w] = int32(st)
		}
	}
	backing := make([]Op, 2*n*d) // a forward and a backward per micro-batch per worker
	var slots slotTable
	for w := range s.Workers {
		dst := backing[2*n*w : 2*n*(w+1) : 2*n*(w+1)]
		// A unit's last backward runs D/f − 2 slots into its successor's span.
		slots.reset(0, int32(2*d*units+d))
		s.directWorkerOps(w, f, stageOn, &slots, nil)
		ties := slots.prefix()
		s.directWorkerOps(w, f, stageOn, &slots, dst)
		if ties {
			settleTies(dst)
		}
		s.Workers[w] = dst
	}
	for mb0 := 0; mb0 < n; mb0 += d {
		for pi := 0; pi < 2*f; pi++ {
			count, first := dealt(min(d, n-mb0), 2*f, pi)
			for mb := mb0 + first; mb < mb0+first+count; mb++ {
				s.MicroReplica[mb] = dealReplica(f, pi)
			}
		}
	}
}

// directWorkerOps enumerates worker w's ops of a direct-concatenation
// schedule, pipeline by pipeline and unit by unit. With a nil dst it only
// counts them into slots; otherwise it writes each op to the index slots
// hands out for its slot.
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
				if dst == nil {
					slots.count(fSlot)
					slots.count(bSlot)
					continue
				}
				mb := mb0 + first + m
				carried := micros[mb : mb+1 : mb+1]
				// dst is still zeroed, so the fields are stored one by one: a
				// whole-Op assignment is a typed move, which runs a write
				// barrier over all 48 bytes whenever the collector is marking
				// (often — a cold plan allocates megabytes); this way only
				// the Micros pointer goes through it.
				fo, bo := &dst[slots.take(fSlot)], &dst[slots.take(bSlot)]
				fo.Kind, fo.prio, fo.Stage, fo.Replica, fo.Micros = Forward, fSlot, st, rep, carried
				bo.Kind, bo.prio, bo.Stage, bo.Replica, bo.Micros = Backward, bSlot, st, rep, carried
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

// pipelineDealOrder lists dealReplica over the 2f pipelines.
func pipelineDealOrder(f int) []int {
	out := make([]int, 2*f)
	for pi := range out {
		out[pi] = dealReplica(f, pi)
	}
	return out
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

// fairShare lists dealt's counts over all k pipelines.
func fairShare(n, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i], _ = dealt(n, k, i)
	}
	return out
}

// buildChimeraDoubling constructs the forward-doubling / backward-halving
// schedules of §3.5. Both share the "1F2B" unit shape (one forward slot, two
// backward slots per position): under doubling the forward op carries two
// micro-batches and the unit covers 2D of them; under halving the forward op
// carries one micro-batch whose backward runs as two half-size passes, so
// the unit covers D micro-batches.
func buildChimeraDoubling(s *Schedule, cfg ChimeraConfig, f, upPhase int) {
	d, n := s.D, s.N
	halving := cfg.Concat == BackwardHalving
	mb, offset := 0, 0
	if halving {
		for mb < n {
			emitOneF2BUnit(s, f, mb, offset, upPhase, true)
			mb += d
			// Busy slots per worker per unit: D forwards + 2D half-backwards.
			offset += 3 * d
		}
		return
	}
	k := n / d
	for k >= 2 {
		emitOneF2BUnit(s, f, mb, offset, upPhase, false)
		mb += 2 * d
		offset += 3 * d
		k -= 2
	}
	if k == 1 {
		// Odd residual: one plain bidirectional unit of D micro-batches.
		s.emitPlainUnit(pipelineDealOrder(f), fairShare(d, 2*f), mb, offset)
	}
}

// emitOneF2BUnit emits one 1F2B-shaped unit. Down/up pipelines each carry
// D/2f forward slots spaced 3f apart (forward + two backward slots per
// position at the last stage); up pipelines are phase-shifted by upPhase,
// with residual collisions resolved by replay order.
func emitOneF2BUnit(s *Schedule, f int, mbBase, offset, upPhase int, halving bool) {
	d := s.D
	order := pipelineDealOrder(f)
	slotsPerPipe := d / (2 * f)
	local := 0
	for _, rep := range order {
		rm := s.Replicas[rep]
		phase := 0
		if !rm.Down {
			phase = upPhase
		}
		for j := 0; j < slotsPerPipe; j++ {
			fSlot := offset + phase + 3*j
			b0Slot := offset + phase + 3*j + 2*d - 1
			b1Slot := b0Slot + 1
			if halving {
				m := mbBase + local
				local++
				s.MicroReplica[m] = rep
				for st := 0; st < d; st++ {
					w := rm.WorkerOf[st]
					s.Workers[w] = append(s.Workers[w],
						Op{Kind: Forward, Stage: st, Replica: rep, Micros: microRun(m, 1), prio: int32(fSlot + st)},
						Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m, 1), Half: 1, prio: int32(b0Slot - st)},
						Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m, 1), Half: 2, prio: int32(b1Slot - st)})
				}
			} else {
				m0, m1 := mbBase+local, mbBase+local+1
				local += 2
				s.MicroReplica[m0], s.MicroReplica[m1] = rep, rep
				for st := 0; st < d; st++ {
					w := rm.WorkerOf[st]
					s.Workers[w] = append(s.Workers[w],
						Op{Kind: Forward, Stage: st, Replica: rep, Micros: microRun(m0, 2), prio: int32(fSlot + st)},
						Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m0, 1), prio: int32(b0Slot - st)},
						Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m1, 1), prio: int32(b1Slot - st)})
				}
			}
		}
	}
}

// OneF1B builds a single-pipeline 1F1B schedule with flush (used as the
// "1 pipe" baseline of Fig. 19 and as the building block of DAPPLE).
func OneF1B(d, n int) (*Schedule, error) {
	return dapple1F1B("1f1b", d, n, true)
}
