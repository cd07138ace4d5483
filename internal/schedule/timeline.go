package schedule

// CostModel supplies integer op durations for timeline replay. Durations are
// in arbitrary units (the unit-cost analyses use F=1 or F=2/B=2 style
// ratios; the simulator package uses nanoseconds).
type CostModel struct {
	// FUnit is the duration of a forward pass over one micro-batch.
	FUnit int64
	// BUnit is the duration of a backward pass over one micro-batch
	// (typically 2×FUnit; 3×FUnit with activation recomputation).
	BUnit int64
	// P2P is the inter-stage communication latency added to every
	// cross-worker dependency edge (0 for pure bubble analysis).
	P2P int64
}

// UnitEqual is the equal-workload model used in the paper's construction
// figures (forward == backward == 1 slot).
var UnitEqual = CostModel{FUnit: 1, BUnit: 1}

// UnitPractical is the practical model (backward ≈ 2× forward, Fig. 2).
var UnitPractical = CostModel{FUnit: 1, BUnit: 2}

// Cost returns the duration of op o under the model, honouring the
// forward-doubling and backward-halving variants: a doubled forward carries
// two micro-batches; a halved backward processes half a micro-batch. This is
// the one authoritative unit-cost rule — graph replay and the perfmodel's
// Eq. 1 probes all route through it.
func (cm CostModel) Cost(o Op) int64 {
	if o.Kind == Forward {
		return cm.FUnit * int64(len(o.Micros))
	}
	c := cm.BUnit * int64(len(o.Micros))
	if o.Half != 0 {
		c = (c + 1) / 2
	}
	return c
}

// Timeline is the result of replaying a schedule under a cost model.
type Timeline struct {
	// Start[w][i] and End[w][i] bracket op i of worker w.
	Start, End [][]int64
	// Makespan is the completion time of the last op.
	Makespan int64
	// BusyTime[w] is the total op duration on worker w.
	BusyTime []int64

	// replay links a graph-replay timeline back to the pooled Readout whose
	// arrays it views (nil for timelines built elsewhere, e.g. the reference
	// interpreter).
	replay *Readout
}

// Release hands the timeline's arrays back to the replay pool so the next
// replay reuses them without allocating. Callers must not read the timeline
// after releasing it. Safe to call on any timeline: one whose arrays were
// not pooled (the reference interpreter's, or a nil receiver) is left
// untouched, and a second Release is a no-op.
func (tl *Timeline) Release() {
	if tl != nil {
		tl.replay.Release()
	}
}

// depKey identifies the data token produced by an op for one micro-batch
// (half identifies half-micro-batch backward chains under backward halving).
type depKey struct {
	kind  Kind
	micro int
	stage int
	half  uint8
}

// ReplayConfig generalizes replay costing: OpCost gives the duration of an
// op on its worker; EdgeCost gives the communication delay added to a
// dependency edge that crosses workers into op (e.g. α + β·activationBytes).
//
// Both must be set, return non-negative values, and be pure functions of
// the worker and the op's shape — kind, stage, replica, micro count
// (len(op.Micros)) and half — never of which micro-batches the op carries:
// graph replay calls each once per shape, on a representative op, not once
// per op (the reference interpreter still calls them per op; they agree
// exactly when the contract holds).
type ReplayConfig struct {
	OpCost   func(worker int, op Op) int64
	EdgeCost func(op Op) int64
}

// ReplayConfig lifts a uniform cost model into the Readout seam.
func (cm CostModel) ReplayConfig() ReplayConfig {
	return ReplayConfig{
		OpCost:   func(_ int, op Op) int64 { return cm.Cost(op) },
		EdgeCost: func(Op) int64 { return cm.P2P },
	}
}

// Readout replays the schedule under rc: each worker executes its op list
// strictly in order; an op starts when the worker is free and all its data
// dependencies (forward from previous stage, backward from next stage, loss
// dependency at the last stage) have completed, plus edge cost for
// cross-worker edges. Makespan and bubble ratio are read straight off the
// result; Readout.Timeline hands out every op's start and end. Returns an
// error if the schedule deadlocks (circular wait or unresolvable
// dependency), which indicates a construction bug; the error names the
// blocked op, its worker and the unmet token.
//
// The dependency structure is a pure function of the schedule, so it is
// compiled once into a Graph (see graph.go) and every replay is a flat
// topological pass over it. internal/refinterp retains the original
// map-based interpreter as the equivalence reference.
func (s *Schedule) Readout(rc ReplayConfig) (*Readout, error) {
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	return g.Readout(rc), nil
}

// BubbleRatio returns the fraction of worker-time spent idle within the
// makespan: (D·makespan − Σ busy) / (D·makespan). This matches the paper's
// definition (bubble overhead over overall runtime).
func (tl *Timeline) BubbleRatio() float64 {
	total := tl.Makespan * int64(len(tl.BusyTime))
	if total == 0 {
		return 0
	}
	var busy int64
	for _, b := range tl.BusyTime {
		busy += b
	}
	return float64(total-busy) / float64(total)
}

// ActivationHighWater returns, per worker, the peak number of in-flight
// micro-batch activations (forward done on this worker, backward not yet),
// in units of one micro-batch's activation memory Ma. Order-derived: timing
// does not change residency, only the op order does — so it is read off the
// schedule's residency profile.
//
// Under forward doubling, a doubled forward holds 2 units (the paper's 2×
// activation cost). Under backward halving, each half backward releases ½.
func (s *Schedule) ActivationHighWater() []float64 {
	res := s.Residency()
	out := make([]float64, s.D)
	for w := range out {
		out[w] = float64(res.Workers[w].PeakUnits()) / 2
	}
	return out
}

// WeightStashHighWater returns, per worker, the number of weight versions a
// PipeDream-style asynchronous scheme must stash: one per in-flight
// micro-batch, lower-bounded by 1 (the live weights). For synchronous
// schemes this equals 1 and is not used.
func (s *Schedule) WeightStashHighWater() []int {
	res := s.Residency()
	out := make([]int, s.D)
	for w := range out {
		out[w] = res.Workers[w].WeightStash()
	}
	return out
}

// slotTable places Chimera's ops (buildChimera) by counting sort: prio is a
// dense integer (a slot index, so its range is within a small factor of the
// op count), so counting ops per slot and prefix-summing puts every op at its
// final position in O(n) — count each op, prefix, then take an index per
// op — and opLess is consulted only inside a slot holding more than one op
// (settleTies). Ops of one slot are handed indices in take order. The other
// generators append in final order and need no table.
type slotTable struct {
	lo int32
	// next[p] is, while counting, the number of ops in slot lo+p−1; after
	// prefix, the index the next op of slot lo+p goes to.
	next []int32
}

// reset empties the table for slots lo..hi, reusing its array when it can.
func (t *slotTable) reset(lo, hi int32) {
	span := int(hi) - int(lo) + 2
	if cap(t.next) < span {
		t.next = make([]int32, span)
	} else {
		t.next = t.next[:span]
		clear(t.next)
	}
	t.lo = lo
}

func (t *slotTable) count(slot int32) { t.next[slot-t.lo+1]++ }

// prefix turns the counts into start indices and reports whether any slot
// holds more than one op.
func (t *slotTable) prefix() (ties bool) {
	sum := int32(0) // in a register: a next[p-1] read back would stall on the store before it
	for p, n := range t.next {
		ties = ties || n > 1
		sum += n
		t.next[p] = sum
	}
	return ties
}

// take returns the index of the next op of slot.
func (t *slotTable) take(slot int32) int32 {
	i := t.next[slot-t.lo]
	t.next[slot-t.lo] = i + 1
	return i
}

// put is one op of a worker's enumeration: with a nil dst it counts the op's
// slot, otherwise it writes the op at the index its slot hands out. dst is
// still zeroed, so the fields are stored one by one: a whole-Op assignment
// is a typed move, which runs a write barrier over all 48 bytes whenever the
// collector is marking (often — a cold plan allocates megabytes); this way
// only the Micros pointer goes through it.
func (t *slotTable) put(dst []Op, kind Kind, half uint8, slot int32, st, rep int, micros []int) {
	if dst == nil {
		t.count(slot)
		return
	}
	o := &dst[t.take(slot)]
	o.Kind, o.Half, o.prio, o.Stage, o.Replica, o.Micros = kind, half, slot, st, rep, micros
}

// settleTies orders the ops sharing a slot by opLess, stably.
func settleTies(dst []Op) {
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j].prio == dst[j-1].prio && opLess(dst[j], dst[j-1]); j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
}

func opLess(a, b Op) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.Kind != b.Kind {
		return a.Kind == Forward
	}
	if a.Replica != b.Replica {
		return a.Replica < b.Replica
	}
	if a.Micros[0] != b.Micros[0] {
		return a.Micros[0] < b.Micros[0]
	}
	return a.Half < b.Half
}
