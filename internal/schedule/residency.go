package schedule

import "slices"

// Residency is a schedule's activation-residency profile: everything the
// memory model needs to know about a schedule, independent of how many ops
// the schedule has. Timing cannot change residency — only per-worker op order
// does — so the profile is a pure function of the schedule and is computed
// once (see (*Schedule).Residency).
//
// Live counts are in half-micro-batch units so that forward doubling (a
// doubled forward holds 2 micro-batches = 4 units) and backward halving (a
// half backward releases ½ micro-batch = 1 unit) stay exact in integers.
type Residency struct {
	// Scheme and Synchronous mirror the schedule's fields (asynchronous
	// schemes stash weight versions; the memory model branches on both).
	Scheme      string
	Synchronous bool
	// Replicas is the schedule's model-replica count.
	Replicas int
	// Workers[w] is worker w's profile.
	Workers []WorkerResidency
}

// WorkerResidency is one worker's share of a Residency.
type WorkerResidency struct {
	// Hosted lists the (replica, stage) placements the replica maps assign
	// to this worker, replica-major (StagesOn order).
	Hosted []StagePlacement
	// Peaks holds the Pareto-maximal live-count vectors the worker's op
	// order reaches, in lexicographic order: Peaks[i][k] is the number of
	// half-micro-batches of placement Hosted[k] resident at that moment.
	// Any non-negative per-placement byte weighting attains its maximum
	// over the whole op walk at one of these vectors — a dominated vector
	// can never price higher — which is what lets the memory model replace
	// the walk by a max over these few rows. A placement carries ops iff
	// some peak has a positive count for it.
	Peaks [][]int32
}

// PeakUnits returns the worker's peak total residency in half-micro-batch
// units: the largest row sum of Peaks (0 for an idle worker).
func (wr *WorkerResidency) PeakUnits() int64 {
	var peak int64
	for _, v := range wr.Peaks {
		var sum int64
		for _, c := range v {
			sum += int64(c)
		}
		if sum > peak {
			peak = sum
		}
	}
	return peak
}

// WeightStash returns the number of weight versions a PipeDream-style
// asynchronous scheme must keep on this worker: one per in-flight
// micro-batch, lower-bounded by 1 (the live weights).
func (wr *WorkerResidency) WeightStash() int {
	return max(int(wr.PeakUnits()/2), 1)
}

// Residency returns the schedule's activation-residency profile, walking
// the op lists once on first use and caching the result on the schedule
// exactly as Graph does. The profile is shared: callers must not mutate it.
func (s *Schedule) Residency() *Residency {
	s.residencyOnce.Do(func() { s.residency = buildResidency(s) })
	return s.residency
}

func buildResidency(s *Schedule) *Residency {
	r := &Residency{
		Scheme:      s.Scheme,
		Synchronous: s.Synchronous,
		Replicas:    len(s.Replicas),
		Workers:     make([]WorkerResidency, s.D),
	}
	// Hosted placements, all workers out of one backing array; index[r·D+st]
	// is the placement's position in its worker's Hosted list.
	counts := make([]int, s.D)
	for _, rm := range s.Replicas {
		for _, w := range rm.WorkerOf {
			counts[w]++
		}
	}
	hosted := make([]StagePlacement, len(s.Replicas)*s.D)
	maxHosted := 0
	for w, c := range counts {
		r.Workers[w].Hosted = hosted[:0:c]
		hosted = hosted[c:]
		if c > maxHosted {
			maxHosted = c
		}
	}
	index := make([]int32, len(s.Replicas)*s.D)
	for rep, rm := range s.Replicas {
		for st, w := range rm.WorkerOf {
			wr := &r.Workers[w]
			index[rep*s.D+st] = int32(len(wr.Hosted))
			wr.Hosted = append(wr.Hosted, StagePlacement{Replica: rep, Stage: st})
		}
	}

	live := make([]int32, maxHosted)
	var front []int32 // the running Pareto front, rows of k counts back to back
	for w, ops := range s.Workers {
		wr := &r.Workers[w]
		k := len(wr.Hosted)
		live = live[:k]
		clear(live)
		front = front[:0]
		// A forward only raises a count and a backward only lowers one, so
		// the vectors no later vector dominates are exactly those reached
		// just before a backward that follows a forward (and at the end).
		rising := false
		for i := range ops {
			op := &ops[i]
			units := int32(2 * len(op.Micros))
			slot := index[op.Replica*s.D+op.Stage]
			if op.Kind == Forward {
				live[slot] += units
				rising = true
				continue
			}
			if rising {
				front = paretoInsert(front, live)
				rising = false
			}
			if op.Half != 0 {
				units /= 2
			}
			live[slot] -= units
		}
		if rising {
			front = paretoInsert(front, live)
		}
		wr.Peaks = sortedRows(front, k)
	}
	return r
}

// paretoInsert adds vector v to the front (rows of len(v) counts) unless a
// row already dominates it, dropping the rows v dominates.
func paretoInsert(front, v []int32) []int32 {
	k := len(v)
	for i := 0; i < len(front); i += k {
		if dominates(front[i:i+k], v) {
			return front
		}
	}
	kept := 0
	for i := 0; i < len(front); i += k {
		if !dominates(v, front[i:i+k]) {
			copy(front[kept:], front[i:i+k])
			kept += k
		}
	}
	return append(front[:kept], v...)
}

// dominates reports a[j] ≥ b[j] for every j.
func dominates(a, b []int32) bool {
	for j := range a {
		if a[j] < b[j] {
			return false
		}
	}
	return true
}

// sortedRows copies the front into its own rows, lexicographically ordered
// so that equal profiles compare equal whatever order the walk found them in.
func sortedRows(front []int32, k int) [][]int32 {
	if len(front) == 0 {
		return nil
	}
	flat := append([]int32(nil), front...)
	rows := make([][]int32, len(flat)/k)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	slices.SortFunc(rows, slices.Compare[[]int32])
	return rows
}
