// Package refinterp retains the original map-based greedy replay
// interpreter — the implementation of schedule replay before the compiled
// Graph and its Readout — as the tests' executable oracle for that IR:
//
//   - the equivalence suites of internal/schedule assert that graph replay
//     produces bit-identical Timelines, read-outs and critical paths across
//     every scheme, cost model and concatenation variant;
//   - internal/sim holds the read-outs sim.Run prices an iteration from to
//     this interpreter's timeline under Run's own replay config;
//   - internal/perfmodel checks Eq. 1's prediction against it.
//
// Only tests import it (`make lint` fails otherwise): the library has one
// replay core, the compiled graph. It re-resolves every dependency token
// through a map on every replay and round-robin rescans the worker op
// lists — exactly the behavior the graph compile removed.
package refinterp

import (
	"fmt"

	"chimera/internal/schedule"
)

// depKey identifies the data token produced by an op for one micro-batch
// (half identifies half-micro-batch backward chains under backward halving).
type depKey struct {
	kind  schedule.Kind
	micro int
	stage int
	half  uint8
}

// doneInfo records when and where a data token was produced.
type doneInfo struct {
	end    int64
	worker int
}

// opCost mirrors CostModel.Cost for the uniform cost models, honouring the
// forward-doubling and backward-halving variants.
func opCost(o schedule.Op, cm schedule.CostModel) int64 {
	if o.Kind == schedule.Forward {
		return cm.FUnit * int64(len(o.Micros))
	}
	c := cm.BUnit * int64(len(o.Micros))
	if o.Half != 0 {
		c = (c + 1) / 2
	}
	return c
}

// Replay is ReplayWith under a uniform cost model (the reference twin of
// Schedule.Readout under CostModel.ReplayConfig, then Readout.Timeline).
func Replay(s *schedule.Schedule, cm schedule.CostModel) (*schedule.Timeline, error) {
	return ReplayWith(s, schedule.ReplayConfig{
		OpCost:   func(_ int, op schedule.Op) int64 { return opCost(op, cm) },
		EdgeCost: func(schedule.Op) int64 { return cm.P2P },
	})
}

// ReplayWith is the reference interpreter: each worker executes its op list
// strictly in order; an op starts when the worker is free and all its data
// dependencies have completed, plus edge cost for cross-worker edges.
// Dependency tokens are resolved through a map on every call.
func ReplayWith(s *schedule.Schedule, rc schedule.ReplayConfig) (*schedule.Timeline, error) {
	tl := &schedule.Timeline{
		Start:    make([][]int64, s.D),
		End:      make([][]int64, s.D),
		BusyTime: make([]int64, s.D),
	}
	for w := range tl.Start {
		tl.Start[w] = make([]int64, len(s.Workers[w]))
		tl.End[w] = make([]int64, len(s.Workers[w]))
	}
	// finished[token] = (end time, worker) of the producing op.
	finished := make(map[depKey]doneInfo)
	ptr := make([]int, s.D)
	free := make([]int64, s.D)
	remaining := s.OpsTotal()
	for remaining > 0 {
		progress := false
		for w := 0; w < s.D; w++ {
			for ptr[w] < len(s.Workers[w]) {
				op := s.Workers[w][ptr[w]]
				ready, ok := opReady(s, op, w, finished, rc)
				if !ok {
					break
				}
				start := ready
				if free[w] > start {
					start = free[w]
				}
				end := start + rc.OpCost(w, op)
				i := ptr[w]
				tl.Start[w][i], tl.End[w][i] = start, end
				tl.BusyTime[w] += end - start
				free[w] = end
				for _, m := range op.Micros {
					finished[depKey{op.Kind, m, op.Stage, op.Half}] = doneInfo{end, w}
				}
				ptr[w]++
				remaining--
				progress = true
				if end > tl.Makespan {
					tl.Makespan = end
				}
			}
		}
		if !progress {
			return nil, fmt.Errorf("schedule %q (D=%d N=%d): deadlock with %d ops unscheduled; next ops: %s",
				s.Scheme, s.D, s.N, remaining, describeBlocked(s, ptr))
		}
	}
	return tl, nil
}

// opReady reports whether all dependencies of op are satisfied and the
// earliest start time implied by them.
func opReady(s *schedule.Schedule, op schedule.Op, w int, finished map[depKey]doneInfo, rc schedule.ReplayConfig) (int64, bool) {
	var ready int64
	need := func(k depKey) bool {
		d, ok := finished[k]
		if !ok {
			return false
		}
		t := d.end
		if d.worker != w {
			t += rc.EdgeCost(op)
		}
		if t > ready {
			ready = t
		}
		return true
	}
	for _, m := range op.Micros {
		switch {
		case op.Kind == schedule.Forward && op.Stage > 0:
			if !need(depKey{schedule.Forward, m, op.Stage - 1, 0}) {
				return 0, false
			}
		case op.Kind == schedule.Backward && op.Stage == s.D-1:
			if !need(depKey{schedule.Forward, m, op.Stage, 0}) {
				return 0, false
			}
		case op.Kind == schedule.Backward:
			if !need(depKey{schedule.Backward, m, op.Stage + 1, op.Half}) {
				return 0, false
			}
		}
	}
	return ready, true
}

func describeBlocked(s *schedule.Schedule, ptr []int) string {
	out := ""
	for w := 0; w < s.D; w++ {
		if ptr[w] < len(s.Workers[w]) {
			out += fmt.Sprintf(" w%d:%s", w, s.Workers[w][ptr[w]])
		}
	}
	return out
}

// CriticalPath is the reference twin of schedule.CriticalPath: the Eq. 1
// (Cf, Cb) probe evaluated with the map interpreter.
func CriticalPath(s *schedule.Schedule) (cf, cb int, err error) {
	m1, err := span(s, 100, 200)
	if err != nil {
		return 0, 0, err
	}
	m2, err := span(s, 101, 200)
	if err != nil {
		return 0, 0, err
	}
	cf = int(m2 - m1)
	cb = int((m1 - int64(cf)*100) / 200)
	return cf, cb, nil
}

func span(s *schedule.Schedule, f, b int64) (int64, error) {
	tl, err := Replay(s, schedule.CostModel{FUnit: f, BUnit: b})
	if err != nil {
		return 0, err
	}
	return tl.Makespan, nil
}
