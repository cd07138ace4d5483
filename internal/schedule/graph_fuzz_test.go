package schedule_test

import (
	"fmt"
	"reflect"
	"testing"

	"chimera/internal/refinterp"
	"chimera/internal/schedule"
)

// FuzzGraphReplayEquivalence hammers the compiled-graph replay against the
// retained map interpreter (internal/refinterp) over fuzzer-chosen schemes,
// depths, micro-batch counts, Chimera pipelines per direction and
// concatenation modes, and cost models: any (scheme, d, n, f, concat)
// schedule.Build accepts must compile to a valid topological order and
// replay to bit-identical timelines, read-outs (makespan, compute-end,
// grad-ready) and Eq. 1 critical paths under any cost model.
// The committed seed corpus (testdata/fuzz) covers every scheme, forward
// doubling, backward halving and F = 2; CI additionally fuzzes for a
// bounded time.
func FuzzGraphReplayEquivalence(f *testing.F) {
	seeds := []struct {
		scheme       string
		d, n, fp, cc int
		fu, bu, p2p  int64
	}{
		{"chimera", 4, 4, 1, 0, 1, 1, 0},
		{"chimera", 8, 8, 1, 0, 1, 2, 3},
		{"chimera", 4, 12, 1, int(schedule.ForwardDoubling), 1, 2, 1},
		{"chimera", 6, 12, 1, int(schedule.BackwardHalving), 1, 2, 0},
		{"chimera", 8, 13, 2, 0, 1, 2, 2},
		{"gpipe", 4, 8, 1, 0, 1, 2, 0},
		{"dapple", 6, 6, 1, 0, 2, 3, 1},
		{"gems", 4, 4, 1, 0, 1, 2, 0},
		{"pipedream", 4, 8, 1, 0, 1, 2, 2},
		{"pipedream-2bw", 4, 8, 1, 0, 1, 2, 0},
		{"1f1b", 8, 8, 1, 0, 1, 3, 5},
	}
	for _, s := range seeds {
		f.Add(s.scheme, s.d, s.n, s.fp, s.cc, s.fu, s.bu, s.p2p)
	}
	f.Fuzz(func(t *testing.T, scheme string, d, n, fp, cc int, fu, bu, p2p int64) {
		// Bound the instance so one input cannot dominate the fuzz budget;
		// cost units stay positive and small enough that no replay sum can
		// approach int64 overflow.
		if d < 2 || d > 12 || n < 1 || n > 24 || fp < -8 || fp > 8 {
			t.Skip()
		}
		if fu < 1 || fu > 1_000 || bu < 1 || bu > 1_000 || p2p < 0 || p2p > 1_000 {
			t.Skip()
		}
		s, err := schedule.Build(schedule.Spec{Scheme: scheme, D: d, N: n, F: fp, Concat: schedule.ConcatMode(cc)})
		if err != nil {
			t.Skip() // unknown scheme or infeasible input — rejected, not this fuzz's concern
		}
		id := fmt.Sprintf("%s d=%d n=%d f=%d concat=%v", scheme, d, n, fp, schedule.ConcatMode(cc))
		cm := schedule.CostModel{FUnit: fu, BUnit: bu, P2P: p2p}
		got, gerr := replay(s, cm.ReplayConfig())
		want, werr := refinterp.Replay(s, cm)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: graph err %v, interpreter err %v", id, gerr, werr)
		}
		if gerr != nil {
			return // both reject the schedule — equivalent behavior
		}
		if g, err := s.Graph(); err != nil {
			t.Fatalf("%s: graph after a successful replay: %v", id, err)
		} else if err := g.OrderError(); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("%s cm=%+v: makespan %d != %d", id, cm, got.Makespan, want.Makespan)
		}
		if !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.End, want.End) {
			t.Fatalf("%s cm=%+v: op timings diverge", id, cm)
		}
		if !reflect.DeepEqual(got.BusyTime, want.BusyTime) {
			t.Fatalf("%s cm=%+v: busy times diverge", id, cm)
		}
		checkReadout(t, id, s, cm.ReplayConfig())
		gcf, gcb, gerr := schedule.CriticalPath(s)
		wcf, wcb, werr := refinterp.CriticalPath(s)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: critical-path err %v vs %v", id, gerr, werr)
		}
		if gerr == nil && (gcf != wcf || gcb != wcb) {
			t.Fatalf("%s: critical path (%d, %d) != (%d, %d)", id, gcf, gcb, wcf, wcb)
		}
	})
}
