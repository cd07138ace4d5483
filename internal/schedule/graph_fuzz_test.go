package schedule_test

import (
	"reflect"
	"testing"

	"chimera/internal/refinterp"
	"chimera/internal/schedule"
)

// FuzzGraphReplayEquivalence hammers the compiled-graph replay against the
// retained map interpreter (internal/refinterp) over fuzzer-chosen schemes,
// depths, micro-batch counts and cost models: any (scheme, d, n) both can
// build must compile to a valid topological order and replay to bit-identical
// timelines, read-outs (makespan, compute-end, grad-ready) and Eq. 1 critical
// paths under any cost model.
// The committed seed corpus (testdata/fuzz) covers every scheme; CI
// additionally fuzzes for a bounded time.
func FuzzGraphReplayEquivalence(f *testing.F) {
	seeds := []struct {
		scheme      string
		d, n        int
		fu, bu, p2p int64
	}{
		{"chimera", 4, 4, 1, 1, 0},
		{"chimera", 8, 8, 1, 2, 3},
		{"gpipe", 4, 8, 1, 2, 0},
		{"dapple", 6, 6, 2, 3, 1},
		{"gems", 4, 4, 1, 2, 0},
		{"pipedream", 4, 8, 1, 2, 2},
		{"pipedream-2bw", 4, 8, 1, 2, 0},
		{"1f1b", 8, 8, 1, 3, 5},
	}
	for _, s := range seeds {
		f.Add(s.scheme, s.d, s.n, s.fu, s.bu, s.p2p)
	}
	f.Fuzz(func(t *testing.T, scheme string, d, n int, fu, bu, p2p int64) {
		// Bound the instance so one input cannot dominate the fuzz budget;
		// cost units stay positive and small enough that no replay sum can
		// approach int64 overflow.
		if d < 2 || d > 12 || n < 1 || n > 24 {
			t.Skip()
		}
		if fu < 1 || fu > 1_000 || bu < 1 || bu > 1_000 || p2p < 0 || p2p > 1_000 {
			t.Skip()
		}
		s, err := schedule.ByName(scheme, d, n)
		if err != nil {
			t.Skip() // unknown scheme or infeasible (d, n) — not this fuzz's concern
		}
		cm := schedule.CostModel{FUnit: fu, BUnit: bu, P2P: p2p}
		got, gerr := s.Replay(cm)
		want, werr := refinterp.Replay(s, cm)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s d=%d n=%d: graph err %v, interpreter err %v", scheme, d, n, gerr, werr)
		}
		if gerr != nil {
			return // both reject the schedule — equivalent behavior
		}
		if g, err := s.Graph(); err != nil {
			t.Fatalf("%s d=%d n=%d: graph after a successful replay: %v", scheme, d, n, err)
		} else if err := g.OrderError(); err != nil {
			t.Fatalf("%s d=%d n=%d: %v", scheme, d, n, err)
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("%s d=%d n=%d cm=%+v: makespan %d != %d", scheme, d, n, cm, got.Makespan, want.Makespan)
		}
		if !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.End, want.End) {
			t.Fatalf("%s d=%d n=%d cm=%+v: op timings diverge", scheme, d, n, cm)
		}
		if !reflect.DeepEqual(got.BusyTime, want.BusyTime) {
			t.Fatalf("%s d=%d n=%d cm=%+v: busy times diverge", scheme, d, n, cm)
		}
		checkReadout(t, scheme, s, cm.ReplayConfig())
		gcf, gcb, gerr := schedule.CriticalPath(s)
		wcf, wcb, werr := refinterp.CriticalPath(s)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s d=%d n=%d: critical-path err %v vs %v", scheme, d, n, gerr, werr)
		}
		if gerr == nil && (gcf != wcf || gcb != wcb) {
			t.Fatalf("%s d=%d n=%d: critical path (%d, %d) != (%d, %d)", scheme, d, n, gcf, gcb, wcf, wcb)
		}
	})
}
