package refinterp_test

import (
	"strings"
	"testing"

	"chimera/internal/refinterp"
	"chimera/internal/schedule"
)

// The interpreter is the oracle every graph-replay equivalence test compares
// against; these tests pin it to facts checkable by hand, so it cannot rot
// into agreeing with a broken core.

// TestChimeraUnitEqualMakespan: Chimera D=4, N=4 with forward = backward = 1
// slot finishes in 2N + D − 2 = 10 slots — Table 2's bubble ratio
// (D−2)/(2N+D−2) — and every worker is busy for its 2N ops.
func TestChimeraUnitEqualMakespan(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := refinterp.Replay(s, schedule.UnitEqual)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan != 10 {
		t.Fatalf("makespan %d slots, want 2N+D-2 = 10", tl.Makespan)
	}
	for w, busy := range tl.BusyTime {
		if busy != 8 {
			t.Fatalf("worker %d busy %d slots, want 2N = 8", w, busy)
		}
	}
	if got, want := tl.BubbleRatio(), 2.0/10; got != want {
		t.Fatalf("bubble ratio %v, want (D-2)/(2N+D-2) = %v", got, want)
	}
}

// TestCriticalPathFigure6: the paper's Fig. 6 example, Chimera D = N = 6,
// has Cf = 6 forward and Cb = 10 backward passes on its critical path.
func TestCriticalPathFigure6(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 6, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	cf, cb, err := refinterp.CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if cf != 6 || cb != 10 {
		t.Fatalf("(Cf, Cb) = (%d, %d), want (6, 10)", cf, cb)
	}
}

// TestP2POnlyOnCrossWorkerEdges: GPipe D=2, N=2 with F=1, B=2 takes 9 units
// (F0 F1 on worker 0, worker 1 one slot behind, then the backwards in
// reverse). The critical path crosses workers twice — activations down,
// gradients back — so a P2P of 3 adds exactly 6; same-worker edges are free.
func TestP2POnlyOnCrossWorkerEdges(t *testing.T) {
	s, err := schedule.GPipe(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ p2p, want int64 }{{0, 9}, {3, 15}} {
		tl, err := refinterp.Replay(s, schedule.CostModel{FUnit: 1, BUnit: 2, P2P: c.p2p})
		if err != nil {
			t.Fatal(err)
		}
		if tl.Makespan != c.want {
			t.Fatalf("P2P=%d: makespan %d, want %d", c.p2p, tl.Makespan, c.want)
		}
		// Worker 0's first forward has no dependency: it starts at 0 and pays
		// no edge cost.
		if tl.Start[0][0] != 0 || tl.End[0][0] != 1 {
			t.Fatalf("P2P=%d: first forward runs [%d, %d), want [0, 1)", c.p2p, tl.Start[0][0], tl.End[0][0])
		}
	}
}

// TestDeadlocksReturnErrors: both classes of construction deadlock — a
// token no op produces, and an op ordered before its producer on the same
// worker — are errors, not hangs or partial timelines.
func TestDeadlocksReturnErrors(t *testing.T) {
	broken := func(workers [][]schedule.Op) *schedule.Schedule {
		return &schedule.Schedule{
			Scheme: "broken", D: 2, N: 1, Workers: workers,
			Replicas:     []schedule.ReplicaMap{{Down: true, WorkerOf: []int{0, 1}}},
			MicroReplica: []int{0}, Synchronous: true,
		}
	}
	for name, s := range map[string]*schedule.Schedule{
		"missing producer": broken([][]schedule.Op{
			{{Kind: schedule.Forward, Stage: 0, Micros: []int{0}}},
			{{Kind: schedule.Backward, Stage: 1, Micros: []int{0}}},
		}),
		"program-order cycle": broken([][]schedule.Op{
			{{Kind: schedule.Forward, Stage: 0, Micros: []int{0}}},
			{
				{Kind: schedule.Backward, Stage: 1, Micros: []int{0}},
				{Kind: schedule.Forward, Stage: 1, Micros: []int{0}},
			},
		}),
	} {
		tl, err := refinterp.Replay(s, schedule.UnitEqual)
		if err == nil || tl != nil || !strings.Contains(err.Error(), "deadlock") {
			t.Fatalf("%s: want a deadlock error and no timeline, got %v, %v", name, tl, err)
		}
		if _, _, err := refinterp.CriticalPath(s); err == nil {
			t.Fatalf("%s: CriticalPath must fail too", name)
		}
	}
}
