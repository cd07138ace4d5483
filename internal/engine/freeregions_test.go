package engine

import (
	"slices"
	"testing"

	"chimera/internal/schedule"
)

// sameFreeRegions fails unless got is the free-region table of full's own
// replay under cm: worker for worker what (*Readout).FreeRegions reads off
// that replay, and ComputeEnd − GradReady.At for every placement.
func sameFreeRegions(t *testing.T, key ScheduleKey, full *schedule.Schedule, cm schedule.CostModel, got schedule.FreeRegions) {
	t.Helper()
	r, err := full.Readout(cm.ReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	want := r.FreeRegions()
	for w := 0; w < full.D; w++ {
		end, ready, regions := r.ComputeEnd(w), r.GradReady(w), got.AppendWorker(nil, w)
		if len(regions) != len(ready) {
			t.Fatalf("%+v worker %d: %d free regions, %d grad-ready placements", key, w, len(regions), len(ready))
		}
		for i, gr := range ready {
			if want := (schedule.FreeRegion{Stage: int32(gr.Stage), Slack: end - gr.At}); regions[i] != want {
				t.Fatalf("%+v %+v worker %d: free region %+v, full read-out %+v", key, cm, w, regions[i], want)
			}
		}
		if table := want.AppendWorker(nil, w); !slices.Equal(regions, table) {
			t.Fatalf("%+v worker %d: free regions %+v, the read-out's table %+v", key, w, regions, table)
		}
	}
}

// TestFreeRegionsMatchFullReadout: the engine's free regions equal the full
// schedule's read-out on both of its routes. A direct Chimera key under
// either of Eq. 1's unit cost models is closed-form: it replays nothing and
// allocates nothing. F = 2, doubling and halving past one unit, a list
// scheduler's re-placement, and a cost model the closed form does not cover
// (equal passes, a backward of four forwards, a free forward, p2p latency)
// replay. An odd depth fails as Chimera does.
// The closed form's own sweep over every (D, N) is schedule's
// TestChimeraClosedForms.
func TestFreeRegionsMatchFullReadout(t *testing.T) {
	unit := []schedule.CostModel{{FUnit: 1000, BUnit: 2000}, {FUnit: 1000, BUnit: 3000}}
	e := New(Workers(1))
	for _, n := range []int{1, 2, 5, 8, 9, 15, 23, 67} {
		key := ChimeraKey(8, n, 0, schedule.Direct)
		s, err := buildSchedule(key.canonical())
		if err != nil {
			t.Fatal(err)
		}
		for _, cm := range unit {
			got, err := e.FreeRegions(key, cm)
			if err != nil {
				t.Fatalf("%+v: %v", key, err)
			}
			sameFreeRegions(t, key, s, cm, got)
		}
	}
	if st := e.Stats(); st.ReplaysExtended+st.ReplaysFull+st.ReplaysRefused != 0 || st.ScheduleMisses != 0 {
		t.Fatalf("closed-form free regions replayed (%+v)", st)
	}
	key, cm := ChimeraKey(8, 67, 0, schedule.Direct), unit[0]
	var buf [2]schedule.FreeRegion
	if allocs := testing.AllocsPerRun(100, func() {
		f, err := e.FreeRegions(key, cm)
		if err != nil {
			t.Fatal(err)
		}
		for w := range 8 {
			f.AppendWorker(buf[:0], w)
		}
	}); allocs != 0 {
		t.Fatalf("a closed-form free-region read allocates %.1f times, want 0", allocs)
	}

	for _, c := range []struct {
		key ScheduleKey
		cm  schedule.CostModel
	}{
		{ChimeraKey(8, 16, 2, schedule.Direct), cm},
		{ChimeraKey(8, 24, 1, schedule.ForwardDoubling), cm},
		{ChimeraKey(8, 24, 1, schedule.BackwardHalving), unit[1]},
		{ScheduleKey{Scheme: "chimera", D: 8, N: 16, F: 1, Scheduler: "heft", Speed: "1,1,1,1,2,1,1,1"}, cm},
		{key, schedule.UnitEqual},
		{key, schedule.CostModel{FUnit: 1000, BUnit: 4000}},
		{ChimeraKey(8, 9, 0, schedule.Direct), schedule.CostModel{BUnit: 2000}},
		{ChimeraKey(8, 12, 0, schedule.Direct), schedule.CostModel{FUnit: 1000, BUnit: 2000, P2P: 70}},
	} {
		s, err := buildSchedule(c.key.canonical())
		if err != nil {
			t.Fatal(err)
		}
		before := e.Stats()
		got, err := e.FreeRegions(c.key, c.cm)
		if err != nil {
			t.Fatalf("%+v: %v", c.key, err)
		}
		sameFreeRegions(t, c.key, s, c.cm, got)
		if st := e.Stats(); st.ReplaysExtended+st.ReplaysFull == before.ReplaysExtended+before.ReplaysFull {
			t.Fatalf("%+v %+v: out of the closed form's scope, yet nothing replayed", c.key, c.cm)
		}
	}

	odd := ChimeraKey(5, 8, 0, schedule.Direct)
	_, berr := buildSchedule(odd.canonical())
	if _, err := e.FreeRegions(odd, cm); err == nil || berr == nil || err.Error() != berr.Error() {
		t.Fatalf("odd depth: free-region error %v, Chimera %v", err, berr)
	}
}

// FuzzFreeRegions: for any even D ≤ 64, N ≤ 8D, F ∈ {1, 2}, concatenation
// mode and either of Eq. 1's backward costs, the engine's free regions equal
// the full schedule's read-out — closed-form or replayed — and a key Chimera
// rejects fails with Chimera's error. schedule's FuzzFreeRegionsClosedForm
// explores the closed form itself.
func FuzzFreeRegions(f *testing.F) {
	f.Add(uint8(3), uint16(67), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(7), uint16(40), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, f8 uint8, mode uint8, b8 uint8) {
		d := 2 + 2*int(d8%32)
		key := ScheduleKey{Scheme: "chimera", D: d, N: 1 + int(n16)%(8*d), F: 1 + int(f8%2), Concat: schedule.ConcatMode(mode % 3)}
		cm := schedule.CostModel{FUnit: 1000, BUnit: 2000 + 1000*int64(b8%2)}
		got, err := New(Workers(1)).FreeRegions(key, cm)
		s, berr := buildSchedule(key.canonical())
		if (err == nil) != (berr == nil) || (err != nil && err.Error() != berr.Error()) {
			t.Fatalf("%+v: free-region error %v, Chimera %v", key, err, berr)
		}
		if err == nil {
			sameFreeRegions(t, key, s, cm, got)
		}
	})
}
