package engine

import (
	"reflect"
	"testing"

	"chimera/internal/schedule"
)

// sameFreeRegions fails unless got is the free-region table of full's own
// replay under cm: equal to what (*Readout).FreeRegions reads off that
// replay, and to ComputeEnd − GradReady.At for every placement.
func sameFreeRegions(t *testing.T, key ScheduleKey, full *schedule.Schedule, cm schedule.CostModel, got *schedule.FreeRegions) {
	t.Helper()
	r, err := full.Readout(cm.ReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	if want := r.FreeRegions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%+v %+v: free regions differ from the full read-out's", key, cm)
	}
	for w := 0; w < full.D; w++ {
		end, ready, regions := r.ComputeEnd(w), r.GradReady(w), got.Worker(w)
		if len(regions) != len(ready) {
			t.Fatalf("%+v worker %d: %d free regions, %d grad-ready placements", key, w, len(regions), len(ready))
		}
		for i, gr := range ready {
			if want := (schedule.FreeRegion{Stage: int32(gr.Stage), Slack: end - gr.At}); regions[i] != want {
				t.Fatalf("%+v worker %d: free region %+v, full read-out %+v", key, w, regions[i], want)
			}
		}
	}
}

// TestFreeRegionsMatchFullReadout: the memoized free regions of every direct
// Chimera key with even D ≤ 32 and N ≤ 4D + 1, under both of Eq. 1's unit
// cost models, equal the full schedule's read-out, whether the short
// schedule's extended replay or the full one served them. A warm lookup
// allocates nothing, Reset clears the table, Capacity bounds it, and an odd
// depth fails as Chimera does.
func TestFreeRegionsMatchFullReadout(t *testing.T) {
	maxD := 32
	if testing.Short() {
		maxD = 16
	}
	var extended, full uint64
	for d := 2; d <= maxD; d += 2 {
		e := New(Workers(1))
		for n := 1; n <= 4*d+1; n++ {
			key := ChimeraKey(d, n, 0, schedule.Direct)
			s, err := buildSchedule(key.canonical())
			if err != nil {
				t.Fatal(err)
			}
			for _, bUnit := range []int64{2000, 3000} {
				cm := schedule.CostModel{FUnit: 1000, BUnit: bUnit}
				got, err := e.FreeRegions(key, cm)
				if err != nil {
					t.Fatalf("%+v: %v", key, err)
				}
				sameFreeRegions(t, key, s, cm, got)
				if again, err := e.FreeRegions(key, cm); err != nil || again != got {
					t.Fatalf("%+v: a second lookup did not recall the table (%v)", key, err)
				}
			}
		}
		st := e.Stats()
		extended, full = extended+st.ReplaysExtended, full+st.ReplaysFull
		if hits, misses := e.freeRegions.Stats(); misses != uint64(2*(4*d+1)) || hits != misses {
			t.Fatalf("D=%d: %d misses and %d hits, want one miss and one hit per (N, BUnit)", d, misses, hits)
		}
	}
	if extended == 0 || full == 0 {
		t.Fatalf("extended/full replays = %d/%d: the sweep must cover both paths", extended, full)
	}

	e := New(Workers(1))
	key, cm := ChimeraKey(8, 67, 0, schedule.Direct), schedule.CostModel{FUnit: 1000, BUnit: 2000}
	if _, err := e.FreeRegions(key, cm); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.FreeRegions(key, cm); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm free-region lookup allocates %.1f times, want 0", allocs)
	}
	if e.Reset(); e.freeRegions.Len() != 0 {
		t.Fatal("Reset left free-region entries behind")
	}
	if hits, misses := e.freeRegions.Stats(); hits+misses != 0 {
		t.Fatal("Reset left free-region counts behind")
	}

	bounded := New(Workers(1), Capacity(2))
	for _, n := range []int{8, 16, 67} {
		if _, err := bounded.FreeRegions(ChimeraKey(8, n, 0, schedule.Direct), cm); err != nil {
			t.Fatal(err)
		}
	}
	if bounded.freeRegions.Len() != 2 || bounded.freeRegions.Evictions() != 1 {
		t.Fatalf("Capacity(2): %d entries, %d evictions; want 2 and 1", bounded.freeRegions.Len(), bounded.freeRegions.Evictions())
	}

	odd := ChimeraKey(5, 8, 0, schedule.Direct)
	_, berr := buildSchedule(odd.canonical())
	if _, err := e.FreeRegions(odd, cm); err == nil || berr == nil || err.Error() != berr.Error() {
		t.Fatalf("odd depth: free-region error %v, Chimera %v", err, berr)
	}
}

// FuzzFreeRegions: for any even D ≤ 64, N ≤ 8D, F ∈ {1, 2}, concatenation
// mode and either of Eq. 1's backward costs, the engine's free regions equal
// the full schedule's read-out — whichever replay served them — and a key
// Chimera rejects fails with Chimera's error.
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
