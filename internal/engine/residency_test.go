package engine

import (
	"reflect"
	"testing"

	"chimera/internal/schedule"
)

// TestResidencyBuildsNoSchedule: a sweep of fixed-placement Chimera keys
// over many N builds no schedule at all — every profile is closed-form,
// memoized once per min(N, D) in the residency table, equal to the one the
// full schedule walks for itself, and recalled without allocating.
func TestResidencyBuildsNoSchedule(t *testing.T) {
	e := New(Workers(1))
	for _, n := range []int{2, 5, 8, 16, 24, 67, 512} {
		key := ChimeraKey(8, n, 0, schedule.Direct)
		got, err := e.Residency(key)
		if err != nil {
			t.Fatal(err)
		}
		full, err := buildSchedule(key.canonical())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, full.Residency()) {
			t.Fatalf("N=%d: engine profile differs from the full schedule's", n)
		}
	}
	if st := e.Stats(); st.ScheduleMisses != 0 || st.ScheduleEntries != 0 {
		t.Fatalf("residency lookups built %d schedules (%d entries), want none", st.ScheduleMisses, st.ScheduleEntries)
	}
	if hits, misses := e.residencies.Stats(); e.residencies.Len() != 3 || misses != 3 || hits != 4 {
		t.Fatalf("residency table: %d entries, %d misses, %d hits; want one entry and miss per min(N, D) ∈ {2, 5, 8}, four hits", e.residencies.Len(), misses, hits)
	}
	key := ChimeraKey(8, 256, 0, schedule.Direct)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Residency(key); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm residency lookup allocates %.1f times, want 0", allocs)
	}
	if _, err := e.Residency(ChimeraKey(5, 64, 0, schedule.Direct)); err == nil {
		t.Fatal("an odd depth must report Chimera's error")
	}
	e.Reset()
	if e.residencies.Len() != 0 {
		t.Fatal("Reset left residency entries behind")
	}
}

// TestResidencyKeyScope is the negative half of the closed form: a key
// outside its scope adds no residency-table entry and gets the profile its
// own schedule walks — F = 2, doubling and halving past N = D and the
// baselines have no closed form, and a list scheduler re-places ops against
// speed factors, so nothing says a shorter schedule places them alike (and
// here it does not). A key in scope, a list policy on a uniform cluster
// among them, builds nothing and shares the entry at min(N, D).
func TestResidencyKeyScope(t *testing.T) {
	het := ScheduleKey{Scheme: "chimera", D: 8, N: 64, F: 1, Scheduler: "heft", Speed: "1,1,1,1,2,1,1,1"}
	e := New(Workers(1))
	for _, k := range []ScheduleKey{
		het,
		{Scheme: "chimera", D: 8, N: 64, F: 2},
		{Scheme: "chimera", D: 8, N: 64, F: 1, Concat: schedule.ForwardDoubling},
		{Scheme: "chimera", D: 8, N: 64, F: 1, Concat: schedule.BackwardHalving},
		{Scheme: "gpipe", D: 8, N: 64},
		{Scheme: "pipedream", D: 8, N: 64},
	} {
		got, err := e.Residency(k)
		if err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		s, err := e.Schedule(k)
		if err != nil {
			t.Fatal(err)
		}
		if got != s.Residency() || e.residencies.Len() != 0 {
			t.Fatalf("%+v: the profile must come from the key's own schedule, with no residency entry (%d entries)", k, e.residencies.Len())
		}
	}
	short := het
	short.N = 8
	ss, err := e.Schedule(short)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Residency(het)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ss.Residency().Workers, got.Workers) {
		t.Fatal("heft placed N=8 and N=64 alike; pick a case that shows why the key is not shortened")
	}
	// A key Chimera rejects leaves no entry either: a valid key that shares
	// its min(N, D) is not answered with the other's error.
	if _, err := e.Residency(ChimeraKey(4, 6, 1, schedule.ForwardDoubling)); err == nil {
		t.Fatal("doubling at N = 6, D = 4 must report Chimera's error")
	}
	if _, err := e.Residency(ChimeraKey(4, 8, 1, schedule.ForwardDoubling)); err != nil || e.residencies.Len() != 0 {
		t.Fatalf("doubling at N = 8, D = 4: %v, %d residency entries", err, e.residencies.Len())
	}

	e.Reset()
	uniform := ScheduleKey{Scheme: "chimera", D: 8, N: 3, Scheduler: "heft", Speed: "1,1,1,1,1,1,1,1"} // fixed placement
	for k, n := range map[ScheduleKey]int{
		ChimeraKey(8, 67, 0, schedule.Direct):         8,
		ChimeraKey(8, 15, 0, schedule.Direct):         8,
		ChimeraKey(8, 5, 0, schedule.ForwardDoubling): 5, // N ≤ D builds direct
		uniform: 3,
	} {
		if _, err := e.Residency(k); err != nil {
			t.Fatalf("%+v: %v", k, err)
		}
		if _, ok := e.residencies.Cached(ChimeraKey(8, n, 1, schedule.Direct)); !ok {
			t.Errorf("%+v: no residency entry at direct N=%d", k, n)
		}
	}
	if st := e.Stats(); st.ScheduleMisses != 0 || e.residencies.Len() != 3 {
		t.Fatalf("in-scope keys built %d schedules and left %d residency entries, want none and 3", st.ScheduleMisses, e.residencies.Len())
	}
}
