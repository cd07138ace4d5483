package engine

import (
	"reflect"
	"testing"

	"chimera/internal/schedule"
)

// TestResidencyRidesShortScheduleMemo: a sweep of fixed-placement Chimera
// keys over many N is served by the few short residency-equivalent
// schedules, through the schedule memo — every profile equal to the one the
// full schedule computes for itself.
func TestResidencyRidesShortScheduleMemo(t *testing.T) {
	e := New(Workers(1))
	for _, n := range []int{16, 24, 32, 64, 128, 256, 512} {
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
	st := e.Stats()
	if st.ScheduleEntries != 1 || st.ScheduleMisses != 1 {
		t.Fatalf("seven N sharing residue 0 built %d schedules (%d entries), want one", st.ScheduleMisses, st.ScheduleEntries)
	}
	s, err := e.Schedule(ChimeraKey(8, 8, 0, schedule.Direct))
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.ScheduleMisses != 1 || s.N != 8 {
		t.Fatalf("the shared entry should be the (8, 8) schedule itself; misses %d, N %d", st.ScheduleMisses, s.N)
	}
}

// TestResidencyKeyScope is the negative half of the periodicity invariant:
// keys outside its scope are never shortened — a list scheduler re-places
// ops against speed factors, so nothing says a shorter schedule places them
// alike (and here it does not).
func TestResidencyKeyScope(t *testing.T) {
	het := ScheduleKey{Scheme: "chimera", D: 8, N: 64, F: 1, Scheduler: "heft", Speed: "1,1,1,1,2,1,1,1"}
	for _, k := range []ScheduleKey{
		het,
		{Scheme: "chimera", D: 8, N: 64, F: 2},
		{Scheme: "chimera", D: 8, N: 64, F: 1, Concat: schedule.ForwardDoubling},
		{Scheme: "chimera", D: 8, N: 64, F: 1, Concat: schedule.BackwardHalving},
		{Scheme: "chimera", D: 8, N: 15, F: 1},
		{Scheme: "gpipe", D: 8, N: 64},
		{Scheme: "pipedream", D: 8, N: 64},
	} {
		if got := k.canonical().residencyEquivalent(); got != k.canonical() {
			t.Errorf("%+v shortened to %+v", k, got)
		}
	}
	if got := ChimeraKey(8, 67, 0, schedule.Direct).residencyEquivalent(); got.N != 11 {
		t.Errorf("fixed chimera (8, 67) maps to N=%d, want 11", got.N)
	}

	e := New(Workers(1))
	got, err := e.Residency(het)
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Schedule(het)
	if err != nil {
		t.Fatal(err)
	}
	if got != s.Residency() || e.Stats().ScheduleMisses != 1 {
		t.Fatal("a list-scheduled key's profile must come from its own schedule")
	}
	short := het
	short.N = 8
	ss, err := e.Schedule(short)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ss.Residency().Workers, got.Workers) {
		t.Fatal("heft placed N=8 and N=64 alike; pick a case that shows why the key is not shortened")
	}
}
