package engine

import (
	"testing"

	"chimera/internal/schedule"
)

// TestCriticalPathBuildsNoSchedule: an in-scope critical path builds no
// schedule and runs no replay — the closed form fills the memo under the
// full key, equal to the full schedule's probe.
func TestCriticalPathBuildsNoSchedule(t *testing.T) {
	e := New(Workers(1))
	key := ChimeraKey(16, 256, 0, schedule.Direct)
	cf, cb, err := e.CriticalPath(key)
	if err != nil {
		t.Fatal(err)
	}
	full, err := buildSchedule(key)
	if err != nil {
		t.Fatal(err)
	}
	wcf, wcb, err := schedule.CriticalPath(full)
	if err != nil {
		t.Fatal(err)
	}
	if cf != wcf || cb != wcb {
		t.Fatalf("critical path (%d, %d), full schedule's (%d, %d)", cf, cb, wcf, wcb)
	}
	st := e.Stats()
	if st.ScheduleMisses != 0 || st.ScheduleEntries != 0 || st.CriticalEntries != 1 {
		t.Fatalf("the closed form should build and replay nothing: %+v", st)
	}
	if _, _, err := e.CriticalPath(key); err != nil || e.Stats().CriticalHits != 1 {
		t.Fatalf("second lookup should hit the memo under the full key: %v, %+v", err, e.Stats())
	}
}

// TestCriticalPathProbesOutOfScope: a key outside the closed form's scope
// probes its own memoized schedule — one build — and an invalid key fails
// as its construction does.
func TestCriticalPathProbesOutOfScope(t *testing.T) {
	for _, key := range []ScheduleKey{
		{Scheme: "chimera", D: 8, N: 64, F: 2},
		{Scheme: "chimera", D: 8, N: 64, F: 1, Concat: schedule.BackwardHalving},
		{Scheme: "chimera", D: 8, N: 64, F: 1, Scheduler: "heft", Speed: "1,1,1,1,2,1,1,1"},
		{Scheme: "gpipe", D: 8, N: 64},
	} {
		e := New(Workers(1))
		cf, cb, err := e.CriticalPath(key)
		if err != nil {
			t.Fatalf("%+v: %v", key, err)
		}
		full, err := buildSchedule(New().canonical(key))
		if err != nil {
			t.Fatal(err)
		}
		if wcf, wcb, err := schedule.CriticalPath(full); err != nil || cf != wcf || cb != wcb {
			t.Fatalf("%+v: critical path (%d, %d), its schedule's (%d, %d, %v)", key, cf, cb, wcf, wcb, err)
		}
		if st := e.Stats(); st.ScheduleMisses != 1 || st.ScheduleEntries != 1 {
			t.Fatalf("%+v: want one schedule built: %+v", key, st)
		}
	}
	for _, key := range []ScheduleKey{ChimeraKey(5, 8, 1, schedule.Direct), ChimeraKey(8, 12, 1, schedule.ForwardDoubling)} {
		_, berr := buildSchedule(New().canonical(key))
		if _, _, err := New(Workers(1)).CriticalPath(key); err == nil || berr == nil || err.Error() != berr.Error() {
			t.Errorf("%+v: critical path error %v, construction %v", key, err, berr)
		}
	}
}
