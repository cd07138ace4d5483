package engine

import (
	"testing"

	"chimera/internal/schedule"
)

// stragglerCosts prices worker 1 at three times the others: a replay that
// does not reach its steady state within two units, so Extend refuses it.
var stragglerCosts = schedule.ReplayConfig{
	OpCost: func(w int, op schedule.Op) int64 {
		c := int64(100)
		if op.Kind == schedule.Backward {
			c = 200
		}
		if w == 1 {
			c *= 3
		}
		return c
	},
	EdgeCost: func(schedule.Op) int64 { return 7 },
}

// sameAsFull fails unless r reads exactly what key's own schedule replays to.
func sameAsFull(t *testing.T, key ScheduleKey, rc schedule.ReplayConfig, r *schedule.Readout) {
	t.Helper()
	full, err := buildSchedule(key.canonical())
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Readout(rc)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()
	if r.Makespan() != want.Makespan() || r.BubbleRatio() != want.BubbleRatio() {
		t.Fatalf("%+v: makespan %d bubble %v, full replay %d %v", key, r.Makespan(), r.BubbleRatio(), want.Makespan(), want.BubbleRatio())
	}
	for w := 0; w < key.D; w++ {
		if r.ComputeEnd(w) != want.ComputeEnd(w) {
			t.Fatalf("%+v worker %d: compute-end %d, full replay %d", key, w, r.ComputeEnd(w), want.ComputeEnd(w))
		}
		got, full := r.GradReady(w), want.GradReady(w)
		if len(got) != len(full) {
			t.Fatalf("%+v worker %d: %d grad-ready entries, full replay %d", key, w, len(got), len(full))
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("%+v worker %d: grad-ready %+v, full replay %+v", key, w, got[i], full[i])
			}
		}
	}
}

// TestReplayEquivalentPaths drives the one short-or-full decision down each
// of its branches: the answer is always the full schedule's, Stats says
// which branch served it, and only the branches that must build the long
// schedule do.
func TestReplayEquivalentPaths(t *testing.T) {
	unit := schedule.CostModel{FUnit: 1000, BUnit: 2000, P2P: 10}.ReplayConfig()
	long := ChimeraKey(8, 67, 0, schedule.Direct)
	for _, c := range []struct {
		name                    string
		key                     ScheduleKey
		rc                      schedule.ReplayConfig
		uniform                 bool
		extended, full, refused uint64
		builtN                  []int // the schedule memo's entries afterwards
	}{
		{"homogeneous long", long, unit, true, 1, 0, 0, []int{19}},
		{"under three units", ChimeraKey(8, 23, 0, schedule.Direct), unit, true, 0, 1, 0, []int{23}},
		{"speed factors skip the attempt", long, stragglerCosts, false, 0, 1, 0, []int{67}},
		{"unsettled replay is refused", long, stragglerCosts, true, 0, 1, 1, []int{19, 67}},
		{"F=2", ScheduleKey{Scheme: "chimera", D: 8, N: 64, F: 2}, unit, true, 0, 1, 0, []int{64}},
		{"halving", ScheduleKey{Scheme: "chimera", D: 8, N: 64, F: 1, Concat: schedule.BackwardHalving}, unit, true, 0, 1, 0, []int{64}},
		{"list-scheduled", ScheduleKey{Scheme: "chimera", D: 8, N: 64, F: 1, Scheduler: "heft", Speed: "1,1,1,1,2,1,1,1"}, unit, true, 0, 1, 0, []int{64}},
		{"baseline", ScheduleKey{Scheme: "gpipe", D: 8, N: 64}, unit, true, 0, 1, 0, []int{64}},
	} {
		e := New(Workers(1))
		r, err := e.ReplayEquivalent(c.key, c.rc, c.uniform)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameAsFull(t, c.key, c.rc, r)
		r.Release()
		st := e.Stats()
		if st.ReplaysExtended != c.extended || st.ReplaysFull != c.full || st.ReplaysRefused != c.refused {
			t.Errorf("%s: extended/full/refused = %d/%d/%d, want %d/%d/%d", c.name,
				st.ReplaysExtended, st.ReplaysFull, st.ReplaysRefused, c.extended, c.full, c.refused)
		}
		built := map[int]bool{}
		e.schedules.Range(func(k ScheduleKey, _ schedOutcome) bool { built[k.N] = true; return true })
		if len(built) != len(c.builtN) {
			t.Errorf("%s: schedule memo holds N ∈ %v, want %v", c.name, built, c.builtN)
		}
		for _, n := range c.builtN {
			if !built[n] {
				t.Errorf("%s: schedule memo holds N ∈ %v, want %v", c.name, built, c.builtN)
			}
		}
		if e.Reset(); e.Stats().ReplaysExtended+e.Stats().ReplaysFull+e.Stats().ReplaysRefused != 0 {
			t.Errorf("%s: Reset left replay counts behind", c.name)
		}
	}
}

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
	if st.ReplaysExtended+st.ReplaysFull+st.ReplaysRefused != 0 || st.ScheduleMisses != 0 || st.ScheduleEntries != 0 || st.CriticalEntries != 1 {
		t.Fatalf("the closed form should build and replay nothing: %+v", st)
	}
	if _, _, err := e.CriticalPath(key); err != nil || e.Stats().CriticalHits != 1 {
		t.Fatalf("second lookup should hit the memo under the full key: %v, %+v", err, e.Stats())
	}
}

// TestCriticalPathProbesOutOfScope: a key outside the closed form's scope
// probes its own memoized schedule — one build, no replay through
// ReplayEquivalent — and an invalid key fails as its construction does.
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
		full, err := buildSchedule(key.canonical())
		if err != nil {
			t.Fatal(err)
		}
		if wcf, wcb, err := schedule.CriticalPath(full); err != nil || cf != wcf || cb != wcb {
			t.Fatalf("%+v: critical path (%d, %d), its schedule's (%d, %d, %v)", key, cf, cb, wcf, wcb, err)
		}
		if st := e.Stats(); st.ScheduleMisses != 1 || st.ReplaysExtended+st.ReplaysFull+st.ReplaysRefused != 0 {
			t.Fatalf("%+v: want one schedule built and no ReplayEquivalent call: %+v", key, st)
		}
	}
	for _, key := range []ScheduleKey{ChimeraKey(5, 8, 1, schedule.Direct), ChimeraKey(8, 12, 1, schedule.ForwardDoubling)} {
		_, berr := buildSchedule(key.canonical())
		if _, _, err := New(Workers(1)).CriticalPath(key); err == nil || berr == nil || err.Error() != berr.Error() {
			t.Errorf("%+v: critical path error %v, construction %v", key, err, berr)
		}
	}
}
