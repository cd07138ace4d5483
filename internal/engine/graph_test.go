package engine

import (
	"reflect"
	"sync"
	"testing"

	"chimera/internal/schedule"
)

// sameSchedule reports whether a and b agree on every exported field: the
// schedule itself, not the graph and residency caches it keeps beside it.
func sameSchedule(a, b *schedule.Schedule) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// sameAsBuilt fails unless r reads exactly what the schedule buildSchedule
// builds for key replays to.
func sameAsBuilt(t *testing.T, key ScheduleKey, rc schedule.ReplayConfig, r *schedule.Readout) {
	t.Helper()
	built, err := buildSchedule(New().canonical(key))
	if err != nil {
		t.Fatal(err)
	}
	want, err := built.Readout(rc)
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()
	if r.Makespan() != want.Makespan() || r.BubbleRatio() != want.BubbleRatio() {
		t.Fatalf("%+v: makespan %d bubble %v, built schedule's replay %d %v", key, r.Makespan(), r.BubbleRatio(), want.Makespan(), want.BubbleRatio())
	}
	for w := 0; w < key.D; w++ {
		if r.ComputeEnd(w) != want.ComputeEnd(w) {
			t.Fatalf("%+v worker %d: compute-end %d, built schedule's replay %d", key, w, r.ComputeEnd(w), want.ComputeEnd(w))
		}
		got, built := r.GradReady(w), want.GradReady(w)
		if len(got) != len(built) {
			t.Fatalf("%+v worker %d: %d grad-ready entries, built schedule's replay %d", key, w, len(got), len(built))
		}
		for i := range built {
			if got[i] != built[i] {
				t.Fatalf("%+v worker %d: grad-ready %+v, built schedule's replay %+v", key, w, got[i], built[i])
			}
		}
	}
}

// TestOneGraphPerKey: a key's graph is the compiled graph of its memoized
// schedule — one graph per key, one memo entry. Graph builds the schedule
// once, Schedule then returns that schedule, whose Graph() is the graph
// Graph returned; the schedule is the one buildSchedule builds and the graph
// replays to its read-outs.
func TestOneGraphPerKey(t *testing.T) {
	rc := schedule.CostModel{FUnit: 1000, BUnit: 2000, P2P: 10}.ReplayConfig()
	for _, key := range []ScheduleKey{
		ChimeraKey(8, 19, 0, schedule.Direct),
		ChimeraKey(2, 1, 1, schedule.Direct),
		ChimeraKey(6, 6, 0, schedule.ForwardDoubling),
		{Scheme: "chimera", D: 8, N: 16, F: 2},
		{Scheme: "gpipe", D: 4, N: 8},
	} {
		e := New(Workers(1))
		g, err := e.Graph(key)
		if err != nil {
			t.Fatal(err)
		}
		r := g.Readout(rc)
		sameAsBuilt(t, key, rc, r)
		r.Release()
		s, err := e.Schedule(key)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := e.Schedule(key); again != s {
			t.Fatalf("%+v: two Schedule calls returned two schedules", key)
		}
		if sg, err := s.Graph(); sg != g || err != nil {
			t.Fatalf("%+v: the schedule's graph is not the one Graph returned (%v)", key, err)
		}
		want, err := buildSchedule(New().canonical(key))
		if err != nil {
			t.Fatal(err)
		}
		if !sameSchedule(s, want) {
			t.Fatalf("%+v: the memoized schedule differs from the one buildSchedule builds", key)
		}
		if st := e.Stats(); st.ScheduleMisses != 1 || st.ScheduleHits != 2 || st.ScheduleEntries != 1 {
			t.Fatalf("%+v: %d schedule misses, %d hits, %d entries, want 1, 2, 1", key, st.ScheduleMisses, st.ScheduleHits, st.ScheduleEntries)
		}
	}
}

// TestOneGraphPerKeyConcurrent: concurrent first calls of Graph, Schedule
// and a Timeline on one key agree on one graph and one schedule; run under
// -race, the schedule is built and compiled once without a data race.
func TestOneGraphPerKeyConcurrent(t *testing.T) {
	e := New(Workers(4))
	key := ChimeraKey(8, 20, 0, schedule.Direct)
	rc := schedule.UnitPractical.ReplayConfig()
	const calls = 12
	graphs := make([]*schedule.Graph, calls)
	scheds := make([]*schedule.Schedule, calls)
	makespans := make([]int64, calls)
	var wg sync.WaitGroup
	for i := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0:
				graphs[i], _ = e.Graph(key)
			case 1:
				scheds[i], _ = e.Schedule(key)
				graphs[i], _ = scheds[i].Graph()
			default:
				graphs[i], _ = e.Graph(key)
				tl := graphs[i].Readout(rc).Timeline()
				makespans[i] = tl.Makespan
				scheds[i] = graphs[i].Source()
				tl.Release()
			}
		}()
	}
	wg.Wait()
	for i := range calls {
		if graphs[i] == nil || graphs[i] != graphs[0] {
			t.Fatalf("call %d saw graph %p, call 0 %p", i, graphs[i], graphs[0])
		}
		if scheds[i] != nil && scheds[i] != scheds[1] {
			t.Fatalf("call %d saw schedule %p, call 1 %p", i, scheds[i], scheds[1])
		}
		if i%3 == 2 && makespans[i] != makespans[2] {
			t.Fatalf("call %d replayed makespan %d, call 2 %d", i, makespans[i], makespans[2])
		}
	}
	if st := e.Stats(); st.ScheduleMisses != 1 {
		t.Fatalf("%d schedule misses, want one", st.ScheduleMisses)
	}
}
