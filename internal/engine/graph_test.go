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

// TestOneGraphPerKey: a fixed-placement, direct, F = 1 Chimera key memoizes
// the graph the slot formulas write. ReplayEquivalent replays it and builds no op list;
// Engine.Schedule builds the op list on first use, equal to Chimera's, and
// that schedule's Graph() is the graph ReplayEquivalent replayed — one
// graph per key, one memo entry.
func TestOneGraphPerKey(t *testing.T) {
	rc := schedule.CostModel{FUnit: 1000, BUnit: 2000, P2P: 10}.ReplayConfig()
	for _, key := range []ScheduleKey{
		ChimeraKey(8, 19, 0, schedule.Direct),
		ChimeraKey(2, 1, 1, schedule.Direct),
		ChimeraKey(6, 6, 0, schedule.ForwardDoubling),
	} {
		e := New(Workers(1))
		before := schedule.ChimeraBuilds()
		r, err := e.ReplayEquivalent(key, rc, true)
		if err != nil {
			t.Fatal(err)
		}
		if n := schedule.ChimeraBuilds() - before; n != 0 {
			t.Fatalf("%+v: the replay built %d op lists, want none", key, n)
		}
		sameAsFull(t, key, rc, r)
		r.Release()
		g, err := e.Graph(key)
		if err != nil {
			t.Fatal(err)
		}
		before = schedule.ChimeraBuilds()
		s, err := e.Schedule(key)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := e.Schedule(key); again != s || schedule.ChimeraBuilds()-before != 1 {
			t.Fatalf("%+v: two Schedule calls built %d op lists (same: %v), want one", key, schedule.ChimeraBuilds()-before, again == s)
		}
		if sg, err := s.Graph(); sg != g || err != nil {
			t.Fatalf("%+v: the schedule's graph is not the one ReplayEquivalent replayed (%v)", key, err)
		}
		want, err := buildSchedule(key.canonical())
		if err != nil {
			t.Fatal(err)
		}
		if !sameSchedule(s, want) {
			t.Fatalf("%+v: the schedule behind the graph differs from Chimera's", key)
		}
		if st := e.Stats(); st.ScheduleMisses != 1 || st.ScheduleEntries != 1 {
			t.Fatalf("%+v: %d schedule misses, %d entries, want one of each", key, st.ScheduleMisses, st.ScheduleEntries)
		}
	}
}

// TestOneGraphPerKeyConcurrent: concurrent first calls of Graph, Schedule
// and a Timeline on one key agree on one graph and one schedule; run under
// -race, the lazy op list is built without a data race.
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
