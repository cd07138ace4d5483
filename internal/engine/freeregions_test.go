package engine

import (
	"slices"
	"testing"

	"chimera/internal/schedule"
)

// FuzzFreeRegions: for any even D ≤ 64, N ≤ 8D, F ∈ {1, 2}, concatenation
// mode and either of Eq. 1's backward costs, the free regions read off
// ReplayEquivalent — the short schedule's replay, extended, or the full
// one's — are the full schedule's own, and a key Chimera rejects fails with
// Chimera's error. Where schedule.ChimeraConfig.FreeRegions answers, its
// table is the same: the planner reads the closed form where there is one
// and this replay otherwise. schedule's FuzzFreeRegionsClosedForm explores
// the closed form itself.
func FuzzFreeRegions(f *testing.F) {
	f.Add(uint8(3), uint16(67), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(7), uint16(40), uint8(1), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, f8 uint8, mode uint8, b8 uint8) {
		d := 2 + 2*int(d8%32)
		key := ScheduleKey{Scheme: "chimera", D: d, N: 1 + int(n16)%(8*d), F: 1 + int(f8%2), Concat: schedule.ConcatMode(mode % 3)}
		cm := schedule.CostModel{FUnit: 1000, BUnit: 2000 + 1000*int64(b8%2)}
		r, err := New(Workers(1)).ReplayEquivalent(key, cm.ReplayConfig(), true)
		s, berr := buildSchedule(key.canonical())
		if (err == nil) != (berr == nil) || (err != nil && err.Error() != berr.Error()) {
			t.Fatalf("%+v: replay error %v, Chimera %v", key, err, berr)
		}
		if err != nil {
			return
		}
		defer r.Release()
		full, err := s.Readout(cm.ReplayConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer full.Release()
		cfg, _ := key.canonical().chimera()
		closed, ok, err := cfg.FreeRegions(cm)
		if err != nil {
			t.Fatal(err)
		}
		got, want := r.FreeRegions(), full.FreeRegions()
		for w := range d {
			table := want.AppendWorker(nil, w)
			if regions := got.AppendWorker(nil, w); !slices.Equal(regions, table) {
				t.Fatalf("%+v %+v worker %d: free regions %+v, full read-out %+v", key, cm, w, regions, table)
			}
			if !ok {
				continue
			}
			if regions := closed.AppendWorker(nil, w); !slices.Equal(regions, table) {
				t.Fatalf("%+v %+v worker %d: closed-form free regions %+v, full read-out %+v", key, cm, w, regions, table)
			}
		}
	})
}
