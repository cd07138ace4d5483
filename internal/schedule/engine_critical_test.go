package schedule_test

import (
	"testing"

	"chimera/internal/engine"
	"chimera/internal/schedule"
)

// TestEngineCriticalPathMatchesFullSchedule: for every even D ≤ 64 and every
// N of the periodicity list, the (Cf, Cb) the engine memoizes — probed on the
// short schedule wherever ReplayEquivalent names one — are the full
// schedule's own.
func TestEngineCriticalPathMatchesFullSchedule(t *testing.T) {
	e := engine.New(engine.Workers(1))
	for d := 2; d <= schedule.ExhaustiveD(64, 16); d += 2 {
		for _, n := range schedule.PeriodicNs(d) {
			full, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: n})
			if err != nil {
				t.Fatal(err)
			}
			wcf, wcb, err := schedule.CriticalPath(full)
			if err != nil {
				t.Fatal(err)
			}
			cf, cb, err := e.CriticalPath(engine.ChimeraKey(d, n, 0, schedule.Direct))
			if err != nil {
				t.Fatal(err)
			}
			if cf != wcf || cb != wcb {
				t.Fatalf("D=%d N=%d: engine critical path (%d, %d), full schedule's (%d, %d)", d, n, cf, cb, wcf, wcb)
			}
		}
	}
	if st := e.Stats(); st.ReplaysRefused != 0 || st.ReplaysExtended == 0 {
		t.Fatalf("homogeneous probes must extend and never be refused: %+v", st)
	}
}
