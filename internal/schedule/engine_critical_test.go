package schedule_test

import (
	"testing"

	"chimera/internal/engine"
	"chimera/internal/refinterp"
	"chimera/internal/schedule"
)

// TestEngineCriticalPathMatchesFullSchedule: for every even D ≤ 128 and
// every N of the periodicity list, the (Cf, Cb) the engine memoizes for a
// direct Chimera key are the closed form's, and the engine builds no
// schedule for them. The oracle sweep's TestCriticalPathClosedForm row holds
// the closed form to the full schedule's probe at each of these points (on
// a plain run; -short and -race shrink its depths).
func TestEngineCriticalPathMatchesFullSchedule(t *testing.T) {
	e := engine.New(engine.Workers(1))
	for d := 2; d <= 128; d += 2 {
		for _, n := range schedule.PeriodicNs(d) {
			wcf, wcb, ok, err := schedule.ChimeraConfig{D: d, N: n}.CriticalPath()
			if err != nil || !ok {
				t.Fatalf("D=%d N=%d: no closed form (%v)", d, n, err)
			}
			cf, cb, err := e.CriticalPath(engine.ChimeraKey(d, n, 0, schedule.Direct))
			if err != nil {
				t.Fatal(err)
			}
			if cf != wcf || cb != wcb {
				t.Fatalf("D=%d N=%d: engine critical path (%d, %d), closed form's (%d, %d)", d, n, cf, cb, wcf, wcb)
			}
		}
	}
	if st := e.Stats(); st.ScheduleMisses != 0 {
		t.Fatalf("the engine built %d schedules for closed-form keys", st.ScheduleMisses)
	}
}

// TestCriticalPathClosedFormMatchesInterpreter: at every even D ≤ 8, every
// N ≤ 2D + 1 and every N of the periodicity list, the closed form is the
// reference interpreter's probe of the full schedule — an oracle that does
// not share the compiled graph with the closed form's own gate.
func TestCriticalPathClosedFormMatchesInterpreter(t *testing.T) {
	for d := 2; d <= 8; d += 2 {
		ns := schedule.PeriodicNs(d)
		for n := 1; n < 2*d; n++ {
			ns = append(ns, n)
		}
		for _, n := range ns {
			cfg := schedule.ChimeraConfig{D: d, N: n}
			cf, cb, ok, err := cfg.CriticalPath()
			if err != nil || !ok {
				t.Fatalf("D=%d N=%d: no closed form (%v)", d, n, err)
			}
			s, err := schedule.Chimera(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wcf, wcb, err := refinterp.CriticalPath(s)
			if err != nil {
				t.Fatal(err)
			}
			if cf != wcf || cb != wcb {
				t.Fatalf("D=%d N=%d: closed form (%d, %d), interpreter (%d, %d)", d, n, cf, cb, wcf, wcb)
			}
		}
	}
}
