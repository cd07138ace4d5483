package schedule_test

import (
	"testing"

	"chimera/internal/engine"
	"chimera/internal/refinterp"
	"chimera/internal/schedule"
)

// TestEngineCriticalPathMatchesFullSchedule: for every even D ≤ 64 and every
// N of the periodicity list, the (Cf, Cb) the engine memoizes — closed-form,
// so the engine neither builds nor replays — are the full schedule's own.
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
