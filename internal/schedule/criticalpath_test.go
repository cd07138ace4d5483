package schedule

import "testing"

// probeCritical is CriticalPath on the schedule Chimera builds for cfg; it
// fails exactly when and as Chimera(cfg) does.
func probeCritical(cfg ChimeraConfig) (cf, cb int, err error) {
	return (&sweepPoint{cfg: cfg}).critical()
}

// TestCriticalPathClosedFormScope: the closed form answers, equal to the
// probe, for the configurations Chimera builds direct (doubling or halving
// at N ≤ D, F = 1 or 0); answers nothing, and no error, outside Residency's
// scope (F > 1, doubling or halving at N > D); and for invalid
// configurations returns Chimera's own error.
func TestCriticalPathClosedFormScope(t *testing.T) {
	for _, cfg := range []ChimeraConfig{
		{D: 8, N: 8, Concat: ForwardDoubling}, {D: 8, N: 5, Concat: BackwardHalving},
		{D: 8, N: 64, F: 1}, {D: 8, N: 3, F: 0},
	} {
		cf, cb, ok, err := cfg.CriticalPath()
		wcf, wcb, perr := probeCritical(cfg)
		if err != nil || perr != nil || !ok || cf != wcf || cb != wcb {
			t.Fatalf("%+v: closed form (%d, %d, %v, %v), probe (%d, %d, %v)", cfg, cf, cb, ok, err, wcf, wcb, perr)
		}
	}
	for _, cfg := range []ChimeraConfig{
		{D: 8, N: 64, F: 2}, {D: 8, N: 4, F: 4},
		{D: 8, N: 64, Concat: ForwardDoubling}, {D: 8, N: 64, Concat: BackwardHalving},
	} {
		if _, _, ok, err := cfg.CriticalPath(); ok || err != nil {
			t.Errorf("%+v: out of scope, got (%v, %v), want no answer and no error", cfg, ok, err)
		}
	}
	for _, cfg := range []ChimeraConfig{
		{D: 0, N: 4}, {D: 5, N: 64}, {D: -2, N: 3}, {D: 8, N: 0}, {D: 8, N: -3},
		{D: 8, N: 4, F: -1}, {D: 8, N: 4, F: 3},
		{D: 8, N: 12, Concat: ForwardDoubling}, {D: 8, N: 20, Concat: BackwardHalving},
		{D: 8, N: 16, Concat: ConcatMode(7)},
	} {
		_, serr := Chimera(cfg)
		_, _, ok, err := cfg.CriticalPath()
		if serr == nil || err == nil || ok || err.Error() != serr.Error() {
			t.Errorf("%+v: closed form says (%v, %v), Chimera %v", cfg, ok, err, serr)
		}
	}
}

// FuzzCriticalClosedForm: over fuzzer-chosen even D ≤ 256, N ≤ 4096, F and
// concatenation mode, the closed form is the probe whenever it answers, it
// answers for every direct F = 1 configuration, and it fails exactly when —
// and as — Chimera does. The committed corpus (testdata/fuzz) replays on
// every go test.
func FuzzCriticalClosedForm(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint16(7), uint8(1), uint8(1))
	f.Add(uint8(7), uint16(67), uint8(0), uint8(2))
	f.Add(uint8(15), uint16(95), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, f8 uint8, mode uint8) {
		cfg := ChimeraConfig{D: 2 + 2*int(d8%128), N: 1 + int(n16%4096), F: int(f8 % 5), Concat: ConcatMode(mode % 3)}
		cf, cb, ok, err := cfg.CriticalPath()
		if !ok && err == nil {
			if cfg.F <= 1 && (cfg.N <= cfg.D || cfg.Concat == Direct) {
				t.Fatalf("%+v: direct F = 1 configuration has no closed form", cfg)
			}
			if _, serr := Chimera(cfg); serr != nil {
				t.Fatalf("%+v: out of scope without an error, Chimera %v", cfg, serr)
			}
			return
		}
		wcf, wcb, perr := probeCritical(cfg)
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("%+v: closed form error %v, Chimera %v", cfg, err, perr)
		}
		if err == nil && (cf != wcf || cb != wcb) {
			t.Fatalf("%+v: closed form (%d, %d), probe (%d, %d)", cfg, cf, cb, wcf, wcb)
		}
	})
}
