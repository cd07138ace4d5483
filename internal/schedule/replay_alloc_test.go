package schedule

import "testing"

// warmReplayCase is the largest tracked schedule (Chimera D=16 N=64)
// compiled, with one replay already through the pool.
func warmReplayCase(tb testing.TB) (*Graph, ReplayConfig) {
	s, err := Chimera(ChimeraConfig{D: 16, N: 64})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	rc := UnitPractical.ReplayConfig()
	g.Readout(rc).Timeline().Release() // warm the replay pool
	return g, rc
}

// BenchmarkReplayAllocs measures a warm graph replay. The replay pool
// recycles the timeline and finish-time arrays, so steady state is 0
// allocs/op — TestReplayAllocFree gates it. Run with -benchmem to see it.
func BenchmarkReplayAllocs(b *testing.B) {
	g, rc := warmReplayCase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Readout(rc).Timeline().Release()
	}
}

// TestReplayAllocFree is the benchmark's number as a gate. Under the race
// detector sync.Pool drops a quarter of its Puts on purpose, so there the
// count is logged, not asserted.
func TestReplayAllocFree(t *testing.T) {
	g, rc := warmReplayCase(t)
	allocs := testing.AllocsPerRun(100, func() { g.Readout(rc).Timeline().Release() })
	if raceEnabled {
		t.Logf("warm replay: %v allocs/op under -race (not gated)", allocs)
	} else if allocs != 0 {
		t.Fatalf("warm replay allocates %v times per op, want 0", allocs)
	}
}

// TestExtendedReadoutReuse: an extended read-out goes back to the pool as
// clean scratch — the replay that draws it next reads its own schedule's
// times, not the previous one's shift — and replay, check and extension
// together stay allocation-free (the check reads the finish array in place).
func TestExtendedReadoutReuse(t *testing.T) {
	g, rc := warmReplayCase(t)
	short := mustGraph(t, ChimeraConfig{D: 16, N: 32})
	plain := g.Readout(rc)
	makespan, end0 := plain.Makespan(), plain.ComputeEnd(0)
	plain.Release()
	for i := 0; i < 8; i++ { // under -race the pool drops some Puts: go round a few times
		r := short.Readout(rc)
		if !r.Extend(5) {
			t.Fatal("the short replay's period check refused")
		}
		r.Release()
		r = g.Readout(rc)
		if r.Makespan() != makespan || r.ComputeEnd(0) != end0 || r.units != 0 || r.shift != 0 {
			t.Fatalf("a replay on pooled scratch reads makespan %d compute-end %d (units %d, shift %d), want %d %d",
				r.Makespan(), r.ComputeEnd(0), r.units, r.shift, makespan, end0)
		}
		r.Timeline() // would panic on scratch still marked extended
		r.Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		r := short.Readout(rc)
		r.Extend(5)
		r.Release()
	})
	if raceEnabled {
		t.Logf("extended replay: %v allocs/op under -race (not gated)", allocs)
	} else if allocs != 0 {
		t.Fatalf("extended replay allocates %v times per op, want 0", allocs)
	}
}
