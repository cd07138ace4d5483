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
