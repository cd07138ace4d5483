package schedule

import "testing"

// BenchmarkReplayAllocs measures a warm graph replay on the largest tracked
// schedule. The replay pool recycles the timeline and finish-time arrays, so
// steady state is 0 allocs/op — the number CI gates via BENCH_sweep's
// allocs section. Run with -benchmem to see it.
func BenchmarkReplayAllocs(b *testing.B) {
	s, err := Chimera(ChimeraConfig{D: 16, N: 64})
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		b.Fatal(err)
	}
	rc := UnitPractical.ReplayConfig()
	g.ReplayWith(rc).Release() // warm the replay pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ReplayWith(rc).Release()
	}
}
