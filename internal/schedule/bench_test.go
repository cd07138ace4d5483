package schedule

import "testing"

func BenchmarkChimeraConstructD32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := Chimera(ChimeraConfig{D: 32, N: 32})
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

func BenchmarkChimeraConstructD32F4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Chimera(ChimeraConfig{D: 32, N: 32, F: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChimeraBuildD16N256 is the cold planner's unit of construction
// work: a long direct-concatenation schedule (8192 ops), each written once
// into the schedule's one op array. Allocations are reported because the
// build is allocation-bound: they should stay a constant, not grow with D or
// N (TestChimeraBuildWritesOnce gates count and bytes).
func BenchmarkChimeraBuildD16N256(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Chimera(ChimeraConfig{D: 16, N: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileD16N256 is the cold planner's other unit of construction
// work: compiling that schedule's 8192 ops to the graph IR — producer table,
// shape table, predecessor rows, topological order.
func BenchmarkCompileD16N256(b *testing.B) {
	s, err := Chimera(ChimeraConfig{D: 16, N: 256})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compileGraph(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayD32N128 is a whole per-op replay: price, run the kernel,
// present the Timeline, release it. Releasing is what keeps it measuring the
// replay: a Timeline never handed back leaves the pool empty, and every
// iteration then allocates a fresh Readout.
func BenchmarkReplayD32N128(b *testing.B) {
	s, err := Chimera(ChimeraConfig{D: 32, N: 128, Concat: Direct})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Readout(UnitPractical.ReplayConfig())
		if err != nil {
			b.Fatal(err)
		}
		r.Timeline().Release()
	}
}

// benchmarkKernel times the replay kernel alone on cfg's schedule: priced
// shape vectors in, makespan out — what a planner-path replay costs once its
// few dozen shapes are priced. It reports ns/node, and checks the schedule
// compiled to rows of the given arity, so a benchmark meant for one path of
// the kernel cannot silently time the other.
func benchmarkKernel(b *testing.B, cfg ChimeraConfig, arity int32) {
	g := mustGraph(b, cfg)
	if g.arity != arity {
		b.Fatalf("%+v compiled to rows of %d slots, want %d", cfg, g.arity, arity)
	}
	r := g.Readout(UnitPractical.ReplayConfig())
	defer r.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.run(r.end, r.cost, r.edge)
		var makespan int64
		for w := 0; w < cfg.D; w++ {
			makespan = max(makespan, r.ComputeEnd(w))
		}
		if makespan != r.Makespan() {
			b.Fatalf("makespan %d, want %d", makespan, r.Makespan())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Nodes()), "ns/node")
}

func BenchmarkReplayMakespanD32N128(b *testing.B) {
	benchmarkKernel(b, ChimeraConfig{D: 32, N: 128, Concat: Direct}, 2)
}

// BenchmarkReplayMakespanDoublingD16N64 is the kernel on a forward-doubling
// schedule: a doubled forward's two tokens come from one producer, so its row
// holds three predecessors' worth of tokens in two slots.
func BenchmarkReplayMakespanDoublingD16N64(b *testing.B) {
	benchmarkKernel(b, ChimeraConfig{D: 16, N: 64, Concat: ForwardDoubling}, 2)
}

// BenchmarkReplayExtendD32N128 is the same makespan by the short route, as
// the planner takes it: price and replay (32, 64), verify the period, extend
// by two units.
func BenchmarkReplayExtendD32N128(b *testing.B) {
	cfg := ChimeraConfig{D: 32, N: 128}
	eq, units := cfg.ReplayEquivalent()
	g, rc := mustGraph(b, eq), UnitPractical.ReplayConfig()
	full := mustGraph(b, cfg).Readout(rc)
	want := full.Makespan()
	full.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := g.Readout(rc)
		if !r.Extend(units) || r.Makespan() != want {
			b.Fatalf("extended %d units to makespan %d, want %d", r.units, r.Makespan(), want)
		}
		r.Release()
	}
}

func BenchmarkValidateD16N64(b *testing.B) {
	s, err := Chimera(ChimeraConfig{D: 16, N: 64, Concat: Direct})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeAllSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range Schemes() {
			s, err := ByName(name, 8, 16)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Analyze(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
