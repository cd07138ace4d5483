package sim

import (
	"fmt"
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

func BenchmarkSimulateGPT2D32(b *testing.B) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 32, N: 32, Concat: schedule.Direct})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Model: model.GPT2(), Schedule: s, MicroBatch: 1, W: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeakMemoryBERTD16(b *testing.B) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 16, N: 64, Concat: schedule.Direct})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Model: model.BERT48(), Schedule: s, MicroBatch: 4, W: 2}
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PeakMemory(&cfg)
	}
}

// BenchmarkFitsMemory prices a cached schedule's residency profile: O(D)
// work whatever N is, so the N16 and N512 cases should read alike.
func BenchmarkFitsMemory(b *testing.B) {
	for _, dn := range [][2]int{{8, 16}, {8, 512}, {16, 64}} {
		b.Run(fmt.Sprintf("D%dN%d", dn[0], dn[1]), func(b *testing.B) {
			s, err := schedule.Chimera(schedule.ChimeraConfig{D: dn[0], N: dn[1]})
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Model: model.BERT48(), Schedule: s, MicroBatch: 4, W: 2}
			s.Residency()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := FitsMemory(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChimeraFit is the planner's memory search at one candidate:
// price direct Chimera's fit once, then try B = 64, 32, …, 1 at N = 256/B,
// as BenchmarkFitsMemory's residency fit would once per B. Each B is O(D)
// integer work and allocates nothing.
func BenchmarkChimeraFit(b *testing.B) {
	for _, d := range []int{8, 32} {
		b.Run(fmt.Sprintf("D%d", d), func(b *testing.B) {
			cfg := Config{Model: model.GPT2(), W: 2}
			var fit ChimeraFit
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fit.Price(cfg, d); err != nil {
					b.Fatal(err)
				}
				for mb := 64; mb >= 1; mb /= 2 {
					fit.Fits(mb, 256/mb)
				}
			}
		})
	}
}
