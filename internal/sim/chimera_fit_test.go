package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// fitThresholds returns the least device memory at which each answer of
// FitsMemory is true for cfg on its schedule: the largest per-worker total
// without and with recomputation.
func fitThresholds(cfg *Config) (plain, withRecompute int64) {
	res := cfg.Schedule.Residency()
	for w := range res.Workers {
		weights, act, actRecompute := workerMemory(cfg, res, w)
		plain = max(plain, weights+act)
		withRecompute = max(withRecompute, weights+actRecompute)
	}
	return plain, withRecompute
}

// assertChimeraFit holds fit — in whatever state earlier calls left it — to
// FitsMemory on the built direct Chimera schedule s, for cfg at device
// memories one byte below and at each of its two thresholds (so both
// answers flip) and on the zero device, which both default. cfg.Device is
// replaced; zeroDevice adds the zero device.
func assertChimeraFit(t *testing.T, fit *ChimeraFit, s *schedule.Schedule, cfg Config, zeroDevice bool) {
	t.Helper()
	cfg.Schedule = s
	cfg.Device = PizDaintNode()
	plainAt, recAt := fitThresholds(&cfg)
	mems := []int64{plainAt - 1, plainAt, recAt - 1, recAt}
	if zeroDevice {
		mems = append(mems, 0)
	}
	for i, mem := range mems {
		cfg.Device.MemBytes = mem
		if mem == 0 {
			cfg.Device = Device{}
		}
		name := func() string {
			return fmt.Sprintf("%s D=%d N=%d B=%d W=%d zero=%v mem=%d", cfg.Model.Name, s.D, s.N, cfg.MicroBatch, cfg.W, cfg.ZeRO, mem)
		}
		wantPlain, wantRec, err := FitsMemory(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name(), err)
		}
		if err := fit.Price(cfg, s.D); err != nil {
			t.Fatalf("%s: %v", name(), err)
		}
		plain, withRec := fit.Fits(cfg.MicroBatch, s.N)
		if plain != wantPlain || withRec != wantRec {
			t.Fatalf("%s: closed-form fit (%v, %v), residency fit (%v, %v)", name(), plain, withRec, wantPlain, wantRec)
		}
		// The bracket is the test: each threshold flips its answer.
		if i < 4 && (i < 2 && wantPlain != (i == 1) || i >= 2 && wantRec != (i == 3)) {
			t.Fatalf("%s: residency fit (%v, %v) does not flip at the threshold", name(), wantPlain, wantRec)
		}
	}
}

// TestChimeraFitMatchesResidencyFit: over the model zoo and a random model
// per depth, every even D ≤ 64 (16 under -short or -race), N ≤ 3D + 1 and
// B ≤ 64, with W ∈ 1…8 and ZeRO on and off cycling through them, the
// closed-form fit answers exactly as FitsMemory on the built schedule, at
// device memories that flip both answers, and every 16th B on the zero
// device too. One ChimeraFit serves the whole sweep, depths growing under
// it.
func TestChimeraFitMatchesResidencyFit(t *testing.T) {
	maxD := 64
	if testing.Short() || raceEnabled {
		maxD = 16
	}
	rng := rand.New(rand.NewSource(44))
	zoo := []model.Config{model.BERT48(), model.BERT48Seq512(), model.GPT2(), model.GPT2Small32()}
	var fit ChimeraFit
	cases := 0
	for d := 2; d <= maxD; d += 2 {
		models := []model.Config{randomModel(rng, d)}
		for _, m := range zoo {
			if m.Layers%d == 0 {
				models = append(models, m)
			}
		}
		for n := 1; n <= 3*d+1; n++ {
			s, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: n})
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range models {
				for b := 1; b <= 64; b++ {
					k := b + n + i
					cfg := Config{Model: m, MicroBatch: b, W: 1 + k%8, ZeRO: k/8%2 == 1}
					assertChimeraFit(t, &fit, s, cfg, b%16 == 0)
					cases++
				}
			}
		}
	}
	t.Logf("%d configurations", cases)
}

// TestChimeraFitChecksOnce: Price makes the checks FitsMemory makes on
// every call — validateFor's, the model's depth among them, and Chimera's
// depth — and Fits, which only scales what Price derived, allocates
// nothing.
func TestChimeraFitChecksOnce(t *testing.T) {
	m := model.BERT48()
	var fit ChimeraFit
	if err := fit.Price(Config{Model: m, W: 0}, 8); err == nil {
		t.Fatal("Price accepted W = 0")
	}
	if err := fit.Price(Config{Model: m, W: 1, SpeedFactors: []float64{1, 2}}, 8); err == nil {
		t.Fatal("Price accepted 2 speed factors for 8 workers")
	}
	if err := fit.Price(Config{Model: m, W: 1}, 3); err == nil {
		t.Fatal("Price accepted a depth Chimera does not build")
	}
	if err := fit.Price(Config{Model: m, W: 1}, 32); err == nil {
		t.Fatal("Price accepted a depth the model does not split into")
	}
	if err := fit.Price(Config{Model: m, W: 2, ZeRO: true}, 8); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for b := 64; b >= 1; b /= 2 {
			fit.Fits(b, 256/b)
		}
	}); allocs != 0 {
		t.Fatalf("Fits allocates %.1f times per B sweep, want 0", allocs)
	}
}

// FuzzChimeraFitEquivalence: over fuzzer-chosen even D ≤ 64, N ≤ 8D,
// B ≤ 64, W ≤ 8, ZeRO and model shape, the closed-form fit answers as
// FitsMemory on the built schedule at a device memory the fuzzer places
// within a few bytes of either threshold. The seeds replay on every go
// test.
func FuzzChimeraFitEquivalence(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0), false, uint8(0), uint16(1023), uint8(15), uint32(30521), uint16(127), false, int8(-1))
	f.Add(uint8(3), uint16(19), uint8(7), uint8(1), true, uint8(1), uint16(1279), uint8(15), uint32(50256), uint16(631), true, int8(0))
	f.Add(uint8(15), uint16(31), uint8(63), uint8(7), true, uint8(3), uint16(2047), uint8(31), uint32(99), uint16(1023), false, int8(1))
	f.Add(uint8(31), uint16(400), uint8(1), uint8(3), false, uint8(2), uint16(63), uint8(0), uint32(7), uint16(0), true, int8(-2))
	var fit ChimeraFit
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, b8, w8 uint8, zero bool, layers8 uint8,
		hidden uint16, heads8 uint8, vocab32 uint32, seq16 uint16, recThreshold bool, delta int8) {
		d := 2 + 2*int(d8%32)
		n := 1 + int(n16)%(8*d)
		m := model.Config{
			Name: "fuzz", Layers: d * (1 + int(layers8%4)), Hidden: 1 + int(hidden%4096),
			Heads: 1 + int(heads8%64), Vocab: 1 + int(vocab32%100000), SeqLen: 1 + int(seq16%1024),
		}
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: n})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Model: m, Schedule: s, MicroBatch: 1 + int(b8%64), W: 1 + int(w8%8), ZeRO: zero, Device: PizDaintNode()}
		plainAt, recAt := fitThresholds(&cfg)
		cfg.Device.MemBytes = plainAt + int64(delta)
		if recThreshold {
			cfg.Device.MemBytes = recAt + int64(delta)
		}
		wantPlain, wantRec, err := FitsMemory(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fit.Price(cfg, d); err != nil {
			t.Fatal(err)
		}
		if plain, withRec := fit.Fits(cfg.MicroBatch, n); plain != wantPlain || withRec != wantRec {
			t.Fatalf("%+v D=%d N=%d B=%d W=%d zero=%v mem=%d: closed-form fit (%v, %v), residency fit (%v, %v)",
				m, d, n, cfg.MicroBatch, cfg.W, zero, cfg.Device.MemBytes, plain, withRec, wantPlain, wantRec)
		}
	})
}
