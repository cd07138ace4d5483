package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// fitThresholds returns the least device memory at which each answer of
// (*MemoryFit).Fits is true: the largest per-worker total without and with
// recomputation.
func fitThresholds(cfg *Config, stages []model.Stage, res *schedule.Residency) (plain, withRecompute int64) {
	var m MemoryFit
	m.price(cfg, stages, res)
	for w := range res.Workers {
		plain = max(plain, m.weights[w]+activationPeak(cfg, m.act, &res.Workers[w], false))
		withRecompute = max(withRecompute, m.weights[w]+activationPeak(cfg, m.act, &res.Workers[w], true))
	}
	return plain, withRecompute
}

// assertChimeraFit holds fit — in whatever state earlier calls left it — to
// ref.Fits on the built direct Chimera schedule's own profile, for cfg at
// device memories one byte below and at each of its two thresholds (so both
// answers flip) and on the zero device, which both default. cfg.Device is
// replaced; zeroDevice adds the zero device.
func assertChimeraFit(t *testing.T, fit *ChimeraFit, ref *MemoryFit, s *schedule.Schedule, cfg Config, stages []model.Stage, zeroDevice bool) {
	t.Helper()
	res := s.Residency()
	cfg.Device = PizDaintNode()
	plainAt, recAt := fitThresholds(&cfg, stages, res)
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
		wantPlain, wantRec, err := ref.Fits(cfg, stages, res)
		if err != nil {
			t.Fatalf("%s: %v", name(), err)
		}
		if err := fit.Price(cfg, stages); err != nil {
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
// closed-form fit answers exactly as (*MemoryFit).Fits on the built
// schedule's profile, at device memories that flip both answers, and every
// 16th B on the zero device too. One ChimeraFit and one MemoryFit serve the
// whole sweep, depths growing under them.
func TestChimeraFitMatchesResidencyFit(t *testing.T) {
	maxD := 64
	if testing.Short() || raceEnabled {
		maxD = 16
	}
	rng := rand.New(rand.NewSource(44))
	zoo := []model.Config{model.BERT48(), model.BERT48Seq512(), model.GPT2(), model.GPT2Small32()}
	var fit ChimeraFit
	var ref MemoryFit
	cases := 0
	for d := 2; d <= maxD; d += 2 {
		models := []model.Config{randomModel(rng, d)}
		for _, m := range zoo {
			if m.Layers%d == 0 {
				models = append(models, m)
			}
		}
		tables := make([][]model.Stage, len(models))
		for i, m := range models {
			var err error
			if tables[i], err = m.Partition(d); err != nil {
				t.Fatal(err)
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
					assertChimeraFit(t, &fit, &ref, s, cfg, tables[i], b%16 == 0)
					cases++
				}
			}
		}
	}
	t.Logf("%d configurations", cases)
}

// TestChimeraFitChecksOnce: Price makes the checks (*MemoryFit).Fits makes
// on every call — validateFor's, and Chimera's depth — and Fits, which
// only scales what Price derived, allocates nothing.
func TestChimeraFitChecksOnce(t *testing.T) {
	m := model.BERT48()
	stages, err := m.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	var fit ChimeraFit
	if err := fit.Price(Config{Model: m, W: 0}, stages); err == nil {
		t.Fatal("Price accepted W = 0")
	}
	if err := fit.Price(Config{Model: m, W: 1, SpeedFactors: []float64{1, 2}}, stages); err == nil {
		t.Fatal("Price accepted 2 speed factors for 8 workers")
	}
	odd, err := m.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fit.Price(Config{Model: m, W: 1}, odd); err == nil {
		t.Fatal("Price accepted a depth Chimera does not build")
	}
	if err := fit.Price(Config{Model: m, W: 2, ZeRO: true}, stages); err != nil {
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
// (*MemoryFit).Fits on the built schedule's profile at a device memory the
// fuzzer places within a few bytes of either threshold. The seeds replay on
// every go test.
func FuzzChimeraFitEquivalence(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), uint8(0), false, uint8(0), uint16(1023), uint8(15), uint32(30521), uint16(127), false, int8(-1))
	f.Add(uint8(3), uint16(19), uint8(7), uint8(1), true, uint8(1), uint16(1279), uint8(15), uint32(50256), uint16(631), true, int8(0))
	f.Add(uint8(15), uint16(31), uint8(63), uint8(7), true, uint8(3), uint16(2047), uint8(31), uint32(99), uint16(1023), false, int8(1))
	f.Add(uint8(31), uint16(400), uint8(1), uint8(3), false, uint8(2), uint16(63), uint8(0), uint32(7), uint16(0), true, int8(-2))
	var fit ChimeraFit
	var ref MemoryFit
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, b8, w8 uint8, zero bool, layers8 uint8,
		hidden uint16, heads8 uint8, vocab32 uint32, seq16 uint16, recThreshold bool, delta int8) {
		d := 2 + 2*int(d8%32)
		n := 1 + int(n16)%(8*d)
		m := model.Config{
			Name: "fuzz", Layers: d * (1 + int(layers8%4)), Hidden: 1 + int(hidden%4096),
			Heads: 1 + int(heads8%64), Vocab: 1 + int(vocab32%100000), SeqLen: 1 + int(seq16%1024),
		}
		stages, err := m.Partition(d)
		if err != nil {
			t.Fatal(err)
		}
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: n})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Model: m, MicroBatch: 1 + int(b8%64), W: 1 + int(w8%8), ZeRO: zero, Device: PizDaintNode()}
		res := s.Residency()
		plainAt, recAt := fitThresholds(&cfg, stages, res)
		cfg.Device.MemBytes = plainAt + int64(delta)
		if recThreshold {
			cfg.Device.MemBytes = recAt + int64(delta)
		}
		wantPlain, wantRec, err := ref.Fits(cfg, stages, res)
		if err != nil {
			t.Fatal(err)
		}
		if err := fit.Price(cfg, stages); err != nil {
			t.Fatal(err)
		}
		if plain, withRec := fit.Fits(cfg.MicroBatch, n); plain != wantPlain || withRec != wantRec {
			t.Fatalf("%+v D=%d N=%d B=%d W=%d zero=%v mem=%d: closed-form fit (%v, %v), residency fit (%v, %v)",
				m, d, n, cfg.MicroBatch, cfg.W, zero, cfg.Device.MemBytes, plain, withRec, wantPlain, wantRec)
		}
	})
}
