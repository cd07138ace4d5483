package sim

import (
	"fmt"
	"slices"
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// TestFitsScratchReuse: a MemoryFit carries storage from call to call and
// nothing else. One value is driven the way the planner drives it — B
// descending at a fixed depth — and then the ways it does not: on to a
// smaller depth (the arrays shrink), on to another scheme (the arrays grow
// back, synchronous and asynchronous weight pricing alternate), ZeRO and
// speed factors flipping in between. Every answer, and the priced arrays
// behind it, must equal a fresh FitsMemory for that call alone.
func TestFitsScratchReuse(t *testing.T) {
	type variant struct {
		scheme string
		concat schedule.ConcatMode
	}
	variants := []variant{
		{"chimera", schedule.Direct}, {"chimera", schedule.ForwardDoubling}, {"chimera", schedule.BackwardHalving},
		{"dapple", 0}, {"gpipe", 0}, {"gems", 0}, {"pipedream", 0}, {"pipedream-2bw", 0},
	}
	zoo := []model.Config{model.BERT48(), model.BERT48Seq512(), model.GPT2(), model.GPT2Small32()}
	var scratch MemoryFit
	fits, answers := 0, map[[2]bool]int{}
	for _, v := range variants {
		for _, m := range zoo {
			for d := m.Layers; d >= 2; d-- {
				if d%2 != 0 || m.Layers%d != 0 {
					continue
				}
				s, err := schedule.Build(schedule.Spec{Scheme: v.scheme, D: d, N: 2 * d, Concat: v.concat})
				if err != nil {
					t.Fatalf("%s/%v D=%d: %v", v.scheme, v.concat, d, err)
				}
				stages, err := m.Partition(d)
				if err != nil {
					t.Fatal(err)
				}
				factors := make([]float64, d)
				for w := range factors {
					factors[w] = 1 + 0.25*float64(w%3)
				}
				for b := 64; b >= 1; b-- {
					for mode := 0; mode < 4; mode++ {
						cfg := Config{Model: m, Schedule: s, MicroBatch: b, W: 1 + b%4, ZeRO: mode&1 != 0}
						if mode&2 != 0 {
							cfg.SpeedFactors = factors
						}
						name := fmt.Sprintf("%s/%v %s D=%d B=%d zero=%v factors=%v", v.scheme, v.concat, m.Name, d, b, cfg.ZeRO, mode&2 != 0)
						wantPlain, wantRec, err := FitsMemory(cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						plain, withRec, err := scratch.Fits(cfg, stages, s.Residency())
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if plain != wantPlain || withRec != wantRec {
							t.Fatalf("%s: reused scratch (%v, %v), fresh FitsMemory (%v, %v)", name, plain, withRec, wantPlain, wantRec)
						}
						var fresh MemoryFit
						if err := cfg.Validate(); err != nil {
							t.Fatal(err)
						}
						fresh.price(&cfg, stages, s.Residency())
						if !slices.Equal(scratch.weights, fresh.weights) || !slices.Equal(scratch.act, fresh.act) {
							t.Fatalf("%s: reused scratch priced\n weights %v\n act %v\nfresh\n weights %v\n act %v",
								name, scratch.weights, scratch.act, fresh.weights, fresh.act)
						}
						fits++
						answers[[2]bool{plain, withRec}]++
					}
				}
			}
		}
	}
	// The table is only a test of the comparisons if it lands on every side
	// of them.
	for _, a := range [][2]bool{{true, true}, {false, true}, {false, false}} {
		if answers[a] == 0 {
			t.Errorf("no configuration in the table answered (plain, withRecompute) = %v", a)
		}
	}
	t.Logf("%d fits on one scratch: %v", fits, answers)
}

// TestFitsRejectsForeignStageTable: the stage table is the caller's, so its
// depth is checked against the profile's on every call — before anything
// is indexed by it.
func TestFitsRejectsForeignStageTable(t *testing.T) {
	s, err := schedule.ByName("gpipe", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := model.BERT48()
	stages, err := m.Partition(8)
	if err != nil {
		t.Fatal(err)
	}
	var fit MemoryFit
	if _, _, err := fit.Fits(Config{Model: m, MicroBatch: 1, W: 1}, stages, s.Residency()); err == nil {
		t.Fatal("Fits accepted an 8-stage table for a 4-worker profile")
	}
	if _, _, err := fit.Fits(Config{Model: m, MicroBatch: 0, W: 1}, stages[:4], s.Residency()); err == nil {
		t.Fatal("Fits skipped configuration validation on reused scratch")
	}
}
