package schedule

import (
	"math"
	"testing"
	"testing/quick"
)

func mustChimera(t *testing.T, cfg ChimeraConfig) *Schedule {
	t.Helper()
	s, err := Chimera(cfg)
	if err != nil {
		t.Fatalf("chimera %+v: %v", cfg, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("chimera %+v invalid: %v", cfg, err)
	}
	return s
}

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestChimeraBaseMatchesPaperFormulas pins the base N=D schedule to the
// paper's Table 2 row: bubble ratios in both cost models, the activation
// memory interval [(D/2+1)Ma, D·Ma], and 2Mθ weights.
func TestChimeraBaseMatchesPaperFormulas(t *testing.T) {
	for _, d := range []int{4, 8, 16, 32} {
		n := d
		s := mustChimera(t, ChimeraConfig{D: d, N: n})
		a, err := Analyze(s)
		if err != nil {
			t.Fatal(err)
		}
		df, nf := float64(d), float64(n)
		wantEq := (df - 2) / (2*nf + df - 2)
		if !approxEq(a.BubbleRatioEqual, wantEq, 1e-9) {
			t.Errorf("D=%d: bubble(eq)=%v want %v", d, a.BubbleRatioEqual, wantEq)
		}
		wantPr := ChimeraMiddleBubbleRatio(d, n)
		if !approxEq(a.BubbleRatioPractical, wantPr, 1e-9) {
			t.Errorf("D=%d: bubble(2x)=%v want %v", d, a.BubbleRatioPractical, wantPr)
		}
		lo, hi := MinMax(a.ActivationsMa)
		if lo != df/2+1 || hi != df {
			t.Errorf("D=%d: activations [%v,%v] want [%v,%v]", d, lo, hi, df/2+1, df)
		}
		for w, v := range a.WeightsMTheta {
			if v != 2 {
				t.Errorf("D=%d worker %d: weights %v want 2", d, w, v)
			}
		}
	}
}

// TestChimeraMergeConflictFree verifies the paper's §3.1 guarantee: merging
// the down and up pipelines never double-books a worker slot, for any even D
// and N ≤ D.
func TestChimeraMergeConflictFree(t *testing.T) {
	for d := 2; d <= 32; d += 2 {
		for _, n := range []int{1, 2, d / 2, d - 1, d} {
			if n < 1 {
				continue
			}
			s := mustChimera(t, ChimeraConfig{D: d, N: n})
			c, err := s.ConflictCount()
			if err != nil {
				t.Fatal(err)
			}
			if c != 0 {
				t.Errorf("D=%d N=%d: %d slot conflicts in bidirectional merge", d, n, c)
			}
		}
	}
}

// TestChimeraFConflictFree extends the conflict-freedom check to the
// generalized 2f-pipeline construction (§3.6) and pins Table 3's bubble
// ratio (D−2f)/(2fN+D−2f) and activation interval exactly.
func TestChimeraFConflictFree(t *testing.T) {
	for _, d := range []int{4, 8, 12, 16, 24, 32} {
		for f := 1; f <= d/2; f++ {
			if (d/2)%f != 0 {
				continue
			}
			s := mustChimera(t, ChimeraConfig{D: d, N: d, F: f})
			c, err := s.ConflictCount()
			if err != nil {
				t.Fatal(err)
			}
			if c != 0 {
				t.Errorf("D=%d f=%d: %d conflicts", d, f, c)
			}
			want := Table3(d, d, f)
			tl, err := s.Replay(UnitEqual)
			if err != nil {
				t.Fatal(err)
			}
			if got := tl.BubbleRatio(); !approxEq(got, want.BubbleRatio, 1e-9) {
				t.Errorf("D=%d f=%d: bubble %v want %v", d, f, got, want.BubbleRatio)
			}
			lo, hi := MinMax(s.ActivationHighWater())
			if lo != want.ActLo || hi != want.ActHi {
				t.Errorf("D=%d f=%d: activations [%v,%v] want [%v,%v]", d, f, lo, hi, want.ActLo, want.ActHi)
			}
			if got := len(s.Replicas); got != want.ModelReplicas {
				t.Errorf("D=%d f=%d: %d replicas want %d", d, f, got, want.ModelReplicas)
			}
		}
	}
}

// TestChimeraDirectConcat pins the N > D direct-concatenation bubble ratio:
// basic units concatenate seamlessly in the equal-cost model, keeping total
// bubbles at D−2 regardless of K = N/D.
func TestChimeraDirectConcat(t *testing.T) {
	for _, d := range []int{4, 8, 16} {
		for _, k := range []int{2, 3, 4, 8} {
			n := k * d
			s := mustChimera(t, ChimeraConfig{D: d, N: n, Concat: Direct})
			tl, err := s.Replay(UnitEqual)
			if err != nil {
				t.Fatal(err)
			}
			df, nf := float64(d), float64(n)
			want := (df - 2) / (2*nf + df - 2)
			if got := tl.BubbleRatio(); !approxEq(got, want, 1e-9) {
				t.Errorf("D=%d N=%d: bubble %v want %v", d, n, got, want)
			}
			if c, _ := s.ConflictCount(); c != 0 {
				t.Errorf("D=%d N=%d: %d conflicts", d, n, c)
			}
			// Activation residency must not grow with K (1F1B property).
			_, hi := MinMax(s.ActivationHighWater())
			if hi > df {
				t.Errorf("D=%d N=%d: activation high water %v exceeds D", d, n, hi)
			}
		}
	}
}

// TestChimeraDirectPracticalHasIntermediateBubbles reproduces the §3.5
// observation: with backward = 2× forward, direct concatenation leaves
// intermediate bubbles (bubble ratio above the equal-cost D−2 level).
func TestChimeraDirectPracticalHasIntermediateBubbles(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 8, N: 32, Concat: Direct})
	tlE, _ := s.Replay(UnitEqual)
	tlP, _ := s.Replay(UnitPractical)
	if tlP.BubbleRatio() <= tlE.BubbleRatio() {
		t.Errorf("expected more bubbles under 2x backward: eq=%v practical=%v",
			tlE.BubbleRatio(), tlP.BubbleRatio())
	}
}

// TestForwardDoublingBeatsDirectUnderRecompute reproduces the Fig. 18
// regime: when activation recomputation is required (backward ≈ 3×
// forward), forward doubling removes intermediate bubbles and beats direct
// concatenation.
func TestForwardDoublingBeatsDirectUnderRecompute(t *testing.T) {
	recompute := CostModel{FUnit: 1, BUnit: 3}
	for _, c := range []struct{ d, n int }{{4, 8}, {8, 16}, {8, 32}, {16, 32}} {
		dir := mustChimera(t, ChimeraConfig{D: c.d, N: c.n, Concat: Direct})
		dbl := mustChimera(t, ChimeraConfig{D: c.d, N: c.n, Concat: ForwardDoubling})
		tDir, err := dir.Replay(recompute)
		if err != nil {
			t.Fatal(err)
		}
		tDbl, err := dbl.Replay(recompute)
		if err != nil {
			t.Fatal(err)
		}
		if tDbl.Makespan >= tDir.Makespan {
			t.Errorf("D=%d N=%d: doubling %d !< direct %d under recompute",
				c.d, c.n, tDbl.Makespan, tDir.Makespan)
		}
	}
}

// TestDirectBeatsHalvingWithoutRecompute reproduces the Fig. 17 regime:
// without recomputation pressure, direct concatenation is at least as good
// as backward halving (which pays sub-max micro-batch efficiency).
func TestDirectBeatsHalvingWithoutRecompute(t *testing.T) {
	for _, c := range []struct{ d, n int }{{4, 8}, {8, 16}, {8, 32}} {
		dir := mustChimera(t, ChimeraConfig{D: c.d, N: c.n, Concat: Direct})
		hlv := mustChimera(t, ChimeraConfig{D: c.d, N: c.n, Concat: BackwardHalving})
		tDir, _ := dir.Replay(UnitPractical)
		tHlv, _ := hlv.Replay(UnitPractical)
		if tDir.Makespan > tHlv.Makespan {
			t.Errorf("D=%d N=%d: direct %d worse than halving %d", c.d, c.n, tDir.Makespan, tHlv.Makespan)
		}
	}
}

// TestDoublingMemoryDoubles checks the §3.5 memory statement: forward
// doubling doubles peak activation residency versus direct; backward
// halving does not increase it.
func TestDoublingMemoryDoubles(t *testing.T) {
	dir := mustChimera(t, ChimeraConfig{D: 8, N: 16, Concat: Direct})
	dbl := mustChimera(t, ChimeraConfig{D: 8, N: 16, Concat: ForwardDoubling})
	hlv := mustChimera(t, ChimeraConfig{D: 8, N: 16, Concat: BackwardHalving})
	_, dirHi := MinMax(dir.ActivationHighWater())
	_, dblHi := MinMax(dbl.ActivationHighWater())
	_, hlvHi := MinMax(hlv.ActivationHighWater())
	// Doubling holds two micro-batches per in-flight forward: its peak must
	// clearly exceed direct's and is bounded by the paper's 2× statement.
	if dblHi <= dirHi || dblHi > 2*dirHi {
		t.Errorf("doubling peak %v, want in (direct %v, 2×direct %v]", dblHi, dirHi, 2*dirHi)
	}
	if hlvHi > dirHi {
		t.Errorf("halving peak %v exceeds direct %v", hlvHi, dirHi)
	}
}

// TestDoublingPhaseChoice documents that the configured up-pipeline phase is
// the best of the candidate offsets for the evaluated depths (a measured
// design choice, cf. DESIGN.md ablations).
func TestDoublingPhaseChoice(t *testing.T) {
	span := func(d, n, phase int) int64 {
		s, err := chimera(ChimeraConfig{D: d, N: n, Concat: ForwardDoubling}, phase)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := s.Replay(UnitPractical)
		if err != nil {
			t.Fatal(err)
		}
		return tl.Makespan
	}
	for _, c := range []struct{ d, n int }{{4, 8}, {8, 16}, {16, 32}} {
		best := span(c.d, c.n, doublingUpPhase)
		for p := 0; p <= 4; p++ {
			if s := span(c.d, c.n, p); s < best {
				t.Errorf("D=%d N=%d: phase %d (span %d) beats configured phase %d (span %d)",
					c.d, c.n, p, s, doublingUpPhase, best)
			}
		}
	}
}

// TestChimeraNLessD covers §3.1's N < D support including N = 1.
func TestChimeraNLessD(t *testing.T) {
	for _, d := range []int{4, 8, 16} {
		for n := 1; n < d; n++ {
			s := mustChimera(t, ChimeraConfig{D: d, N: n})
			// Micro-batches split across the two pipelines as evenly as
			// possible: ceil(N/2) down.
			down, up := 0, 0
			for _, r := range s.MicroReplica {
				if s.Replicas[r].Down {
					down++
				} else {
					up++
				}
			}
			if down != (n+1)/2 || up != n/2 {
				t.Errorf("D=%d N=%d: split %d/%d want %d/%d", d, n, down, up, (n+1)/2, n/2)
			}
		}
	}
}

// TestChimeraOddResidualDoubling covers the K odd case of §3.5: ⌊K/2⌋
// doubled units plus one plain unit.
func TestChimeraOddResidualDoubling(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 4, N: 12, Concat: ForwardDoubling}) // K=3
	var doubled, single int
	for _, ops := range s.Workers {
		for _, op := range ops {
			if op.Kind == Forward {
				if len(op.Micros) == 2 {
					doubled++
				} else {
					single++
				}
			}
		}
	}
	if doubled == 0 || single == 0 {
		t.Errorf("odd K should mix doubled (%d) and single (%d) forwards", doubled, single)
	}
}

// TestChimeraRejectsBadConfigs exercises constructor validation.
func TestChimeraRejectsBadConfigs(t *testing.T) {
	bad := []ChimeraConfig{
		{D: 3, N: 3},                          // odd D
		{D: 0, N: 1},                          // zero D
		{D: 4, N: 0},                          // zero N
		{D: 4, N: 4, F: 3},                    // f does not divide D/2
		{D: 4, N: 6, Concat: ForwardDoubling}, // N not multiple of D
		{D: 8, N: 12, F: 2, Concat: BackwardHalving}, // N not multiple of D
	}
	for _, cfg := range bad {
		if _, err := Chimera(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
}

// TestChimeraPropertyValidAcrossSpace is a property test over the schedule
// space: every constructible configuration validates and replays without
// deadlock in both cost models.
func TestChimeraPropertyValidAcrossSpace(t *testing.T) {
	f := func(dSeed, nSeed, fSeed, modeSeed uint8) bool {
		d := 2 * (1 + int(dSeed)%8) // 2..16
		n := 1 + int(nSeed)%(3*d)
		mode := ConcatMode(int(modeSeed) % 3)
		// Pick a valid f.
		fc := 1 + int(fSeed)%(d/2)
		for (d/2)%fc != 0 {
			fc--
		}
		if mode != Direct && n%d != 0 {
			n = d * (1 + int(nSeed)%3)
		}
		s, err := Chimera(ChimeraConfig{D: d, N: n, F: fc, Concat: mode})
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaMaps checks the §3.6 placement rules on the Fig. 8 example:
// D=8, f=2, down pipeline 1 maps stages [0..7] to workers [4,5,6,7,0,1,2,3].
func TestReplicaMaps(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 8, N: 8, F: 2})
	want := []int{4, 5, 6, 7, 0, 1, 2, 3}
	for st, w := range s.Replicas[1].WorkerOf {
		if w != want[st] {
			t.Fatalf("down1 stage %d on worker %d, want %d", st, w, want[st])
		}
	}
	// Up pipeline 1 is the exact reverse.
	for st, w := range s.Replicas[3].WorkerOf {
		if w != want[7-st] {
			t.Fatalf("up1 stage %d on worker %d, want %d", st, w, want[7-st])
		}
	}
}

// TestStagesOnWorker verifies each worker hosts exactly one stage per
// replica.
func TestStagesOnWorker(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 8, N: 8, F: 2})
	for w := 0; w < s.D; w++ {
		pl := s.StagesOn(w)
		if len(pl) != 4 {
			t.Fatalf("worker %d hosts %d stages, want 4", w, len(pl))
		}
		seen := map[int]bool{}
		for _, p := range pl {
			if seen[p.Replica] {
				t.Fatalf("worker %d hosts two stages of replica %d", w, p.Replica)
			}
			seen[p.Replica] = true
		}
	}
}

// TestChimeraBuildAllocations: op lists are reserved exactly and re-ordered
// into one shared array, so a build's allocation count is a small constant —
// it must not grow with N (list regrowth) nor beyond D (a list per worker).
func TestChimeraBuildAllocations(t *testing.T) {
	for _, cfg := range []ChimeraConfig{
		{D: 16, N: 256}, {D: 16, N: 40}, {D: 32, N: 64, F: 4},
		{D: 8, N: 24, Concat: ForwardDoubling}, {D: 8, N: 32, Concat: BackwardHalving},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Chimera(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(cfg.D + 16); allocs > limit {
			t.Errorf("%+v: %.0f allocations per build, want ≤ D + 16 = %.0f", cfg, allocs, limit)
		}
	}
}
