package schedule

import (
	"strings"
	"testing"
)

// TestOpString covers the op formatting used in deadlock diagnostics.
func TestOpString(t *testing.T) {
	o := Op{Kind: Forward, Stage: 2, Replica: 1, Micros: []int{5}}
	if got := o.String(); got != "F5@s2/r1" {
		t.Fatalf("op string %q", got)
	}
	d := Op{Kind: Backward, Stage: 0, Replica: 0, Micros: []int{2, 3}}
	if got := d.String(); !strings.Contains(got, "B[2 3]") {
		t.Fatalf("doubled op string %q", got)
	}
	if Forward.String() != "F" || Backward.String() != "B" {
		t.Fatal("kind strings")
	}
}

// TestConcatModeString covers the mode names used across flags and reports.
func TestConcatModeString(t *testing.T) {
	if Direct.String() != "direct" || ForwardDoubling.String() != "forward-doubling" ||
		BackwardHalving.String() != "backward-halving" {
		t.Fatal("concat mode names changed")
	}
	if ConcatMode(9).String() == "" {
		t.Fatal("unknown mode must render")
	}
}

// TestGEMSOddN: alternating replicas with an odd micro-batch count.
func TestGEMSOddN(t *testing.T) {
	s := mustScheme(t, "gems", 4, 5)
	down, up := 0, 0
	for _, r := range s.MicroReplica {
		if s.Replicas[r].Down {
			down++
		} else {
			up++
		}
	}
	if down != 3 || up != 2 {
		t.Fatalf("gems split %d/%d", down, up)
	}
}

// TestChimeraFWithNLessD: the generalized construction also supports
// partial fills.
func TestChimeraFWithNLessD(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7} {
		s := mustChimera(t, ChimeraConfig{D: 8, N: n, F: 2})
		if c, err := s.ConflictCount(); err != nil || c != 0 {
			t.Fatalf("N=%d: conflicts=%d err=%v", n, c, err)
		}
	}
}

// TestHalvingValidatesHalfTokens: the halving schedule carries two half
// backwards per micro-batch per stage, each exactly once.
func TestHalvingValidatesHalfTokens(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 4, N: 8, Concat: BackwardHalving})
	halves := map[[3]int]int{} // (micro, stage, half) -> count
	for _, ops := range s.Workers {
		for _, op := range ops {
			if op.Kind == Backward {
				if op.Half == 0 {
					t.Fatalf("halving schedule has full backward %v", op)
				}
				halves[[3]int{op.Micros[0], op.Stage, int(op.Half)}]++
			}
		}
	}
	for m := 0; m < 8; m++ {
		for st := 0; st < 4; st++ {
			for h := 1; h <= 2; h++ {
				if halves[[3]int{m, st, h}] != 1 {
					t.Fatalf("half token (%d,%d,%d) count %d", m, st, h, halves[[3]int{m, st, h}])
				}
			}
		}
	}
}

// TestOpsTotal covers the op-count accessor.
func TestOpsTotal(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 4, N: 4})
	if s.OpsTotal() != 4*4*2 {
		t.Fatalf("ops total %d", s.OpsTotal())
	}
	if empty := (&Schedule{D: 1, Workers: make([][]Op, 1)}); empty.OpsTotal() != 0 {
		t.Fatalf("empty schedule ops total %d", empty.OpsTotal())
	}
}

// TestAnalysisString: the human-readable analysis line renders key fields.
func TestAnalysisString(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 4, N: 4})
	a, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	out := a.String()
	for _, want := range []string{"chimera", "D=4", "bubble", "Mθ"} {
		if !strings.Contains(out, want) {
			t.Fatalf("analysis string %q missing %q", out, want)
		}
	}
}

// TestCheckDNErrors covers constructor guards of the baselines.
func TestCheckDNErrors(t *testing.T) {
	if _, err := GPipe(0, 4); err == nil {
		t.Fatal("D=0 must fail")
	}
	if _, err := DAPPLE(4, 0); err == nil {
		t.Fatal("N=0 must fail")
	}
	if _, err := GEMS(-1, 4); err == nil {
		t.Fatal("negative D must fail")
	}
}

// TestGradReadyCoversAllPlacements: every stage placement on a worker gets
// a gradient-ready time.
func TestGradReadyCoversAllPlacements(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 8, N: 8, F: 2})
	r, err := s.Readout(UnitPractical.ReplayConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Release()
	for w := 0; w < s.D; w++ {
		ready := r.GradReady(w)
		if len(ready) != len(s.Replicas) {
			t.Fatalf("worker %d has %d ready entries, want %d", w, len(ready), len(s.Replicas))
		}
		for _, gr := range ready {
			if gr.At <= 0 {
				t.Fatalf("worker %d placement %+v ready at %d", w, gr.StagePlacement, gr.At)
			}
		}
	}
}

// TestValidateRejectsMalformedHeader: Schedule is a public alias, so a
// hand-built one may carry header slices shorter than D and N say. Validate
// must name the field instead of indexing past it; compile, which indexes
// its per-worker tables by D, must refuse a wrong worker count too.
func TestValidateRejectsMalformedHeader(t *testing.T) {
	ops := [][]Op{{{Kind: Forward, Micros: []int{0}}, {Kind: Backward, Micros: []int{0}}}}
	whole := func() *Schedule {
		return &Schedule{
			Scheme: "hand-built", D: 1, N: 1, Workers: ops,
			Replicas:     []ReplicaMap{{Down: true, WorkerOf: []int{0}}},
			MicroReplica: []int{0},
		}
	}
	if err := whole().Validate(); err != nil {
		t.Fatalf("the well-formed literal must validate: %v", err)
	}
	for field, breakIt := range map[string]func(*Schedule){
		"MicroReplica": func(s *Schedule) { s.MicroReplica = nil },
		"Workers":      func(s *Schedule) { s.Workers = append(s.Workers, nil) },
		"WorkerOf":     func(s *Schedule) { s.Replicas[0].WorkerOf = nil },
	} {
		s := whole()
		breakIt(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s too short or long: want an error naming it, got %v", field, err)
		}
	}
	s := whole()
	s.Workers = append(s.Workers, nil)
	if _, err := s.Graph(); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("compile with D+1 worker lists: want an error naming Workers, got %v", err)
	}
}
