package schedule

import (
	"testing"
)

func mustScheme(t *testing.T, name string, d, n int) *Schedule {
	t.Helper()
	s, err := ByName(name, d, n)
	if err != nil {
		t.Fatalf("%s D=%d N=%d: %v", name, d, n, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("%s D=%d N=%d invalid: %v", name, d, n, err)
	}
	return s
}

// TestAllSchemesValidate sweeps every scheme across a configuration grid.
func TestAllSchemesValidate(t *testing.T) {
	for _, name := range Schemes() {
		for _, d := range []int{2, 4, 8, 16} {
			for _, n := range []int{1, 2, 4, 8, 16, 32} {
				mustScheme(t, name, d, n)
			}
		}
	}
}

// TestGPipeDappleBubbleFormula pins both schemes to the paper's
// (D−1)/(N+D−1) bubble ratio, which holds in both cost models (the ratio is
// scale invariant because fill and drain bubbles scale with op costs).
func TestGPipeDappleBubbleFormula(t *testing.T) {
	for _, name := range []string{"gpipe", "dapple"} {
		for _, d := range []int{2, 4, 8, 16} {
			for _, n := range []int{4, 8, 16, 64} {
				s := mustScheme(t, name, d, n)
				want := float64(d-1) / float64(n+d-1)
				for _, cm := range []CostModel{UnitEqual, UnitPractical} {
					if got := mustReadout(t, s, cm).BubbleRatio(); !approxEq(got, want, 1e-9) {
						t.Errorf("%s D=%d N=%d cm=%+v: bubble %v want %v", name, d, n, cm, got, want)
					}
				}
			}
		}
	}
}

// TestChimeraHalvesBubblesVsDAPPLE verifies the headline claim: Chimera's
// bubble count (D−2) is about half of DAPPLE/GPipe's 2(D−1) at N=D.
func TestChimeraHalvesBubblesVsDAPPLE(t *testing.T) {
	for _, d := range []int{4, 8, 16, 32} {
		ch := mustChimera(t, ChimeraConfig{D: d, N: d})
		da := mustScheme(t, "dapple", d, d)
		tlC := mustReadout(t, ch, UnitEqual).Timeline()
		tlD := mustReadout(t, da, UnitEqual).Timeline()
		// Per-worker idle: Chimera D−2, DAPPLE 2(D−1).
		for w, busy := range tlC.BusyTime {
			if idle := tlC.Makespan - busy; idle != int64(d-2) {
				t.Errorf("chimera D=%d worker %d: idle %d want %d", d, w, idle, d-2)
			}
		}
		for w, busy := range tlD.BusyTime {
			if idle := tlD.Makespan - busy; idle != int64(2*(d-1)) {
				t.Errorf("dapple D=%d worker %d: idle %d want %d", d, w, idle, 2*(d-1))
			}
		}
	}
}

// TestGPipeActivationsGrowWithN pins GPipe's Table 2 row: activation
// residency is N·Ma on every worker.
func TestGPipeActivationsGrowWithN(t *testing.T) {
	for _, n := range []int{4, 8, 32} {
		s := mustScheme(t, "gpipe", 4, n)
		for w, v := range s.ActivationHighWater() {
			if v != float64(n) {
				t.Errorf("gpipe N=%d worker %d: activations %v want %v", n, w, v, n)
			}
		}
	}
}

// TestDAPPLEActivationProfile pins DAPPLE's per-worker activation residency
// min(N, D−p): the first worker carries D micro-batches, the last one.
func TestDAPPLEActivationProfile(t *testing.T) {
	for _, d := range []int{4, 8} {
		for _, n := range []int{2, d, 4 * d} {
			s := mustScheme(t, "dapple", d, n)
			for w, v := range s.ActivationHighWater() {
				want := d - w
				if want > n {
					want = n
				}
				if v != float64(want) {
					t.Errorf("dapple D=%d N=%d worker %d: activations %v want %v", d, n, w, v, want)
				}
			}
		}
	}
}

// TestGEMSProperties pins GEMS's Table 2 row: one active micro-batch's
// activations everywhere, two model replicas, and a bubble ratio near
// (D−1)/(D+1/2) under backward = 2× forward.
func TestGEMSProperties(t *testing.T) {
	for _, d := range []int{4, 8, 16} {
		s := mustScheme(t, "gems", d, 2*d)
		for w, v := range s.ActivationHighWater() {
			if v != 1 {
				t.Errorf("gems D=%d worker %d: activations %v want 1", d, w, v)
			}
		}
		if len(s.Replicas) != 2 {
			t.Errorf("gems D=%d: %d replicas want 2", d, len(s.Replicas))
		}
		want := float64(d-1) / (float64(d) + 0.5)
		if got := mustReadout(t, s, UnitPractical).BubbleRatio(); !approxEq(got, want, 0.06) {
			t.Errorf("gems D=%d: bubble %v want ≈%v", d, got, want)
		}
	}
}

// TestPipeDreamWeightStash pins the asynchronous schemes' weight memory
// (Table 2): PipeDream stashes up to D versions (descending per worker);
// PipeDream-2BW always 2.
func TestPipeDreamWeightStash(t *testing.T) {
	d, n := 8, 16
	pd := mustScheme(t, "pipedream", d, n)
	a, err := Analyze(pd)
	if err != nil {
		t.Fatal(err)
	}
	for w, v := range a.WeightsMTheta {
		if want := float64(d - w); v != want {
			t.Errorf("pipedream worker %d: weights %v want %v", w, v, want)
		}
	}
	bw := mustScheme(t, "pipedream-2bw", d, n)
	ab, err := Analyze(bw)
	if err != nil {
		t.Fatal(err)
	}
	for w, v := range ab.WeightsMTheta {
		if v != 2 {
			t.Errorf("pipedream-2bw worker %d: weights %v want 2", w, v)
		}
	}
	if a.BubbleRatioEqual != 0 || ab.BubbleRatioPractical != 0 {
		t.Error("asynchronous schemes must report ≈0 bubble ratio")
	}
	if pd.Synchronous || bw.Synchronous {
		t.Error("pipedream schemes must be asynchronous")
	}
}

// TestAnalyzeMatchesTable2 cross-checks every measured analysis against the
// closed forms of Table 2 at D=4, N=4 (the Fig. 2 configuration).
func TestAnalyzeMatchesTable2(t *testing.T) {
	d, n := 4, 4
	rows := Table2(d, n)
	for _, row := range rows {
		s := mustScheme(t, row.Scheme, d, n)
		a, err := Analyze(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Synchronous != row.Synchronous {
			t.Errorf("%s: sync=%v want %v", row.Scheme, a.Synchronous, row.Synchronous)
		}
		aLo, aHi := MinMax(a.ActivationsMa)
		if aLo < row.ActLo-1e-9 || aHi > row.ActHi+1e-9 {
			t.Errorf("%s: activations [%v,%v] outside paper [%v,%v]", row.Scheme, aLo, aHi, row.ActLo, row.ActHi)
		}
		wLo, wHi := MinMax(a.WeightsMTheta)
		if wLo < row.WeightsLo-1e-9 || wHi > row.WeightsHi+1e-9 {
			t.Errorf("%s: weights [%v,%v] outside paper [%v,%v]", row.Scheme, wLo, wHi, row.WeightsLo, row.WeightsHi)
		}
		// Bubble ratio: exact for gpipe/dapple/chimera/async; GEMS is ≈.
		tol := 1e-9
		if row.Scheme == "gems" {
			tol = 0.06
		}
		got := a.BubbleRatioEqual
		if row.Scheme == "gems" || row.Scheme == "chimera" {
			got = a.BubbleRatioPractical // paper states these under 2× backward
		}
		want := row.BubbleRatio
		if row.Scheme == "chimera" {
			want = ChimeraMiddleBubbleRatio(d, n) // plain schedule before §3.5
		}
		if !approxEq(got, want, tol) {
			t.Errorf("%s: bubble %v want %v", row.Scheme, got, want)
		}
	}
}

// TestByNameUnknown covers the error path.
func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 4, 4); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

// TestOneF1BEqualsDAPPLEShape: the single-pipe baseline is DAPPLE by another
// name.
func TestOneF1BEqualsDAPPLEShape(t *testing.T) {
	a := mustScheme(t, "1f1b", 4, 8)
	b := mustScheme(t, "dapple", 4, 8)
	spanA, spanB := mustReadout(t, a, UnitPractical).Makespan(), mustReadout(t, b, UnitPractical).Makespan()
	if spanA != spanB {
		t.Fatalf("1f1b span %d != dapple span %d", spanA, spanB)
	}
}

// TestReplayDeterministic: replay is a pure function of the schedule.
func TestReplayDeterministic(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 8, N: 16, Concat: Direct})
	t1 := mustReadout(t, s, UnitPractical).Timeline()
	t2 := mustReadout(t, s, UnitPractical).Timeline()
	if t1.Makespan != t2.Makespan {
		t.Fatal("replay nondeterministic")
	}
	for w := range t1.Start {
		for i := range t1.Start[w] {
			if t1.Start[w][i] != t2.Start[w][i] {
				t.Fatal("replay nondeterministic start times")
			}
		}
	}
}

// TestP2PLatencyExtendsMakespan: adding p2p latency must strictly grow the
// critical path of any cross-worker pipeline.
func TestP2PLatencyExtendsMakespan(t *testing.T) {
	s := mustChimera(t, ChimeraConfig{D: 4, N: 4})
	t0 := mustReadout(t, s, CostModel{FUnit: 10, BUnit: 20}).Makespan()
	t1 := mustReadout(t, s, CostModel{FUnit: 10, BUnit: 20, P2P: 3}).Makespan()
	if t1 <= t0 {
		t.Fatalf("p2p latency ignored: %d vs %d", t1, t0)
	}
}
