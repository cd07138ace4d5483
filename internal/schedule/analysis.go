package schedule

import "fmt"

// Analysis summarizes a schedule's pipeline-efficiency and memory
// properties, in the units of the paper's Table 2: bubble ratios from
// unit-cost replay, activation memory in multiples of Ma (one micro-batch's
// stage activations), weight memory in multiples of Mθ (one stage's
// weights).
type Analysis struct {
	Scheme string
	D, N   int

	// BubbleRatioEqual is the bubble ratio with forward == backward cost.
	BubbleRatioEqual float64
	// BubbleRatioPractical uses backward = 2× forward (paper's Fig. 2 note).
	BubbleRatioPractical float64

	// ActivationsMa[w] is worker w's peak activation residency (Ma units).
	ActivationsMa []float64
	// WeightsMTheta[w] is worker w's weight memory (Mθ units), including
	// stashed versions for asynchronous schemes.
	WeightsMTheta []float64

	Synchronous bool
}

// Analyze computes the measured analysis of any schedule.
func Analyze(s *Schedule) (*Analysis, error) {
	a := &Analysis{Scheme: s.Scheme, D: s.D, N: s.N, Synchronous: s.Synchronous}
	var ratios [2]float64
	for i, cm := range []CostModel{UnitEqual, UnitPractical} {
		r, err := s.Readout(cm.ReplayConfig())
		if err != nil {
			return nil, err
		}
		ratios[i] = r.BubbleRatio()
		r.Release()
	}
	// Asynchronous schemes have no flush: steady-state bubbles ≈ 0.
	if s.Synchronous {
		a.BubbleRatioEqual, a.BubbleRatioPractical = ratios[0], ratios[1]
	}
	a.ActivationsMa = s.ActivationHighWater()
	a.WeightsMTheta = make([]float64, s.D)
	replicasPerWorker := float64(len(s.Replicas))
	for w := range a.WeightsMTheta {
		a.WeightsMTheta[w] = replicasPerWorker
	}
	switch s.Scheme {
	case "pipedream":
		for w, v := range s.WeightStashHighWater() {
			a.WeightsMTheta[w] = float64(v)
		}
	case "pipedream-2bw":
		for w := range a.WeightsMTheta {
			a.WeightsMTheta[w] = 2
		}
	}
	return a, nil
}

// MinMax returns the smallest and largest values of v.
func MinMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Table2Row holds the closed-form properties the paper states for a scheme
// (Table 2), for comparison against measured analysis.
type Table2Row struct {
	Scheme string
	// BubbleRatio is the paper's closed form, already accounting for
	// backward = 2× forward where the paper does.
	BubbleRatio float64
	// WeightsLo/Hi bound per-worker weight memory in Mθ units.
	WeightsLo, WeightsHi float64
	// ActLo/Hi bound per-worker activation memory in Ma units.
	ActLo, ActHi float64
	Synchronous  bool
}

// Table2 returns the paper's Table 2 closed forms for given D and N.
func Table2(d, n int) []Table2Row {
	df := float64(d)
	nf := float64(n)
	return []Table2Row{
		{Scheme: "pipedream", BubbleRatio: 0, WeightsLo: 1, WeightsHi: df, ActLo: 1, ActHi: df, Synchronous: false},
		{Scheme: "pipedream-2bw", BubbleRatio: 0, WeightsLo: 2, WeightsHi: 2, ActLo: 1, ActHi: df, Synchronous: false},
		{Scheme: "gpipe", BubbleRatio: (df - 1) / (nf + df - 1), WeightsLo: 1, WeightsHi: 1, ActLo: nf, ActHi: nf, Synchronous: true},
		{Scheme: "gems", BubbleRatio: (df - 1) / (df + 0.5), WeightsLo: 2, WeightsHi: 2, ActLo: 1, ActHi: 1, Synchronous: true},
		{Scheme: "dapple", BubbleRatio: (df - 1) / (nf + df - 1), WeightsLo: 1, WeightsHi: 1, ActLo: 1, ActHi: df, Synchronous: true},
		{Scheme: "chimera", BubbleRatio: (df - 2) / (2*nf + df - 2), WeightsLo: 2, WeightsHi: 2, ActLo: df/2 + 1, ActHi: df, Synchronous: true},
	}
}

// Table3Row holds the closed forms of the paper's Table 3: Chimera
// generalized to 2f pipelines.
type Table3Row struct {
	F             int
	ModelReplicas int
	BubbleRatio   float64
	WeightsMTheta float64
	ActLo, ActHi  float64
}

// Table3 returns Table 3's closed forms for Chimera with 2f pipelines.
func Table3(d, n, f int) Table3Row {
	df, nf, ff := float64(d), float64(n), float64(f)
	return Table3Row{
		F:             f,
		ModelReplicas: 2 * f,
		BubbleRatio:   (df - 2*ff) / (2*ff*nf + df - 2*ff),
		WeightsMTheta: 2 * ff,
		ActLo:         df - df/(2*ff) + 1,
		ActHi:         df,
	}
}

// ChimeraMiddleBubbleRatio is the paper's ratio for the plain Chimera
// schedule before middle bubbles are removed: (D−2)/(3N/2+D−2), stated for
// backward = 2× forward in backward-time units.
func ChimeraMiddleBubbleRatio(d, n int) float64 {
	df, nf := float64(d), float64(n)
	return (df - 2) / (1.5*nf + df - 2)
}

func (a *Analysis) String() string {
	aLo, aHi := MinMax(a.ActivationsMa)
	wLo, wHi := MinMax(a.WeightsMTheta)
	return fmt.Sprintf("%-14s D=%-3d N=%-3d bubble(eq)=%.3f bubble(2x)=%.3f act=[%.1f,%.1f]Ma weights=[%.1f,%.1f]Mθ sync=%v",
		a.Scheme, a.D, a.N, a.BubbleRatioEqual, a.BubbleRatioPractical, aLo, aHi, wLo, wHi, a.Synchronous)
}
