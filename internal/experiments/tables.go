package experiments

import (
	"strconv"

	"chimera/internal/schedule"
)

// Table2 reproduces the paper's Table 2: bubble ratio, weights memory and
// activations memory per scheme — the paper's closed forms next to values
// measured from the generated schedules.
func Table2(d, n int) (*Report, error) {
	r := newReport("table-2", "Comparison between pipeline schemes (paper formulas vs measured)")
	r.addf("D=%d N=%d — memory in (Mθ, Ma) units; bubble ratios per paper conventions", d, n)
	r.addf("%-14s | %-22s | %-18s | %-18s | sync", "scheme", "bubble paper vs meas", "weights paper/meas", "acts paper/meas")
	for _, row := range schedule.Table2(d, n) {
		s, err := schedule.ByName(row.Scheme, d, n)
		if err != nil {
			return nil, err
		}
		a, err := schedule.Analyze(s)
		if err != nil {
			return nil, err
		}
		meas := a.BubbleRatioEqual
		paper := row.BubbleRatio
		if row.Scheme == "chimera" || row.Scheme == "gems" {
			meas = a.BubbleRatioPractical
			if row.Scheme == "chimera" {
				paper = schedule.ChimeraMiddleBubbleRatio(d, n)
			}
		}
		aLo, aHi := schedule.MinMax(a.ActivationsMa)
		wLo, wHi := schedule.MinMax(a.WeightsMTheta)
		r.addf("%-14s | %6.3f vs %6.3f       | [%g,%g] / [%g,%g]   | [%g,%g] / [%g,%g]  | %v",
			row.Scheme, paper, meas, row.WeightsLo, row.WeightsHi, wLo, wHi,
			row.ActLo, row.ActHi, aLo, aHi, a.Synchronous)
		r.Metrics["bubble:"+row.Scheme] = meas
	}
	return r, nil
}

// Table3 reproduces Table 3: Chimera generalized to 2f pipelines.
func Table3(d, n int) (*Report, error) {
	r := newReport("table-3", "Chimera with 2f pipelines (paper formulas vs measured)")
	r.addf("D=%d N=%d", d, n)
	r.addf("%-4s | %-8s | %-22s | %-14s | activations", "f", "replicas", "bubble paper vs meas", "weights (Mθ)")
	for f := 1; f <= d/2; f++ {
		if (d/2)%f != 0 {
			continue
		}
		want := schedule.Table3(d, n, f)
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: d, N: n, F: f})
		if err != nil {
			return nil, err
		}
		ro, err := s.Readout(schedule.UnitEqual.ReplayConfig())
		if err != nil {
			return nil, err
		}
		bubble := ro.BubbleRatio()
		ro.Release()
		lo, hi := schedule.MinMax(s.ActivationHighWater())
		r.addf("%-4d | %-8d | %6.3f vs %6.3f       | %-14g | paper [%g,%g], measured [%g,%g]",
			f, len(s.Replicas), want.BubbleRatio, bubble, want.WeightsMTheta,
			want.ActLo, want.ActHi, lo, hi)
		r.Metrics["bubble:f="+strconv.Itoa(f)] = bubble
	}
	return r, nil
}
