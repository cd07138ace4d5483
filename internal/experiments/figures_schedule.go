package experiments

import (
	"fmt"
	"strings"

	"chimera/internal/schedule"
	"chimera/internal/trace"
)

// Figure2 renders the schedule timelines of Fig. 2 (all schemes, D=4, N=4,
// backward = 2× forward) plus Chimera's construction view of Fig. 3.
func Figure2(d, n int) (*Report, error) {
	r := newReport("figure-2", "Pipeline parallelism schemes (timelines, backward = 2× forward)")
	for _, name := range schedule.Schemes() {
		s, err := schedule.ByName(name, d, n)
		if err != nil {
			return nil, err
		}
		art, err := trace.ASCII(s, schedule.UnitPractical)
		if err != nil {
			return nil, err
		}
		r.Lines = append(r.Lines, strings.Split(strings.TrimRight(art, "\n"), "\n")...)
		tl, err := s.Replay(schedule.UnitPractical)
		if err != nil {
			return nil, err
		}
		r.Metrics["makespan:"+name] = float64(tl.Makespan)
	}
	return r, nil
}

// Figure6 reproduces the critical-path example of Fig. 6: Chimera with
// D = N = 6 has Cf = 6 forward and Cb = 10 backward passes on the critical
// path of a training iteration.
func Figure6() (*Report, error) {
	r := newReport("figure-6", "Critical path and free overlap regions (D=N=6)")
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 6, N: 6})
	if err != nil {
		return nil, err
	}
	cf, cb, err := schedule.CriticalPath(s)
	if err != nil {
		return nil, err
	}
	r.addf("critical path: Cf=%d forward passes, Cb=%d backward passes (paper: Cf=6, Cb=10)", cf, cb)
	ro, err := s.Readout(schedule.UnitPractical.ReplayConfig())
	if err != nil {
		return nil, err
	}
	defer ro.Release()
	r.addf("free overlap regions per worker (gradient-ready → compute-end), practical units:")
	for w := 0; w < s.D; w++ {
		var parts []string
		for _, gr := range ro.GradReady(w) {
			parts = append(parts, fmt.Sprintf("stage%d(r%d): %d", gr.Stage, gr.Replica, ro.ComputeEnd(w)-gr.At))
		}
		r.addf("  P%d: %s", w, strings.Join(parts, "  "))
	}
	r.Metrics["cf"], r.Metrics["cb"] = float64(cf), float64(cb)
	return r, nil
}

// Figure7 shows the three N > D scaling methods of §3.5 (D=4, N=8): direct
// concatenation (intermediate bubbles), forward doubling, backward halving.
func Figure7() (*Report, error) {
	r := newReport("figure-7", "Scaling to N > D micro-batches (D=4, N=2D)")
	for _, mode := range []schedule.ConcatMode{schedule.Direct, schedule.ForwardDoubling, schedule.BackwardHalving} {
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: mode})
		if err != nil {
			return nil, err
		}
		art, err := trace.ASCII(s, schedule.UnitPractical)
		if err != nil {
			return nil, err
		}
		r.addf("--- %v ---", mode)
		r.Lines = append(r.Lines, strings.Split(strings.TrimRight(art, "\n"), "\n")...)
		tl, err := s.Replay(schedule.UnitPractical)
		if err != nil {
			return nil, err
		}
		r.Metrics["makespan:"+mode.String()] = float64(tl.Makespan)
	}
	// Under recomputation (backward = 3× forward) doubling wins — Fig. 18's
	// regime.
	recomp := schedule.CostModel{FUnit: 1, BUnit: 3}
	for _, mode := range []schedule.ConcatMode{schedule.Direct, schedule.ForwardDoubling} {
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: mode})
		if err != nil {
			return nil, err
		}
		tl, err := s.Replay(recomp)
		if err != nil {
			return nil, err
		}
		r.addf("with recomputation (B=3F): %-18v makespan=%d", mode, tl.Makespan)
		r.Metrics["recompute-makespan:"+mode.String()] = float64(tl.Makespan)
	}
	return r, nil
}

// Figure8 renders Chimera with four 8-stage pipelines (D=8, f=2) and
// verifies the overlay is conflict-free.
func Figure8() (*Report, error) {
	r := newReport("figure-8", "Chimera with a combination of four 8-stage pipelines (f=2)")
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 8, N: 8, F: 2})
	if err != nil {
		return nil, err
	}
	art, err := trace.ASCII(s, schedule.UnitEqual)
	if err != nil {
		return nil, err
	}
	r.Lines = append(r.Lines, strings.Split(strings.TrimRight(art, "\n"), "\n")...)
	conflicts, err := s.ConflictCount()
	if err != nil {
		return nil, err
	}
	r.addf("overlay conflicts: %d (paper: schedules of the 2f pipelines overlay without conflict)", conflicts)
	r.Metrics["conflicts"] = float64(conflicts)
	return r, nil
}
