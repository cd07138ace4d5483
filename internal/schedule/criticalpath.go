package schedule

// cpProbeA/cpProbeB are the two perturbed cost models CriticalPath replays.
// They are lifted to ReplayConfigs once at init so the probes themselves
// allocate nothing: with a warm replay pool a CriticalPath call is
// allocation-free.
var (
	cpProbeA = CostModel{FUnit: 100, BUnit: 200}.ReplayConfig()
	cpProbeB = CostModel{FUnit: 101, BUnit: 200}.ReplayConfig()
)

// CriticalPath returns (Cf, Cb): the number of forward and backward passes
// on the critical path of the schedule under the practical workload ratio
// (backward = 2× forward). It probes the dependency structure with two
// replays of slightly different forward costs and solves the linear system;
// the path is assumed stable under the perturbation.
//
// These are the Cf and Cb of the paper's Eq. 1 (§3.4). The counts depend
// only on the schedule's dependency structure, so they are memoized per
// ScheduleKey by internal/engine. Both probes are kernel passes over the
// schedule's compiled Graph — the graph is built once and shared — read out
// as makespans only.
func CriticalPath(s *Schedule) (cf, cb int, err error) {
	g, err := s.Graph()
	if err != nil {
		return 0, 0, err
	}
	return CriticalPathOf(func(rc ReplayConfig) (int64, error) {
		r := g.Readout(rc)
		defer r.Release()
		return r.Makespan(), nil
	})
}

// CriticalPathOf is CriticalPath over the caller's replay: makespan(rc) must
// return the schedule's makespan under rc, however it comes by it (the engine
// replays a shorter schedule when that is exact).
func CriticalPathOf(makespan func(ReplayConfig) (int64, error)) (cf, cb int, err error) {
	m1, err := makespan(cpProbeA)
	if err != nil {
		return 0, 0, err
	}
	m2, err := makespan(cpProbeB)
	if err != nil {
		return 0, 0, err
	}
	cf = int(m2 - m1)
	cb = int((m1 - int64(cf)*100) / 200)
	return cf, cb, nil
}
