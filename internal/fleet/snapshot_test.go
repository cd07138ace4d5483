package fleet

// Snapshot returns a live sim's result so far: the counters, the processed
// event log (a clipped view, like Log), the per-arrival runs in trace
// order, the allocation in effect, and cost/utilization integrated to the
// current time (unlike a completed trace's result, which anchors them at
// the makespan). Only tests read a live sim whole: the controller reads its
// histories through Events and Log, and its allocation through Shares.
func (s *ElasticSim) Snapshot() ElasticResult {
	out := *s.res
	out.Log = s.Log()
	s.seal(&out)
	out.Cost = s.Cost()
	out.Final = finalShares(s.active)
	return out
}
