package schedule

import "fmt"

// Validate checks structural invariants of a schedule:
//
//  1. every micro-batch's forward and backward appear exactly once per stage,
//  2. ops live on the worker its replica map assigns,
//  3. per-worker order is consistent with data dependencies (replay succeeds),
//  4. forward precedes backward per (micro-batch, stage) in replay time.
func (s *Schedule) Validate() error {
	// Schedule is a public alias, so the header may be hand-built: check the
	// lengths everything below indexes by before indexing.
	if len(s.Workers) != s.D {
		return fmt.Errorf("%s: Workers lists %d workers, want D = %d", s.Scheme, len(s.Workers), s.D)
	}
	if len(s.MicroReplica) < s.N {
		return fmt.Errorf("%s: MicroReplica covers %d micro-batches, want N = %d", s.Scheme, len(s.MicroReplica), s.N)
	}
	for r, rm := range s.Replicas {
		if len(rm.WorkerOf) < s.D {
			return fmt.Errorf("%s: Replicas[%d].WorkerOf covers %d stages, want D = %d", s.Scheme, r, len(rm.WorkerOf), s.D)
		}
	}
	seen := make(map[depKey]int)
	for w, ops := range s.Workers {
		for _, op := range ops {
			if op.Stage < 0 || op.Stage >= s.D {
				return fmt.Errorf("%s: op %s has stage out of range", s.Scheme, op)
			}
			if op.Replica < 0 || op.Replica >= len(s.Replicas) {
				return fmt.Errorf("%s: op %s has replica out of range", s.Scheme, op)
			}
			if want := s.Replicas[op.Replica].WorkerOf[op.Stage]; want != w {
				return fmt.Errorf("%s: op %s on worker %d, replica map says %d", s.Scheme, op, w, want)
			}
			for _, m := range op.Micros {
				if m < 0 || m >= s.N {
					return fmt.Errorf("%s: op %s micro out of range", s.Scheme, op)
				}
				if s.MicroReplica[m] != op.Replica {
					return fmt.Errorf("%s: op %s but micro %d belongs to replica %d", s.Scheme, op, m, s.MicroReplica[m])
				}
				seen[depKey{op.Kind, m, op.Stage, op.Half}]++
			}
		}
	}
	for m := 0; m < s.N; m++ {
		for st := 0; st < s.D; st++ {
			if c := seen[depKey{Forward, m, st, 0}]; c != 1 {
				return fmt.Errorf("%s: F for micro %d stage %d appears %d times", s.Scheme, m, st, c)
			}
			if s.HalvedBackward {
				for _, h := range []uint8{1, 2} {
					if c := seen[depKey{Backward, m, st, h}]; c != 1 {
						return fmt.Errorf("%s: B half %d for micro %d stage %d appears %d times", s.Scheme, h, m, st, c)
					}
				}
			} else if c := seen[depKey{Backward, m, st, 0}]; c != 1 {
				return fmt.Errorf("%s: B for micro %d stage %d appears %d times", s.Scheme, m, st, c)
			}
		}
	}
	// Replay must succeed (no deadlock). Compiling the dependency graph is
	// where it would fail, under any cost model.
	_, err := s.Graph()
	return err
}

// ConflictCount replays the schedule in the equal-cost model and counts ops
// that could not start at their construction slot because the worker was
// still busy — zero for a conflict-free merge (the paper's guarantee for
// bidirectional pipelines with even D).
func (s *Schedule) ConflictCount() (int, error) {
	r, err := s.Readout(UnitEqual.ReplayConfig())
	if err != nil {
		return 0, err
	}
	tl := r.Timeline()
	defer tl.Release()
	conflicts := 0
	for w, ops := range s.Workers {
		for i, op := range ops {
			if tl.Start[w][i] > int64(op.prio) {
				conflicts++
			}
		}
	}
	return conflicts, nil
}
