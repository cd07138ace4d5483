package schedule

import "fmt"

// GPipe builds the GPipe schedule: all N forwards pipelined, then all N
// backwards, with a flush (Huang et al., 2019). Activation memory grows
// with N (all micro-batches resident at the turnaround).
func GPipe(d, n int) (*Schedule, error) {
	if err := checkDN(d, n); err != nil {
		return nil, err
	}
	s := newSingleDown("gpipe", d, n, true)
	for w := 0; w < d; w++ {
		s.Workers[w] = make([]Op, 0, 2*n)
		for m := 0; m < n; m++ {
			s.Workers[w] = append(s.Workers[w],
				Op{Kind: Forward, Stage: w, Replica: 0, Micros: microRun(m, 1), prio: int32(w + m)})
		}
		for m := 0; m < n; m++ {
			// Backwards drain in micro-batch order from the last stage.
			s.Workers[w] = append(s.Workers[w],
				Op{Kind: Backward, Stage: w, Replica: 0, Micros: microRun(m, 1), prio: int32(n + d + (d - 1 - w) + m)})
		}
	}
	s.sortWorkerOps()
	return s, nil
}

// DAPPLE builds the DAPPLE schedule: 1F1B with warmup min(N, D−p) forwards
// on stage p and a synchronous flush (Fan et al., 2021).
func DAPPLE(d, n int) (*Schedule, error) {
	return dapple1F1B("dapple", d, n, true)
}

// PipeDream builds the asynchronous 1F1B schedule without flushes
// (Narayanan et al., 2019). The op order matches DAPPLE; Synchronous=false
// marks that gradients apply per micro-batch with weight stashing (up to D
// versions), which analysis and the simulator account for.
func PipeDream(d, n int) (*Schedule, error) {
	return dapple1F1B("pipedream", d, n, false)
}

// PipeDream2BW builds the PipeDream-2BW schedule: asynchronous 1F1B with
// gradient accumulation and double-buffered weights (2 stashed versions).
func PipeDream2BW(d, n int) (*Schedule, error) {
	return dapple1F1B("pipedream-2bw", d, n, false)
}

func dapple1F1B(name string, d, n int, synchronous bool) (*Schedule, error) {
	if err := checkDN(d, n); err != nil {
		return nil, err
	}
	s := newSingleDown(name, d, n, synchronous)
	for w := 0; w < d; w++ {
		s.Workers[w] = make([]Op, 0, 2*n)
		warmup := d - w
		if warmup > n {
			warmup = n
		}
		slot := int32(w) // first forward arrives after w hops
		nextF, nextB := 0, 0
		for nextF < warmup {
			s.Workers[w] = append(s.Workers[w],
				Op{Kind: Forward, Stage: w, Replica: 0, Micros: microRun(nextF, 1), prio: slot})
			nextF++
			slot++
		}
		// Steady state: one backward, one forward.
		for nextB < n {
			s.Workers[w] = append(s.Workers[w],
				Op{Kind: Backward, Stage: w, Replica: 0, Micros: microRun(nextB, 1), prio: slot})
			nextB++
			slot++
			if nextF < n {
				s.Workers[w] = append(s.Workers[w],
					Op{Kind: Forward, Stage: w, Replica: 0, Micros: microRun(nextF, 1), prio: slot})
				nextF++
				slot++
			}
		}
	}
	s.sortWorkerOps()
	return s, nil
}

// GEMS builds the GEMS schedule (Jain et al., 2020): two model replicas in
// opposite directions, micro-batches alternating between them, with at most
// two concurrently active micro-batches — memory-minimal, high bubble ratio.
func GEMS(d, n int) (*Schedule, error) {
	if err := checkDN(d, n); err != nil {
		return nil, err
	}
	s := &Schedule{
		Scheme:       "gems",
		D:            d,
		N:            n,
		F:            1,
		Workers:      make([][]Op, d),
		Synchronous:  true,
		MicroReplica: make([]int, n),
		Replicas:     []ReplicaMap{downMap(d, 1, 0), upMap(d, 1, 0)},
	}
	for m := 0; m < n; m++ {
		rep := m % 2
		rm := s.Replicas[rep]
		s.MicroReplica[m] = rep
		// Each micro-batch's forward chases the previous micro-batch's
		// backward through the pipeline; greedy replay produces the overlap.
		base := m * (d + 1)
		for st := 0; st < d; st++ {
			w := rm.WorkerOf[st]
			s.Workers[w] = append(s.Workers[w],
				Op{Kind: Forward, Stage: st, Replica: rep, Micros: microRun(m, 1), prio: int32(base + st)},
				Op{Kind: Backward, Stage: st, Replica: rep, Micros: microRun(m, 1), prio: int32(base + 2*d - 1 - st)})
		}
	}
	s.sortWorkerOps()
	return s, nil
}

// ByName constructs a schedule by scheme name with default options; Chimera
// uses f=1 and direct concatenation. Recognized names: chimera, gpipe,
// dapple, gems, pipedream, pipedream-2bw, 1f1b.
func ByName(name string, d, n int) (*Schedule, error) {
	switch name {
	case "chimera":
		return Chimera(ChimeraConfig{D: d, N: n})
	case "gpipe":
		return GPipe(d, n)
	case "dapple":
		return DAPPLE(d, n)
	case "gems":
		return GEMS(d, n)
	case "pipedream":
		return PipeDream(d, n)
	case "pipedream-2bw":
		return PipeDream2BW(d, n)
	case "1f1b":
		return OneF1B(d, n)
	default:
		return nil, fmt.Errorf("schedule: unknown scheme %q", name)
	}
}

// Schemes lists all supported scheme names in the paper's Table 2 order.
func Schemes() []string {
	return []string{"pipedream", "pipedream-2bw", "gpipe", "gems", "dapple", "chimera"}
}

func checkDN(d, n int) error {
	if d < 1 {
		return fmt.Errorf("schedule: D must be ≥1, got %d", d)
	}
	if n < 1 {
		return fmt.Errorf("schedule: N must be ≥1, got %d", n)
	}
	return nil
}

func newSingleDown(name string, d, n int, synchronous bool) *Schedule {
	s := &Schedule{
		Scheme:       name,
		D:            d,
		N:            n,
		F:            1,
		Workers:      make([][]Op, d),
		Synchronous:  synchronous,
		MicroReplica: make([]int, n),
		Replicas:     []ReplicaMap{downMap(d, 1, 0)},
	}
	return s
}
