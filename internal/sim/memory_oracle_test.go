package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// oraclePeakMemory is the memory model as it stood before residency
// profiles: a per-op walk accumulating live activation bytes in float64, and
// weight memory from StagesOn and a private high-water walk. It survives
// only here, as the reference PeakMemory is checked against. Its float
// accumulation is exact while live bytes stay below 2⁵³ — the domain the
// tests draw from.
func oraclePeakMemory(cfg *Config, stages []model.Stage) []int64 {
	s := cfg.Schedule
	out := make([]int64, s.D)
	for w := 0; w < s.D; w++ {
		out[w] = oracleWeightMemory(cfg, stages, w) + oracleActivationPeak(cfg, stages, w)
	}
	return out
}

func oracleWeightMemory(cfg *Config, stages []model.Stage, w int) int64 {
	s := cfg.Schedule
	var bytes int64
	for _, pl := range s.StagesOn(w) {
		st := stages[pl.Stage]
		if cfg.ZeRO && s.Synchronous {
			r := int64(len(s.Replicas) * cfg.W)
			bytes += st.Params() * (8 + (4+r-1)/r)
		} else {
			bytes += st.Params() * model.BytesPerParamTraining
		}
		if !s.Synchronous {
			versions := 1
			switch s.Scheme {
			case "pipedream":
				var live, peak float64
				for _, op := range s.Workers[w] {
					switch {
					case op.Kind == schedule.Forward:
						live += float64(len(op.Micros))
					case op.Half != 0:
						live -= 0.5 * float64(len(op.Micros))
					default:
						live -= float64(len(op.Micros))
					}
					if live > peak {
						peak = live
					}
				}
				versions = max(int(peak), 1)
			case "pipedream-2bw":
				versions = 2
			}
			bytes += int64(versions-1) * st.Params() * 4
		}
	}
	return bytes
}

func oracleActivationPeak(cfg *Config, stages []model.Stage, w int) int64 {
	s := cfg.Schedule
	var live, peak float64
	var maxWorkingSet int64
	for _, op := range s.Workers[w] {
		st := stages[op.Stage]
		perMicro := float64(st.ActivationBytes(cfg.MicroBatch))
		if cfg.Recompute {
			perMicro = float64(cfg.Model.BoundaryBytes(cfg.MicroBatch))
			if ws := st.ActivationBytes(cfg.MicroBatch); ws > maxWorkingSet {
				maxWorkingSet = ws
			}
		}
		n := float64(len(op.Micros))
		switch {
		case op.Kind == schedule.Forward:
			live += perMicro * n
		case op.Half != 0:
			live -= perMicro * n / 2
		default:
			live -= perMicro * n
		}
		if live > peak {
			peak = live
		}
	}
	return int64(peak) + maxWorkingSet
}

// oracleSpec names one schedule of the equivalence grid by the inputs of
// schedule.Build, so the fuzz target can reach the same space.
type oracleSpec struct {
	scheme string
	d, n   int
	f      int
	concat schedule.ConcatMode
	policy string // "" = fixed placement, else a list scheduler
}

func (sp oracleSpec) build() (*schedule.Schedule, error) {
	spec := schedule.Spec{Scheme: sp.scheme, Scheduler: sp.policy, D: sp.d, N: sp.n, F: sp.f, Concat: sp.concat}
	if sp.policy != "" {
		// A graded cluster: every list policy re-places against it.
		spec.SpeedFactors = make([]float64, sp.d)
		for w := range spec.SpeedFactors {
			spec.SpeedFactors[w] = 1 + 0.25*float64((w*7)%sp.d)
		}
	}
	return schedule.Build(spec)
}

// randomModel draws a transformer whose live activation bytes stay far below
// 2⁵³ for every schedule of the grid (≤ 64 resident micro-batches of ≤ 64
// sequences): the oracle's float accumulation is exact there.
func randomModel(rng *rand.Rand, d int) model.Config {
	heads := 1 + rng.Intn(32)
	return model.Config{
		Name:   "random",
		Layers: d * (1 + rng.Intn(4)),
		Hidden: heads * (8 + rng.Intn(73)),
		Heads:  heads,
		Vocab:  1 + rng.Intn(60000),
		SeqLen: 1 + rng.Intn(1024),
	}
}

// assertMemoryMatchesOracle compares PeakMemory and FitsMemory with the
// oracle for one schedule and model under every memory-relevant switch.
func assertMemoryMatchesOracle(t *testing.T, name string, s *schedule.Schedule, m model.Config, b, w int) {
	t.Helper()
	stages := make([]model.Stage, s.D) // the oracle's own table; Validate checks the depth
	for i := range stages {
		stages[i] = m.Stage(i, s.D)
	}
	for _, zero := range []bool{false, true} {
		cfg := Config{Model: m, Schedule: s, MicroBatch: b, W: w, ZeRO: zero}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var peaks [2][]int64
		for i, rec := range []bool{false, true} {
			cfg.Recompute = rec
			got, want := PeakMemory(&cfg), oraclePeakMemory(&cfg, stages)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s B=%d W=%d zero=%v recompute=%v model=%+v:\n got %v\nwant %v", name, b, w, zero, rec, m, got, want)
			}
			peaks[i] = want
		}
		// Put the device limit on a worker's own peak, then one byte under:
		// both sides of every FitsMemory comparison are exercised.
		for _, limit := range []int64{maxOf(peaks[0]), maxOf(peaks[0]) - 1, maxOf(peaks[1]), maxOf(peaks[1]) - 1} {
			cfg.Device.MemBytes = limit
			plain, withRec, err := FitsMemory(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if wantPlain, wantRec := maxOf(peaks[0]) <= limit, maxOf(peaks[1]) <= limit; plain != wantPlain || withRec != wantRec {
				t.Fatalf("%s limit=%d: FitsMemory (%v, %v), oracle (%v, %v)", name, limit, plain, withRec, wantPlain, wantRec)
			}
		}
	}
}

func maxOf(v []int64) int64 {
	m := v[0]
	for _, x := range v[1:] {
		m = max(m, x)
	}
	return m
}

// TestPeakMemoryMatchesOpWalk is equivalence test (b): the residency-profile
// memory model equals the op walk it replaced over all schemes × {plain,
// recompute, ZeRO} × F ∈ {1, 2, 4} × the three concat modes × list-scheduled
// heterogeneous placements, on randomised models.
func TestPeakMemoryMatchesOpWalk(t *testing.T) {
	var specs []oracleSpec
	for _, scheme := range append(schedule.Schemes(), "1f1b") {
		for _, dn := range [][2]int{{4, 1}, {4, 8}, {6, 9}, {8, 32}} {
			if scheme == "chimera" && dn[0]%2 != 0 {
				continue
			}
			specs = append(specs, oracleSpec{scheme: scheme, d: dn[0], n: dn[1]})
		}
	}
	for _, f := range []int{1, 2, 4} {
		for _, concat := range []schedule.ConcatMode{schedule.Direct, schedule.ForwardDoubling, schedule.BackwardHalving} {
			for _, n := range []int{3, 8, 16, 24, 40} {
				if concat != schedule.Direct && n%8 != 0 {
					continue
				}
				specs = append(specs, oracleSpec{scheme: "chimera", d: 8, n: n, f: f, concat: concat})
			}
		}
	}
	for _, base := range append([]oracleSpec(nil), specs...) {
		if base.n < 8 {
			continue
		}
		for _, policy := range []string{"heft", "cpop", "lb"} {
			base.policy = policy
			specs = append(specs, base)
		}
	}
	rng := rand.New(rand.NewSource(20260927))
	for _, sp := range specs {
		name := fmt.Sprintf("%+v", sp)
		s, err := sp.build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for trial := 0; trial < 3; trial++ {
			assertMemoryMatchesOracle(t, name, s, randomModel(rng, sp.d), 1+rng.Intn(64), 1+rng.Intn(8))
		}
	}
	t.Logf("%d schedules × 3 random models × {plain, recompute} × {ZeRO off, on}", len(specs))
}

// FuzzPeakMemoryEquivalence lets the fuzzer pick the schedule, the model
// dimensions and the batch shape; PeakMemory and FitsMemory must agree with
// the op-walk oracle wherever both are defined. The seed corpus is committed
// under testdata/fuzz and replays on every plain `go test`.
func FuzzPeakMemoryEquivalence(f *testing.F) {
	f.Fuzz(func(t *testing.T, scheme string, d, n, pipes, concat int, policy string,
		layersPerStage, hidden, heads, vocab, seq, b, w int) {
		// Bound the instance: small enough that one input cannot eat the
		// budget, and inside the < 2⁵³ live-bytes domain of the oracle.
		if d < 1 || d > 12 || n < 1 || n > 48 || pipes < 1 || pipes > 4 || concat < 0 || concat > 2 {
			t.Skip()
		}
		if layersPerStage < 1 || layersPerStage > 4 || hidden < 1 || hidden > 4096 || heads < 1 || heads > 64 ||
			vocab < 1 || vocab > 100000 || seq < 1 || seq > 1024 || b < 1 || b > 64 || w < 1 || w > 64 {
			t.Skip()
		}
		sp := oracleSpec{scheme: scheme, d: d, n: n, f: pipes, concat: schedule.ConcatMode(concat), policy: policy}
		s, err := sp.build()
		if err != nil {
			t.Skip() // unknown scheme or policy, or an infeasible shape
		}
		m := model.Config{Name: "fuzz", Layers: d * layersPerStage, Hidden: hidden, Heads: heads, Vocab: vocab, SeqLen: seq}
		assertMemoryMatchesOracle(t, fmt.Sprintf("%+v", sp), s, m, b, w)
	})
}
