package schedule

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// walkHighWater is the op walk ActivationHighWater used to run itself, kept
// as the oracle for the profile-derived one.
func walkHighWater(s *Schedule) []float64 {
	out := make([]float64, s.D)
	for w, ops := range s.Workers {
		var live, peak float64
		for _, op := range ops {
			switch {
			case op.Kind == Forward:
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
		out[w] = peak
	}
	return out
}

// orderingMatrix is every generator family whose op order and Residency are
// checked: the placement-policy conformance set plus the shapes it lacks —
// partial trailing units, the odd residual unit of forward doubling, wider
// pipelines groups, and the list-scheduled re-placements of each.
func orderingMatrix(t *testing.T) map[string]*Schedule {
	t.Helper()
	out := conformanceConfigs(t)
	for _, c := range []ChimeraConfig{
		{D: 2, N: 1}, {D: 4, N: 3}, {D: 6, N: 17}, {D: 8, N: 44}, {D: 16, N: 256},
		{D: 8, N: 24, Concat: ForwardDoubling},
		{D: 8, N: 32, Concat: BackwardHalving},
		{D: 8, N: 13, F: 2}, {D: 16, N: 40, F: 4},
		{D: 8, N: 16, F: 4, Concat: ForwardDoubling},
		{D: 8, N: 16, F: 2, Concat: BackwardHalving},
	} {
		s, err := Chimera(c)
		if err != nil {
			t.Fatalf("chimera %+v: %v", c, err)
		}
		out[fmt.Sprintf("chimera-%+v", c)] = s
	}
	for _, scheme := range append(Schemes(), "1f1b") {
		s, err := ByName(scheme, 6, 9)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		out[scheme+"-d6n9"] = s
	}
	for name, base := range out {
		for _, policy := range []string{"heft", "cpop", "lb"} {
			s, err := Build(Spec{
				Scheme: base.Scheme, Scheduler: policy, D: base.D, N: base.N, F: base.F,
				Concat: concatOf(base), SpeedFactors: speedProfiles(base.D)["graded"],
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			out[name+"/"+policy] = s
		}
	}
	return out
}

func concatOf(s *Schedule) ConcatMode {
	switch {
	case s.HalvedBackward:
		return BackwardHalving
	case s.DoubledForward:
		return ForwardDoubling
	}
	return Direct
}

// TestWorkerOpOrderIsStableSort is equivalence test (d): every generator's
// emitted per-worker order is what sort.SliceStable(opLess) makes of it, and
// opLess is a strict total order on one worker's ops (asserted), so that
// order is unique. GPipe, GEMS and the 1F1B family append in this order
// with no sort behind them; this test is their guarantee.
func TestWorkerOpOrderIsStableSort(t *testing.T) {
	for name, s := range orderingMatrix(t) {
		for w, ops := range s.Workers {
			want := append([]Op(nil), ops...)
			sort.SliceStable(want, func(i, j int) bool { return opLess(want[i], want[j]) })
			if !reflect.DeepEqual(ops, want) {
				t.Fatalf("%s worker %d: emitted order is not the stable opLess sort", name, w)
			}
			for i := 1; i < len(want); i++ {
				if !opLess(want[i-1], want[i]) {
					t.Fatalf("%s worker %d: ops %v and %v tie under opLess", name, w, want[i-1], want[i])
				}
			}
		}
	}
}

// TestResidencyMatchesOpWalk checks the profile against the walk it
// replaced, and its structural promises, over the whole matrix.
func TestResidencyMatchesOpWalk(t *testing.T) {
	for name, s := range orderingMatrix(t) {
		res := s.Residency()
		if res != s.Residency() {
			t.Fatalf("%s: Residency is not cached on the schedule", name)
		}
		if got, want := s.ActivationHighWater(), walkHighWater(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: high water %v, op walk says %v", name, got, want)
		}
		for w := range res.Workers {
			wr := &res.Workers[w]
			if !reflect.DeepEqual(wr.Hosted, s.StagesOn(w)) && len(wr.Hosted)+len(s.StagesOn(w)) > 0 {
				t.Fatalf("%s worker %d: hosted %v, StagesOn %v", name, w, wr.Hosted, s.StagesOn(w))
			}
			for i, a := range wr.Peaks {
				for j, b := range wr.Peaks {
					if i != j && dominates(a, b) {
						t.Fatalf("%s worker %d: peak %v dominates peak %v", name, w, a, b)
					}
				}
			}
			// A placement carries ops iff some peak counts it.
			active := map[StagePlacement]bool{}
			for _, op := range s.Workers[w] {
				active[StagePlacement{Replica: op.Replica, Stage: op.Stage}] = true
			}
			for k, pl := range wr.Hosted {
				counted := false
				for _, v := range wr.Peaks {
					counted = counted || v[k] > 0
				}
				if counted != active[pl] {
					t.Fatalf("%s worker %d: placement %v has ops=%v but peaks count it=%v", name, w, pl, active[pl], counted)
				}
			}
		}
	}
}

// longestN is the longest micro-batch count the closed-form suites check.
const longestN = 1024

// periodicNs lists the long micro-batch counts the closed-form suites check
// at depth d, those periodicN holds.
func periodicNs(d int) []int {
	var out []int
	for n := 2 * d; n <= longestN; n++ {
		if periodicN(d, n) {
			out = append(out, n)
		}
	}
	return out
}

// periodicN reports whether n is one of the long micro-batch counts at depth
// d, 2D ≤ n ≤ longestN: every n up to 6D+3 for the small depths, and for all
// depths every n the planner's power-of-two B sweep reaches from a 2^a or
// 3·2^a per-pipeline mini-batch, plus — for the residues at and next to the
// unit boundaries — the two shortest n that share the residue, and for the
// two odd-sized trailing units the longest.
func periodicN(d, n int) bool {
	if n < 2*d || n > longestN {
		return false
	}
	if k := n / 3; d <= 16 && n <= 6*d+3 || n&(n-1) == 0 || n%3 == 0 && k&(k-1) == 0 {
		return true
	}
	for _, r := range []int{0, 1, d / 2, d - 1} {
		if n == 2*d+r || n == 3*d+r {
			return true
		}
	}
	return n == longestN-(longestN-1)%d || n == longestN-(longestN-d+1)%d
}

// closedFormResidency builds the residency profile of the schedule Chimera
// builds for cfg from ResidencyRow alone, without building the schedule, so
// the oracle sweep and FuzzResidencyClosedForm can hold the rows to the
// walk struct for struct. Outside the closed forms' scope it returns no
// profile and no error; invalid configurations return Chimera's error.
func closedFormResidency(cfg ChimeraConfig) (*Residency, error) {
	if _, err := cfg.check(); err != nil || !cfg.closedForm() {
		return nil, err
	}
	d := cfg.D
	r := &Residency{Scheme: "chimera", Synchronous: true, Replicas: 2, Workers: make([]WorkerResidency, d)}
	for w := range r.Workers {
		down, up := cfg.ResidencyRow(w)
		r.Workers[w] = WorkerResidency{
			Hosted: []StagePlacement{{Replica: 0, Stage: w}, {Replica: 1, Stage: d - 1 - w}},
			Peaks:  [][]int32{{down, up}},
		}
	}
	return r, nil
}

// FuzzResidencyClosedForm: over fuzzer-chosen even D ≤ 256, N ≤ 4096 and
// concatenation mode, the closed form is the walk whenever it answers, it
// answers for every direct configuration, and it fails exactly when — and
// as — Chimera does. The committed corpus (testdata/fuzz) replays on every
// go test.
func FuzzResidencyClosedForm(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0))
	f.Add(uint8(3), uint16(7), uint8(1))
	f.Add(uint8(7), uint16(67), uint8(0))
	f.Add(uint8(15), uint16(95), uint8(2))
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16, mode uint8) {
		cfg := ChimeraConfig{D: 2 + 2*int(d8%128), N: 1 + int(n16%4096), Concat: ConcatMode(mode % 3)}
		got, err := closedFormResidency(cfg)
		s, serr := Chimera(cfg)
		if (err == nil) != (serr == nil) || (err != nil && err.Error() != serr.Error()) {
			t.Fatalf("%+v: closed form error %v, Chimera %v", cfg, err, serr)
		}
		switch {
		case err != nil:
		case got == nil:
			if cfg.N <= cfg.D || cfg.Concat == Direct {
				t.Fatalf("%+v: direct configuration has no closed form", cfg)
			}
		case !reflect.DeepEqual(got, s.Residency()):
			t.Fatalf("%+v: closed form %+v, walk %+v", cfg, got, s.Residency())
		}
	})
}
