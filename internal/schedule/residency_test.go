package schedule

import (
	"fmt"
	"math/rand"
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

// orderingMatrix is every generator family sortWorkerOps and Residency must
// handle: the placement-policy conformance set plus the shapes it lacks —
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
// emitted per-worker order is what sort.SliceStable(opLess) makes of it.
// opLess is a total order on one worker's ops (asserted), so the stable sort
// of any emission order is unique — which lets the test also scramble each
// list, push it back through sortWorkerOps and demand the same order.
func TestWorkerOpOrderIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, s := range orderingMatrix(t) {
		scrambled := &Schedule{D: s.D, Workers: make([][]Op, s.D)}
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
			mixed := append([]Op(nil), ops...)
			rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
			scrambled.Workers[w] = mixed
		}
		scrambled.sortWorkerOps()
		if !reflect.DeepEqual(scrambled.Workers, s.Workers) {
			t.Fatalf("%s: sortWorkerOps of a scrambled emission differs from the generator's order", name)
		}
	}
}

// TestPlaceBySlotKeepsEmissionOrderOnTies pins the one case no generator
// produces: ops opLess cannot tell apart stay in emission order, as under a
// stable sort.
func TestPlaceBySlotKeepsEmissionOrderOnTies(t *testing.T) {
	m := microRun(0, 1)
	ops := []Op{
		{Kind: Backward, Stage: 1, Micros: m, prio: 5},
		{Kind: Forward, Stage: 7, Micros: m, prio: 3},
		{Kind: Forward, Stage: 8, Micros: m, prio: 3},
		{Kind: Forward, Stage: 2, Micros: m, prio: 5},
		{Kind: Forward, Stage: 9, Micros: m, prio: 3},
		{Kind: Forward, Stage: 0, Micros: m, prio: -2},
	}
	want := append([]Op(nil), ops...)
	sort.SliceStable(want, func(i, j int) bool { return opLess(want[i], want[j]) })
	s := &Schedule{D: 1, Workers: [][]Op{ops}}
	s.sortWorkerOps()
	if !reflect.DeepEqual(s.Workers[0], want) {
		t.Fatalf("got %v, want %v", s.Workers[0], want)
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

// periodicNs lists the micro-batch counts TestResidencyPeriodic checks at
// depth d: every N up to 6D+3 for the small depths, and for all depths every
// N ≤ 1024 the planner's power-of-two B sweep reaches from a 2^a or 3·2^a
// per-pipeline mini-batch, plus — for the residues at and next to the unit
// boundaries — the two shortest N that share the residue, and for the two
// odd-sized trailing units the longest.
func periodicNs(d int) []int {
	seen := map[int]bool{}
	add := func(n int) {
		if n >= 2*d && n <= 1024 {
			seen[n] = true
		}
	}
	if d <= 16 {
		for n := 2 * d; n <= 6*d+3; n++ {
			add(n)
		}
	}
	for a := 1; a <= 1024; a *= 2 {
		add(a)
		add(3 * a)
	}
	for _, r := range []int{0, 1, d / 2, d - 1} {
		add(2*d + r)
		add(3*d + r)
	}
	for _, r := range []int{1, d - 1} {
		add(1024 - (1024-r)%d)
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// TestResidencyPeriodic is equivalence test (a): the profile of a fixed-
// placement, direct, F = 1 Chimera schedule equals that of its
// ResidencyEquivalent — the invariant the engine's profile memo and the
// planner's one-pass B search rest on.
func TestResidencyPeriodic(t *testing.T) {
	maxD := 128
	if testing.Short() {
		maxD = 32
	}
	checked := 0
	for d := 2; d <= maxD; d += 2 {
		// One short schedule per residue serves every N that shares it.
		short := map[int]*Residency{}
		for _, n := range periodicNs(d) {
			cfg := ChimeraConfig{D: d, N: n}
			eq := cfg.ResidencyEquivalent()
			if eq.N >= n || eq.N < d || eq.N%d != n%d || eq.D != d {
				t.Fatalf("D=%d N=%d: equivalent %+v is not a shorter schedule of the same residue", d, n, eq)
			}
			want, ok := short[eq.N]
			if !ok {
				s, err := Chimera(eq)
				if err != nil {
					t.Fatal(err)
				}
				want = s.Residency()
				short[eq.N] = want
			}
			s, err := Chimera(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Residency(); !reflect.DeepEqual(got, want) {
				t.Fatalf("D=%d: residency at N=%d differs from N′=%d", d, n, eq.N)
			}
			checked++
		}
	}
	t.Logf("%d (D, N) pairs equal their residency-equivalent", checked)
}

// TestResidencyEquivalentScope: everything outside the proven scope maps to
// itself, and the scope is not vacuous — dropping a unit too many, or
// shortening an F = 2 schedule the same way, does change the profile.
func TestResidencyEquivalentScope(t *testing.T) {
	for _, cfg := range []ChimeraConfig{
		{D: 8, N: 8}, {D: 8, N: 15}, // N < 2D: nothing shorter is known
		{D: 8, N: 64, F: 2},
		{D: 8, N: 64, Concat: ForwardDoubling},
		{D: 8, N: 64, Concat: BackwardHalving},
	} {
		if eq := cfg.ResidencyEquivalent(); eq != cfg {
			t.Errorf("%+v shortened to %+v", cfg, eq)
		}
	}
	if eq := (ChimeraConfig{D: 8, N: 67}).ResidencyEquivalent(); eq.N != 11 {
		t.Errorf("D=8 N=67: got N′=%d, want 11", eq.N)
	}
	differs := func(a, b ChimeraConfig) bool {
		sa, err := Chimera(a)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := Chimera(b)
		if err != nil {
			t.Fatal(err)
		}
		return !reflect.DeepEqual(sa.Residency(), sb.Residency())
	}
	if !differs(ChimeraConfig{D: 8, N: 19}, ChimeraConfig{D: 8, N: 3}) {
		t.Error("dropping every full unit should change the profile")
	}
}
