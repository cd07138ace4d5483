package schedule

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// graphDiff names the first field on which got differs from want, the
// source schedule aside, or returns "" when they are DeepEqual.
func graphDiff(got, want *Graph) string {
	a, b := *got, *want
	a.s, a.lazy, b.s, b.lazy = nil, nil, nil, nil
	if reflect.DeepEqual(a, b) {
		return ""
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"n", a.n, b.n}, {"direct", a.direct, b.direct}, {"base", a.base, b.base},
		{"shape", a.shape, b.shape}, {"shapes", a.shapes, b.shapes},
		{"arity", a.arity, b.arity}, {"pred", a.pred, b.pred}, {"order", a.order, b.order},
		{"gradStart", a.gradStart, b.gradStart}, {"grad", a.grad, b.grad},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			return fmt.Sprintf("%s: %v, compile's %v", f.name, f.a, f.b)
		}
	}
	return "a field graphDiff does not list"
}

// slotGraphModels are the cost models a slot-walk graph must replay
// bit-identically to the compiled one under: the paper's two unit models and
// the planner's unit-cost pair.
var slotGraphModels = []CostModel{UnitPractical, UnitEqual, {FUnit: 1000, BUnit: 2000}, {FUnit: 1000, BUnit: 3000}}

// checkChimeraGraph fails unless cfg.Graph() is compileGraph(Chimera(cfg))
// as sameSlotGraph checks it.
func checkChimeraGraph(tb testing.TB, cfg ChimeraConfig) {
	tb.Helper()
	s, err := Chimera(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	want, err := compileGraph(s)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sameSlotGraph(cfg, want); err != nil {
		tb.Fatal(err)
	}
}

// sameSlotGraph reports how cfg.Graph() differs from want, the compiled
// graph of Chimera(cfg), or nil. Every field but the source pointer and the
// order is DeepEqual. The order is the walk's own: it must be a permutation
// of the node ids, pass OrderError, and replay bit-identically to compile's
// under every slotGraphModels entry.
func sameSlotGraph(cfg ChimeraConfig, want *Graph) error {
	got, err := cfg.Graph()
	if err != nil || got == nil {
		return fmt.Errorf("%+v: no graph from the slot formulas (%v)", cfg, err)
	}
	a, b := *got, *want
	a.order, b.order = nil, nil
	if diff := graphDiff(&a, &b); diff != "" {
		return fmt.Errorf("%+v: slot-formula graph differs from the compiled one on %s", cfg, diff)
	}
	seen := make([]bool, got.Nodes())
	perm := len(got.order) == len(seen)
	for _, id := range got.order {
		perm = perm && id >= 0 && int(id) < len(seen) && !seen[id]
		if perm {
			seen[id] = true
		}
	}
	if !perm {
		return fmt.Errorf("%+v: the walk's order is not a permutation of the %d node ids", cfg, got.Nodes())
	}
	if err := got.OrderError(); err != nil {
		return fmt.Errorf("%+v: the walk's order: %v", cfg, err)
	}
	for _, cm := range slotGraphModels {
		gr, wr := got.Readout(cm.ReplayConfig()), want.Readout(cm.ReplayConfig())
		same := gr.makespan == wr.makespan && slices.Equal(gr.end, wr.end) && slices.Equal(gr.ready, wr.ready)
		gr.Release()
		wr.Release()
		if !same {
			return fmt.Errorf("%+v %+v: the slot-formula graph replays to other times than the compiled one", cfg, cm)
		}
	}
	return nil
}

// TestChimeraGraphScope: the graph is written for the configurations Chimera
// builds direct with F = 1 (doubling or halving at N ≤ D included), nil and
// no error outside that scope, and an invalid configuration returns
// Chimera's own error.
func TestChimeraGraphScope(t *testing.T) {
	for _, cfg := range []ChimeraConfig{
		{D: 8, N: 8, Concat: ForwardDoubling}, {D: 8, N: 5, Concat: BackwardHalving},
		{D: 8, N: 64, F: 1}, {D: 8, N: 3, F: 0},
	} {
		checkChimeraGraph(t, cfg)
	}
	for _, cfg := range []ChimeraConfig{
		{D: 8, N: 64, F: 2}, {D: 8, N: 4, F: 4},
		{D: 8, N: 64, Concat: ForwardDoubling}, {D: 8, N: 64, Concat: BackwardHalving},
	} {
		if g, err := cfg.Graph(); g != nil || err != nil {
			t.Errorf("%+v: out of scope, got (%v, %v), want no graph and no error", cfg, g != nil, err)
		}
	}
	for _, cfg := range []ChimeraConfig{
		{D: 0, N: 4}, {D: 5, N: 64}, {D: -2, N: 3}, {D: 8, N: 0}, {D: 8, N: -3},
		{D: 8, N: 4, F: -1}, {D: 8, N: 4, F: 3},
		{D: 8, N: 12, Concat: ForwardDoubling}, {D: 8, N: 20, Concat: BackwardHalving},
		{D: 8, N: 16, Concat: ConcatMode(7)},
	} {
		_, serr := Chimera(cfg)
		g, err := cfg.Graph()
		if serr == nil || err == nil || g != nil || err.Error() != serr.Error() {
			t.Errorf("%+v: slot walk says (%v, %v), Chimera %v", cfg, g != nil, err, serr)
		}
	}
	// Past the graph's index spaces the walk fails with compile's errors:
	// more than 2^16 shapes (4D of them), more than 2^31 − 1 nodes (2ND).
	// Building either schedule takes seconds, so compile is not asked.
	for _, c := range []struct {
		cfg  ChimeraConfig
		want string
	}{
		{ChimeraConfig{D: 16386, N: 2}, `schedule "chimera" (D=16386 N=2): 65544 op shapes exceed the graph's uint16 shape space`},
		{ChimeraConfig{D: 2, N: 1 << 29}, `schedule "chimera" (D=2 N=536870912): 2147483648 ops exceed the graph's int32 node space`},
	} {
		if g, err := c.cfg.Graph(); g != nil || err == nil || err.Error() != c.want {
			t.Errorf("%+v: slot walk says (%v, %v), want %q", c.cfg, g != nil, err, c.want)
		}
	}
}

// TestChimeraGraphSource: a slot-formula graph builds its schedule once, on
// the first Source, and that schedule is the one Chimera builds, with its
// Graph() pre-set to the same graph, so no second compilation ever runs.
// Replaying the graph builds nothing.
func TestChimeraGraphSource(t *testing.T) {
	for _, cfg := range []ChimeraConfig{{D: 2, N: 1}, {D: 4, N: 6}, {D: 8, N: 19}, {D: 6, N: 6, Concat: ForwardDoubling}} {
		before := ChimeraBuilds()
		g, err := cfg.Graph()
		if err != nil {
			t.Fatal(err)
		}
		g.Readout(UnitPractical.ReplayConfig()).Timeline().Release()
		if n := ChimeraBuilds() - before; n != 0 {
			t.Fatalf("%+v: writing and replaying the graph built %d schedules, want none", cfg, n)
		}
		s := g.Source()
		if s2 := g.Source(); s2 != s || ChimeraBuilds()-before != 1 {
			t.Fatalf("%+v: two Source calls built %d schedules (same: %v), want one", cfg, ChimeraBuilds()-before, s2 == s)
		}
		if sg, err := s.Graph(); sg != g || err != nil {
			t.Fatalf("%+v: the built schedule compiles to another graph (%v)", cfg, err)
		}
		want, err := Chimera(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := want.Graph(); err != nil {
			t.Fatal(err)
		}
		// Both caches hold a graph; point want's at g so that DeepEqual
		// compares the schedules, not two graphs' source pointers.
		want.compiled = g
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("%+v: the schedule a graph builds differs from Chimera's", cfg)
		}
		if w, op := g.at(g.base[1] - 1); w != 0 || op != &s.Workers[0][len(s.Workers[0])-1] {
			t.Fatalf("%+v: node %d reads worker %d's op %v", cfg, g.base[1]-1, w, *op)
		}
	}
}

// FuzzChimeraGraph: over fuzzer-chosen even D ≤ 256 and N ≤ 8D, the slot
// walk is compileGraph(Chimera(cfg)) as sameSlotGraph checks it. The
// committed corpus (testdata/fuzz) replays on every go test.
func FuzzChimeraGraph(f *testing.F) {
	f.Add(uint8(0), uint16(0))
	f.Add(uint8(3), uint16(7))
	f.Add(uint8(7), uint16(67))
	f.Add(uint8(15), uint16(95))
	f.Fuzz(func(t *testing.T, d8 uint8, n16 uint16) {
		d := 2 + 2*int(d8%128)
		checkChimeraGraph(t, ChimeraConfig{D: d, N: 1 + int(n16)%(8*d)})
	})
}

// BenchmarkChimeraGraph times the two ways to a direct Chimera graph at the
// short N a planner replays (2D + D/2), in ns/node: the slot walk, and
// building the schedule and compiling it. On a busy 2-core Xeon host at
// -cpu 1 the walk, which writes its order instead of sorting, takes
// ≈ 28–30 ns/node at D = 32 and ≈ 25–36 at D = 8 (≈ 40–42 and ≈ 35–43
// when it ran topoSort), build and compile ≈ 77–97; 10 allocs against 20.
func BenchmarkChimeraGraph(b *testing.B) {
	for _, d := range []int{8, 32} {
		cfg := ChimeraConfig{D: d, N: 2*d + d/2}
		nodes := float64(2 * cfg.N * d)
		b.Run(fmt.Sprintf("D%d/slots", d), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := cfg.Graph(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nodes, "ns/node")
		})
		b.Run(fmt.Sprintf("D%d/compile", d), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				s, err := Chimera(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := compileGraph(s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nodes, "ns/node")
		})
	}
}
