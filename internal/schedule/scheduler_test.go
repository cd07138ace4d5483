package schedule

import (
	"fmt"
	"reflect"
	"testing"
)

// conformanceConfigs spans every generator family the placement policies
// must handle: chimera direct (single and multi pipeline pair), the two
// N > D concat variants, and all fixed baselines.
func conformanceConfigs(t *testing.T) map[string]*Schedule {
	t.Helper()
	out := map[string]*Schedule{}
	add := func(name string, s *Schedule, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out[name] = s
	}
	c, err := Chimera(ChimeraConfig{D: 4, N: 4})
	add("chimera-d4n4", c, err)
	c, err = Chimera(ChimeraConfig{D: 4, N: 8, F: 2})
	add("chimera-d4n8f2", c, err)
	c, err = Chimera(ChimeraConfig{D: 4, N: 8, Concat: ForwardDoubling})
	add("chimera-d4n8-doubling", c, err)
	c, err = Chimera(ChimeraConfig{D: 4, N: 8, Concat: BackwardHalving})
	add("chimera-d4n8-halving", c, err)
	c, err = Chimera(ChimeraConfig{D: 8, N: 16})
	add("chimera-d8n16", c, err)
	for _, scheme := range []string{"gpipe", "dapple", "gems", "pipedream", "pipedream-2bw"} {
		s, err := ByName(scheme, 4, 8)
		add(scheme+"-d4n8", s, err)
	}
	return out
}

// speedProfiles returns the heterogeneity shapes each policy is run under.
func speedProfiles(d int) map[string][]float64 {
	straggler := make([]float64, d)
	graded := make([]float64, d)
	uniform := make([]float64, d)
	for w := 0; w < d; w++ {
		straggler[w] = 1
		graded[w] = 1 + 0.25*float64(w)
		uniform[w] = 1.5
	}
	straggler[d/2] = 2
	return map[string][]float64{
		"nil":       nil,
		"uniform":   uniform,
		"straggler": straggler,
		"graded":    graded,
	}
}

// opCensus counts each (kind, stage, replica, micro, half) occurrence; a
// policy must permute placement, never the op multiset.
func opCensus(s *Schedule) map[string]int {
	census := map[string]int{}
	for _, ops := range s.Workers {
		for _, op := range ops {
			for _, m := range op.Micros {
				census[fmt.Sprintf("%v/%d/%d/%d/%d", op.Kind, op.Stage, op.Replica, m, op.Half)]++
			}
		}
	}
	return census
}

// sameProgram compares everything that defines a schedule's execution —
// metadata, placement maps, and per-worker op lists (including construction
// priorities) — ignoring the unexported graph cache.
func sameProgram(a, b *Schedule) bool {
	return a.Scheme == b.Scheme && a.D == b.D && a.N == b.N && a.F == b.F &&
		a.Synchronous == b.Synchronous &&
		a.DoubledForward == b.DoubledForward && a.HalvedBackward == b.HalvedBackward &&
		reflect.DeepEqual(a.MicroReplica, b.MicroReplica) &&
		reflect.DeepEqual(a.Replicas, b.Replicas) &&
		reflect.DeepEqual(a.Workers, b.Workers)
}

// TestSchedulerConformance runs every registered policy over every generator
// family and speed profile: the output passes Validate, compiles to a
// deadlock-free graph, preserves the op multiset, replays deterministically,
// and defers to the fixed placement whenever the factors carry no
// heterogeneity signal.
func TestSchedulerConformance(t *testing.T) {
	for name, base := range conformanceConfigs(t) {
		baseGraph, err := base.Graph()
		if err != nil {
			t.Fatalf("%s: base graph: %v", name, err)
		}
		baseCensus := opCensus(base)
		for profName, speed := range speedProfiles(base.D) {
			for _, polName := range Schedulers() {
				pol, err := SchedulerByName(polName)
				if err != nil {
					t.Fatalf("SchedulerByName(%q): %v", polName, err)
				}
				t.Run(fmt.Sprintf("%s/%s/%s", name, profName, polName), func(t *testing.T) {
					got, err := pol.Schedule(baseGraph, UnitPractical, speed)
					if err != nil {
						t.Fatalf("Schedule: %v", err)
					}
					if polName == "fixed" || UniformSpeed(speed) {
						if got != base {
							t.Fatalf("expected the base schedule back for policy %q profile %q", polName, profName)
						}
						return
					}
					if got.Scheduler != polName {
						t.Errorf("Scheduler = %q, want %q", got.Scheduler, polName)
					}
					if !reflect.DeepEqual(got.PlacementSpeed, speed) {
						t.Errorf("PlacementSpeed = %v, want %v", got.PlacementSpeed, speed)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("Validate: %v", err)
					}
					g, err := got.Graph()
					if err != nil {
						t.Fatalf("re-shaped graph: %v", err)
					}
					if !reflect.DeepEqual(opCensus(got), baseCensus) {
						t.Fatalf("op multiset changed under policy %q", polName)
					}
					// Construction must be deterministic: a second run from a
					// fresh base yields the identical program.
					again, err := pol.Schedule(baseGraph, UnitPractical, speed)
					if err != nil {
						t.Fatalf("second Schedule: %v", err)
					}
					if !sameProgram(got, again) {
						t.Fatalf("policy %q is nondeterministic", polName)
					}
					// Replay determinism over the compiled graph.
					rc := UnitPractical.ReplayConfig()
					t1, t2 := g.Readout(rc).Timeline(), g.Readout(rc).Timeline()
					if !reflect.DeepEqual(t1, t2) {
						t.Fatalf("replay nondeterministic for policy %q", polName)
					}
				})
			}
		}
	}
}

// TestSchedulerReshapesStraggler asserts the policies actually act: under a
// severe straggler, every list policy moves at least one stage group off the
// slow worker on the replica-rich chimera schedule.
func TestSchedulerReshapesStraggler(t *testing.T) {
	base, err := Chimera(ChimeraConfig{D: 8, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	g, err := base.Graph()
	if err != nil {
		t.Fatal(err)
	}
	speed := []float64{1, 1, 1, 1, 2, 1, 1, 1}
	for _, polName := range []string{"heft", "cpop", "lb"} {
		pol, err := SchedulerByName(polName)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pol.Schedule(g, UnitPractical, speed)
		if err != nil {
			t.Fatalf("%s: %v", polName, err)
		}
		if sameProgram(base, got) {
			t.Errorf("%s: schedule unchanged under a 2× straggler", polName)
		}
		var slow, baseSlow int64
		for _, op := range got.Workers[4] {
			slow += UnitPractical.Cost(op)
		}
		for _, op := range base.Workers[4] {
			baseSlow += UnitPractical.Cost(op)
		}
		if slow >= baseSlow {
			t.Errorf("%s: straggler load %d not reduced from %d", polName, slow, baseSlow)
		}
	}
}

// TestSchedulerNames pins the registry vocabulary.
func TestSchedulerNames(t *testing.T) {
	want := []string{"fixed", "heft", "cpop", "lb"}
	if got := Schedulers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Schedulers() = %v, want %v", got, want)
	}
	for _, n := range want {
		s, err := SchedulerByName(n)
		if err != nil || s.Name() != n {
			t.Fatalf("SchedulerByName(%q) = %v, %v", n, s, err)
		}
	}
	if _, err := SchedulerByName("peft"); err == nil {
		t.Fatal("expected an error for an unregistered scheduler")
	}
}

// TestBuildSpec covers the unified entry point: fixed specs return the
// generator's schedule bit-identically, list specs re-shape, and malformed
// specs fail loudly.
func TestBuildSpec(t *testing.T) {
	direct, err := Chimera(ChimeraConfig{D: 4, N: 8, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := Build(Spec{Scheme: "chimera", D: 4, N: 8, F: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sameProgram(direct, viaSpec) {
		t.Fatal("fixed chimera spec differs from the direct generator call")
	}
	for _, scheme := range Schemes() {
		byName, err := ByName(scheme, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		viaSpec, err := Build(Spec{Scheme: scheme, D: 4, N: 4, Scheduler: "fixed"})
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if !sameProgram(byName, viaSpec) {
			t.Fatalf("%s: fixed spec differs from ByName", scheme)
		}
	}
	reshaped, err := Build(Spec{
		Scheme: "chimera", Scheduler: "heft", D: 4, N: 8,
		SpeedFactors: []float64{1, 2, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if reshaped.Scheduler != "heft" {
		t.Fatalf("Scheduler = %q, want heft", reshaped.Scheduler)
	}
	if err := reshaped.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Spec{
		{Scheme: "chimera", D: 4, N: 4, Scheduler: "nope"},
		{Scheme: "chimera", D: 4, N: 4, SpeedFactors: []float64{1, 2}},
		{Scheme: "gpipe", D: 4, N: 4, F: 2},
		{Scheme: "gpipe", D: 4, N: 4, Concat: ForwardDoubling},
		{Scheme: "unknown", D: 4, N: 4},
		{Scheme: "chimera", Scheduler: "heft", D: 4, N: 4, SpeedFactors: []float64{1, -1, 1, 1}},
	} {
		if _, err := Build(bad); err == nil {
			t.Fatalf("Build(%+v) should fail", bad)
		}
	}
}

// TestUniformSpeed pins the no-signal predicate.
func TestUniformSpeed(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want bool
	}{
		{nil, true},
		{[]float64{}, true},
		{[]float64{2}, true},
		{[]float64{1.5, 1.5, 1.5}, true},
		{[]float64{1, 1, 2}, false},
	} {
		if got := UniformSpeed(tc.in); got != tc.want {
			t.Errorf("UniformSpeed(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
