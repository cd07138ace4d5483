package schedule_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"chimera/internal/refinterp"
	"chimera/internal/schedule"
)

// equivCase is one schedule of the equivalence grid.
type equivCase struct {
	name string
	s    *schedule.Schedule
}

// equivSchedules builds every scheme at several depths plus the Chimera
// concatenation variants and the 2f generalization — the full vocabulary the
// graph IR must reproduce bit-for-bit.
func equivSchedules(t *testing.T) []equivCase {
	t.Helper()
	var out []equivCase
	add := func(name string, s *schedule.Schedule, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out = append(out, equivCase{name, s})
	}
	for _, scheme := range append(schedule.Schemes(), "1f1b") {
		for _, dn := range [][2]int{{4, 4}, {4, 8}, {8, 16}} {
			s, err := schedule.ByName(scheme, dn[0], dn[1])
			add(scheme, s, err)
		}
	}
	for _, c := range []schedule.ChimeraConfig{
		{D: 4, N: 8, Concat: schedule.ForwardDoubling},
		{D: 4, N: 8, Concat: schedule.BackwardHalving},
		{D: 8, N: 16, Concat: schedule.ForwardDoubling},
		{D: 8, N: 24, Concat: schedule.ForwardDoubling}, // odd residual unit
		{D: 8, N: 16, Concat: schedule.BackwardHalving},
		{D: 8, N: 8, F: 2},
		{D: 8, N: 16, F: 2, Concat: schedule.ForwardDoubling},
	} {
		s, err := schedule.Chimera(c)
		add("chimera-variant", s, err)
	}
	// List-placed schedules: workers host uneven numbers of placements, and
	// a severe straggler is left with no ops at all.
	idle := false
	for _, policy := range []string{"heft", "cpop", "lb"} {
		for _, spec := range []schedule.Spec{
			{Scheme: "chimera", D: 4, N: 8, SpeedFactors: []float64{1, 1.5, 1, 1.25}},
			{Scheme: "chimera", D: 8, N: 16, SpeedFactors: []float64{1, 1, 1, 1, 64, 1, 1, 1}},
			{Scheme: "chimera", D: 4, N: 8, Concat: schedule.ForwardDoubling, SpeedFactors: []float64{1, 1, 8, 1}},
			{Scheme: "dapple", D: 4, N: 8, SpeedFactors: []float64{2, 1, 1, 1}},
		} {
			spec.Scheduler = policy
			s, err := schedule.Build(spec)
			add(policy+"-"+spec.Scheme, s, err)
			idle = idle || idleWorker(s) >= 0
		}
	}
	if !idle {
		t.Fatal("no list-placed schedule of the grid leaves a worker idle")
	}
	return out
}

// idleWorker returns a worker the placement left without ops, or -1.
func idleWorker(s *schedule.Schedule) int {
	for w, ops := range s.Workers {
		if len(ops) == 0 {
			return w
		}
	}
	return -1
}

// replay is the graph's per-op timeline of s under rc: its Readout, then
// the Timeline the read-out hands out.
func replay(s *schedule.Schedule, rc schedule.ReplayConfig) (*schedule.Timeline, error) {
	r, err := s.Readout(rc)
	if err != nil {
		return nil, err
	}
	return r.Timeline(), nil
}

// assertTimelinesEqual requires bit-identical Start/End/BusyTime/Makespan.
func assertTimelinesEqual(t *testing.T, name, model string, got, want *schedule.Timeline) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("%s/%s: graph makespan %d, interpreter %d", name, model, got.Makespan, want.Makespan)
	}
	if !reflect.DeepEqual(got.Start, want.Start) || !reflect.DeepEqual(got.End, want.End) {
		t.Fatalf("%s/%s: graph op times diverge from interpreter", name, model)
	}
	if !reflect.DeepEqual(got.BusyTime, want.BusyTime) {
		t.Fatalf("%s/%s: graph busy times diverge from interpreter", name, model)
	}
}

// equivCostModels are the uniform cost models of the equivalence grid.
var equivCostModels = []struct {
	name string
	cm   schedule.CostModel
}{
	{"unit-equal", schedule.UnitEqual},
	{"unit-practical", schedule.UnitPractical},
	{"practical-p2p", schedule.CostModel{FUnit: 1, BUnit: 2, P2P: 3}},
	{"calibrated-p2p", schedule.CostModel{FUnit: 173, BUnit: 391, P2P: 29}},
}

// heteroReplayConfig exercises the OpCost(worker, op) seam: per-worker
// multipliers and op-dependent edge costs. Both hooks vary with every field
// of an op's shape (and nothing else), so a shape table that merged two
// distinct shapes would price one of them wrong and diverge from the
// interpreter, which prices per op.
var heteroReplayConfig = schedule.ReplayConfig{
	OpCost: func(w int, op schedule.Op) int64 {
		base := int64(3 * len(op.Micros))
		if op.Kind == schedule.Backward {
			base = int64(7 * len(op.Micros))
		}
		return base*int64(w+1) + int64(5*op.Stage+11*op.Replica+13*int(op.Half))
	},
	EdgeCost: func(op schedule.Op) int64 {
		return int64(2*len(op.Micros) + 1 + op.Stage + 3*op.Replica + 2*int(op.Half) + int(op.Kind))
	},
}

// TestGraphReplayEquivalence: the compiled-graph topological pass must
// produce bit-identical timelines to the retained map interpreter across
// every scheme × cost model × variant, including a heterogeneous
// (worker-dependent) cost assignment through the ReplayConfig seam.
func TestGraphReplayEquivalence(t *testing.T) {
	for _, c := range equivSchedules(t) {
		for _, m := range equivCostModels {
			got, err := replay(c.s, m.cm.ReplayConfig())
			if err != nil {
				t.Fatalf("%s/%s: graph replay: %v", c.name, m.name, err)
			}
			want, err := refinterp.Replay(c.s, m.cm)
			if err != nil {
				t.Fatalf("%s/%s: interpreter replay: %v", c.name, m.name, err)
			}
			assertTimelinesEqual(t, c.name, m.name, got, want)
		}
		got, err := replay(c.s, heteroReplayConfig)
		if err != nil {
			t.Fatalf("%s/hetero: graph replay: %v", c.name, err)
		}
		want, err := refinterp.ReplayWith(c.s, heteroReplayConfig)
		if err != nil {
			t.Fatalf("%s/hetero: interpreter replay: %v", c.name, err)
		}
		assertTimelinesEqual(t, c.name, "hetero", got, want)
	}
}

// TestGraphCriticalPathEquivalence: (Cf, Cb) from the graph probes must
// match the interpreter's.
func TestGraphCriticalPathEquivalence(t *testing.T) {
	for _, c := range equivSchedules(t) {
		gotF, gotB, err := schedule.CriticalPath(c.s)
		if err != nil {
			t.Fatalf("%s: graph critical path: %v", c.name, err)
		}
		wantF, wantB, err := refinterp.CriticalPath(c.s)
		if err != nil {
			t.Fatalf("%s: interpreter critical path: %v", c.name, err)
		}
		if gotF != wantF || gotB != wantB {
			t.Fatalf("%s: graph (Cf, Cb) = (%d, %d), interpreter (%d, %d)",
				c.name, gotF, gotB, wantF, wantB)
		}
	}
}

// TestGraphSizes sanity-checks the IR: one node per op; edges = program-order
// chains (ops − workers with ops) + one data edge per distinct producer of an
// op's tokens (here every op carries one micro-batch, so one per token).
func TestGraphSizes(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != s.OpsTotal() {
		t.Fatalf("graph has %d nodes, schedule %d ops", g.Nodes(), s.OpsTotal())
	}
	// D=4, N=4 chimera: 32 ops, 4 workers → 28 program-order edges. Data
	// edges: every forward except the 4 stage-0 entries (12) plus every
	// backward, including the last stage's loss dependency (16) → 28.
	if want := 28 + 28; g.Edges() != want {
		t.Fatalf("graph has %d edges, want %d", g.Edges(), want)
	}
}

// brokenSchedule builds a hand-rolled 2-worker schedule for deadlock tests.
func brokenSchedule(workers [][]schedule.Op) *schedule.Schedule {
	return &schedule.Schedule{
		Scheme:       "broken",
		D:            2,
		N:            1,
		Workers:      workers,
		Replicas:     []schedule.ReplicaMap{{Down: true, WorkerOf: []int{0, 1}}},
		MicroReplica: []int{0},
		Synchronous:  true,
	}
}

// TestDeadlockNamesMissingProducer: a dependency on a token no op produces
// must be reported with the blocked op, its worker, and the token — when
// only a later micro-batch of a multi-micro op is missing, that
// micro-batch's token.
func TestDeadlockNamesMissingProducer(t *testing.T) {
	for _, c := range []struct {
		workers [][]schedule.Op
		want    []string
	}{
		{
			// B at the last stage needs F(micro 0, stage 1), which is missing.
			workers: [][]schedule.Op{{fwd(0, 0)}, {bwd(1, 0)}},
			want:    []string{"deadlock", "B0@s1/r0", "worker 1", "F(micro 0, stage 1)", "no op produces"},
		},
		{
			// F[0 1 2] at stage 1 needs F(micro 2, stage 0), which is missing.
			workers: [][]schedule.Op{{fwd(0, 0), fwd(0, 1)}, {fwd(1, 0, 1, 2)}},
			want:    []string{"F[0 1 2]@s1/r0", "worker 1", "waits on F(micro 2, stage 0), which no op produces"},
		},
	} {
		_, err := brokenSchedule(c.workers).Readout(schedule.UnitEqual.ReplayConfig())
		if err == nil {
			t.Fatal("want deadlock error, got none")
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("deadlock error %q does not mention %q", err, want)
			}
		}
	}
}

// TestDeadlockNamesCycle: an op ordered before its producer on the same
// worker must be reported with the blocked op, worker, token and producer.
func TestDeadlockNamesCycle(t *testing.T) {
	s := brokenSchedule([][]schedule.Op{
		{{Kind: schedule.Forward, Stage: 0, Micros: []int{0}}},
		// B before the F it depends on: a program-order cycle on worker 1.
		{
			{Kind: schedule.Backward, Stage: 1, Micros: []int{0}},
			{Kind: schedule.Forward, Stage: 1, Micros: []int{0}},
		},
	})
	_, err := s.Readout(schedule.UnitEqual.ReplayConfig())
	if err == nil {
		t.Fatal("want deadlock error, got none")
	}
	for _, want := range []string{"deadlock", "B0@s1/r0", "worker 1", "F(micro 0, stage 1)", "cannot run"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadlock error %q does not mention %q", err, want)
		}
	}
}

// handBuilt wraps hand-written op lists, one per worker, in a schedule header:
// what the generators cannot produce — cycles, and one node feeding two
// workers — compile and the interpreter must still agree on.
func handBuilt(scheme string, n int, workers [][]schedule.Op) *schedule.Schedule {
	return &schedule.Schedule{Scheme: scheme, D: len(workers), N: n, Workers: workers, Synchronous: true}
}

// sharedProducer has two workers wait on one node at once: worker 2's doubled
// forward F[0 1]@s1 produces the tokens of both single-micro forwards at
// stage 2, one on worker 0 and one on worker 1. With cyclic set, worker 0 runs
// its stage-2 forward before the stage-0 forward the doubled op itself waits
// on, so the two-deep waiter chain on F[0 1]@s1 is never released.
func sharedProducer(cyclic bool) *schedule.Schedule {
	w0 := []schedule.Op{
		{Kind: schedule.Forward, Stage: 0, Micros: []int{0, 1}},
		{Kind: schedule.Forward, Stage: 2, Micros: []int{0}},
	}
	if cyclic {
		w0[0], w0[1] = w0[1], w0[0]
	}
	return handBuilt("shared-producer", 2, [][]schedule.Op{
		w0,
		{{Kind: schedule.Forward, Stage: 2, Micros: []int{1}}},
		{{Kind: schedule.Forward, Stage: 1, Micros: []int{0, 1}}},
	})
}

// TestWaiterChainTwoDeep: both workers parked on one node must be released
// when it is emitted — the second waiter must not overwrite the first — and
// the resulting order must be valid and replay like the interpreter.
func TestWaiterChainTwoDeep(t *testing.T) {
	s := sharedProducer(false)
	g, err := s.Graph()
	if err != nil {
		t.Fatalf("two workers waiting on one node: %v", err)
	}
	if err := g.OrderError(); err != nil {
		t.Fatal(err)
	}
	cm := schedule.CostModel{FUnit: 3, BUnit: 5, P2P: 2}
	want, err := refinterp.Replay(s, cm)
	if err != nil {
		t.Fatal(err)
	}
	assertTimelinesEqual(t, s.Scheme, "p2p", g.Readout(cm.ReplayConfig()).Timeline(), want)
}

// fwd and bwd are hand-built ops of replica 0.
func fwd(stage int, micros ...int) schedule.Op {
	return schedule.Op{Kind: schedule.Forward, Stage: stage, Micros: micros}
}

func bwd(stage int, micros ...int) schedule.Op {
	return schedule.Op{Kind: schedule.Backward, Stage: stage, Micros: micros}
}

// wideProducers is a schedule with an op no generator makes: worker 0's
// F[0 1]@s1 takes its two micro-batches from two nodes, F0@s0 on worker 1 and
// F1@s0 on worker 2, so it has two data producers and the graph rows of three
// slots. With cyclic set, worker 2 runs its backward before that forward, and
// the second producer can never run.
func wideProducers(cyclic bool) *schedule.Schedule {
	w2 := []schedule.Op{fwd(0, 1), bwd(0, 1)}
	if cyclic {
		w2[0], w2[1] = w2[1], w2[0]
	}
	return handBuilt("wide-producers", 2, [][]schedule.Op{
		{fwd(1, 0, 1), bwd(1, 0, 1)},
		{fwd(0, 0), fwd(2, 0, 1), bwd(2, 0, 1), bwd(0, 0)},
		w2,
	})
}

// TestWideRowsMatchInterpreter: a schedule whose rows need a third slot
// compiles to them — the kernel's plain loop, not the two-slot body — with a
// valid order, and replays bit-identically to the interpreter: timeline,
// read-outs and critical path, under every cost model of the grid.
func TestWideRowsMatchInterpreter(t *testing.T) {
	s := wideProducers(false)
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Arity() != 3 {
		t.Fatalf("compiled to rows of %d slots, want 3", g.Arity())
	}
	// 8 ops on 3 workers → 5 program-order edges. Data edges: 2 for the
	// forward of two producers, 1 for each of the other five ops that
	// consume — three of them doubled, one producer for two tokens → 7.
	if want := 5 + 7; g.Edges() != want {
		t.Fatalf("graph has %d edges, want %d", g.Edges(), want)
	}
	if err := g.OrderError(); err != nil {
		t.Fatal(err)
	}
	for _, m := range equivCostModels {
		want, err := refinterp.Replay(s, m.cm)
		if err != nil {
			t.Fatalf("%s: interpreter replay: %v", m.name, err)
		}
		got := g.Readout(m.cm.ReplayConfig()).Timeline()
		assertTimelinesEqual(t, s.Scheme, m.name, got, want)
		got.Release()
		checkReadout(t, s.Scheme+"/"+m.name, s, m.cm.ReplayConfig())
	}
	checkReadout(t, s.Scheme+"/hetero", s, heteroReplayConfig)
	gotF, gotB, err := schedule.CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	wantF, wantB, err := refinterp.CriticalPath(s)
	if err != nil {
		t.Fatal(err)
	}
	if gotF != wantF || gotB != wantB {
		t.Fatalf("graph (Cf, Cb) = (%d, %d), interpreter (%d, %d)", gotF, gotB, wantF, wantB)
	}
}

// TestDeadlockDiagnoses covers the cycles beyond TestDeadlockNamesCycle's: each
// must be reported as a deadlock naming the first blocked op in worker order,
// its worker, its unmet token and the stuck producer, and must be the same
// class of failure to the reference interpreter — a deadlock with as many ops
// unscheduled, that op among the ones the interpreter lists as next.
func TestDeadlockDiagnoses(t *testing.T) {
	for _, c := range []struct {
		name string
		s    *schedule.Schedule
		// what the graph's error must say, and the interpreter's next-op entry
		unscheduled      int
		blocked, worker  string
		token, producer  string
		interpreterEntry string
	}{
		{
			// Worker 0 wants the gradient before sending the activation it is
			// the gradient of: each worker is parked on the other's token.
			name: "mutual-wait",
			s: handBuilt("mutual-wait", 1, [][]schedule.Op{
				{bwd(0, 0), fwd(0, 0)},
				{fwd(1, 0), bwd(1, 0)},
			}),
			unscheduled: 4, blocked: "op B0@s0/r0", worker: "on worker 0",
			token: "waits on B(micro 0, stage 1)", producer: "producer B0@s1/r0 on worker 1 cannot run",
			interpreterEntry: " w0:B0@s0/r0",
		},
		{
			// Worker 0 (the last stage) gets going, then blocks on a forward
			// it has ordered two ops further down its own program.
			name: "waits-on-own-later-op",
			s: handBuilt("own-later-op", 2, [][]schedule.Op{
				{fwd(1, 1), bwd(1, 0), bwd(1, 1), fwd(1, 0)},
				{fwd(0, 0), fwd(0, 1), bwd(0, 0), bwd(0, 1)},
			}),
			unscheduled: 5, blocked: "op B0@s1/r0", worker: "on worker 0",
			token: "waits on F(micro 0, stage 1)", producer: "producer F0@s1/r0 on worker 0 cannot run",
			interpreterEntry: " w0:B0@s1/r0",
		},
		{
			// Workers 0 and 2 wait on each other while worker 1 joins worker 0
			// behind the same node of worker 2: its waiter chain is two deep
			// when the sort gives up.
			name:        "two-deep-chain-in-cycle",
			s:           sharedProducer(true),
			unscheduled: 4, blocked: "op F0@s2/r0", worker: "on worker 0",
			token: "waits on F(micro 0, stage 1)", producer: "producer F[0 1]@s1/r0 on worker 2 cannot run",
			interpreterEntry: " w0:F0@s2/r0",
		},
		{
			// A row holds producers, not tokens: the unmet one is the
			// second producer's, and so is the token named.
			name:        "second-of-two-producers",
			s:           wideProducers(true),
			unscheduled: 7, blocked: "op F[0 1]@s1/r0", worker: "on worker 0",
			token: "waits on F(micro 1, stage 0)", producer: "producer F1@s0/r0 on worker 2 cannot run",
			interpreterEntry: " w0:F[0 1]@s1/r0",
		},
		{
			// The first producer carries two of the three micro-batches, so
			// the second producer's slot is not the second micro-batch's.
			name: "second-producer-past-a-doubled-one",
			s: handBuilt("doubled-then-single", 3, [][]schedule.Op{
				{fwd(1, 0, 1, 2)},
				{fwd(0, 0, 1)},
				{fwd(2, 2), fwd(0, 2)},
			}),
			unscheduled: 3, blocked: "op F[0 1 2]@s1/r0", worker: "on worker 0",
			token: "waits on F(micro 2, stage 0)", producer: "producer F2@s0/r0 on worker 2 cannot run",
			interpreterEntry: " w0:F[0 1 2]@s1/r0",
		},
	} {
		_, err := c.s.Readout(schedule.UnitEqual.ReplayConfig())
		if err == nil {
			t.Fatalf("%s: want a deadlock error, got none", c.name)
		}
		count := fmt.Sprintf("deadlock with %d ops unscheduled", c.unscheduled)
		for _, want := range []string{count, c.blocked, c.worker, c.token, c.producer} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: deadlock error %q does not mention %q", c.name, err, want)
			}
		}
		_, ierr := refinterp.Replay(c.s, schedule.UnitEqual)
		if ierr == nil {
			t.Fatalf("%s: the interpreter replays what compile calls a deadlock", c.name)
		}
		for _, want := range []string{count, c.interpreterEntry} {
			if !strings.Contains(ierr.Error(), want) {
				t.Errorf("%s: interpreter error %q does not mention %q", c.name, ierr, want)
			}
		}
	}
}

// TestGraphCompileOnce: repeated replays share one compiled graph.
func TestGraphCompileOnce(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	g1, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("Graph() built twice for one schedule")
	}
}
