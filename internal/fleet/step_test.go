package fleet

import (
	"encoding/json"
	"strings"
	"testing"
	"unsafe"

	"chimera/internal/engine"
)

// liveConfig strips a trace scenario down to the config a live sim takes.
func liveConfig(sc ElasticScenario) ElasticScenario {
	sc.Events = nil
	return sc
}

// ingestByBatch feeds a trace to a live sim one distinct timestamp at a
// time (the storm drivers' schedule).
func ingestByBatch(t *testing.T, s *ElasticSim, events []Event) {
	t.Helper()
	for _, batch := range StormBatches(events) {
		if err := s.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestElasticSimLiveMatchesReplay pins the controller's determinism anchor:
// a live sim fed batch by batch and a SimulateElastic replay of its
// recorded event log produce byte-identical shares, and the live event-
// record log is a byte-identical prefix of the replay's (the replay goes on
// to retire the residents).
func TestElasticSimLiveMatchesReplay(t *testing.T) {
	for _, mode := range []ReplanMode{ReplanIncremental, ReplanFull} {
		trace := elasticScenario(mode, 5)
		live, err := NewAllocator(engine.New()).NewElasticSim(liveConfig(trace))
		if err != nil {
			t.Fatal(err)
		}
		ingestByBatch(t, live, trace.Events)

		recorded := liveConfig(trace)
		recorded.Events = live.Events()
		replay, err := NewAllocator(engine.New()).SimulateElastic(recorded)
		if err != nil {
			t.Fatal(err)
		}

		liveShares, _ := json.Marshal(live.Shares())
		replayShares, _ := json.Marshal(replay.Final)
		if string(liveShares) != string(replayShares) {
			t.Fatalf("%s: live shares differ from replay:\n%s\n%s", mode, liveShares, replayShares)
		}
		liveLog := live.Snapshot().Log
		if len(replay.Log) < len(liveLog) {
			t.Fatalf("%s: replay log shorter than live log (%d < %d)", mode, len(replay.Log), len(liveLog))
		}
		a, _ := json.Marshal(liveLog)
		b, _ := json.Marshal(replay.Log[:len(liveLog)])
		if string(a) != string(b) {
			t.Fatalf("%s: live log is not a prefix of the replay log:\n%s\n%s", mode, a, b)
		}
		// The live log always ends on the newest trace event: departures
		// after it have not happened yet on the live side.
		if last := liveLog[len(liveLog)-1]; last.Kind == EvDeparture {
			t.Fatalf("%s: live log ends on a departure: %+v", mode, last)
		}
	}
}

// TestElasticSimIngestTieBreak scrambles same-timestamp events within one
// live batch: Ingest must sort them into the pinned kind order, so the
// processed log and a replay agree bit for bit even though the wire order
// was adversarial.
func TestElasticSimIngestTieBreak(t *testing.T) {
	sc := liveConfig(elasticScenario(ReplanIncremental, 0))
	a := NewAllocator(engine.New())
	live, err := a.NewElasticSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Ingest([]Event{{At: 0, Kind: EvArrival, Job: "gpt2-mid", Work: 1000}}); err != nil {
		t.Fatal(err)
	}
	// Worst-case wire order at one timestamp: arrival, join, drain, fail.
	if err := live.Ingest([]Event{
		{At: 50, Kind: EvArrival, Job: "bert-small", Work: 2000},
		{At: 50, Kind: EvNodeJoin},
		{At: 50, Kind: EvNodeDrain, Node: 3},
		{At: 50, Kind: EvNodeFail, Node: 1},
	}); err != nil {
		t.Fatal(err)
	}
	log := live.Snapshot().Log
	var at50 []EventKind
	for _, rec := range log {
		if rec.At == 50 {
			at50 = append(at50, rec.Kind)
		}
	}
	want := []EventKind{EvNodeFail, EvNodeDrain, EvNodeJoin, EvArrival}
	if len(at50) != len(want) {
		t.Fatalf("log at t=50 has %d records (%v), want %v", len(at50), at50, want)
	}
	for i, k := range want {
		if at50[i] != k {
			t.Fatalf("log at t=50 is %v, want %v", at50, want)
		}
	}
	// And the recorded log stores the sorted order, so it replays verbatim.
	recorded := live.Events()
	kinds := []EventKind{recorded[1].Kind, recorded[2].Kind, recorded[3].Kind, recorded[4].Kind}
	for i, k := range want {
		if kinds[i] != k {
			t.Fatalf("recorded events at t=50 are %v, want %v", kinds, want)
		}
	}
}

// TestElasticSimIngestRules pins the live-mode admission rules: batch-time
// monotonicity, the trace-limit and node bounds, churn targets checked
// before any mutation, and rejection of whole-batch poisoning.
func TestElasticSimIngestRules(t *testing.T) {
	sc := liveConfig(elasticScenario(ReplanIncremental, 0))
	a := NewAllocator(engine.New())
	live, err := a.NewElasticSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Ingest(nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("want an empty-batch error, got %v", err)
	}
	if err := live.Ingest([]Event{{At: 10, Kind: EvArrival, Job: "bert-small", Work: 1000}}); err != nil {
		t.Fatal(err)
	}
	// Same or earlier batch time: rejected (replay would merge the batches
	// into one re-plan where the live side ran two).
	if err := live.Ingest([]Event{{At: 10, Kind: EvNodeJoin}}); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Fatalf("want a monotonicity error, got %v", err)
	}
	if err := live.Ingest([]Event{{At: 5, Kind: EvNodeJoin}}); err == nil || !strings.Contains(err.Error(), "not after") {
		t.Fatalf("want a monotonicity error, got %v", err)
	}
	// Absent churn target: the whole batch is rejected before mutating.
	before := live.EventCount()
	if err := live.Ingest([]Event{
		{At: 20, Kind: EvNodeJoin},
		{At: 20, Kind: EvNodeFail, Node: 99},
	}); err == nil || !strings.Contains(err.Error(), "absent node") {
		t.Fatalf("want an absent-node error, got %v", err)
	}
	if live.EventCount() != before {
		t.Fatalf("rejected batch mutated the log: %d → %d events", before, live.EventCount())
	}
	// A fail and a join at one time: the join's id must not satisfy the
	// fail's target (fails apply first in kind order).
	if err := live.Ingest([]Event{
		{At: 30, Kind: EvNodeFail, Node: 16}, // id 16 would be the join's id
		{At: 30, Kind: EvNodeJoin},
	}); err == nil || !strings.Contains(err.Error(), "absent node") {
		t.Fatalf("want an absent-node error for the not-yet-joined id, got %v", err)
	}
	// One node cannot leave twice in a batch, but a node joined earlier in
	// the batch may fail later in it — the walk follows the evolving pool.
	if err := live.Ingest([]Event{
		{At: 40, Kind: EvNodeFail, Node: 3},
		{At: 41, Kind: EvNodeDrain, Node: 3},
	}); err == nil || !strings.Contains(err.Error(), "absent node") {
		t.Fatalf("want an absent-node error for a node leaving twice, got %v", err)
	}
	if err := live.Ingest([]Event{
		{At: 50, Kind: EvNodeJoin},
		{At: 51, Kind: EvNodeFail, Node: 16},
	}); err != nil {
		t.Fatalf("fail of a node joined earlier in the batch rejected: %v", err)
	}
	// Trace-mode sims reject Ingest.
	trace := elasticScenario(ReplanIncremental, 0)
	if _, err := a.NewElasticSim(trace); err == nil || !strings.Contains(err.Error(), "no pre-recorded events") {
		t.Fatalf("want a live-mode construction error, got %v", err)
	}
}

// TestElasticSimFork pins what-if semantics: a fork sees the parent's
// state, diverges under its own events and knobs, and never mutates the
// parent — the parent's replay identity survives the fork's exploration.
func TestElasticSimFork(t *testing.T) {
	trace := elasticScenario(ReplanIncremental, 5)
	a := NewAllocator(engine.New())
	sc := liveConfig(trace)
	live, err := a.NewElasticSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	ingestByBatch(t, live, trace.Events)
	beforeShares, _ := json.Marshal(live.Shares())
	beforeLog, _ := json.Marshal(live.Snapshot().Log)

	fork := live.Fork()
	if err := fork.SetMigrationPenalty(50); err != nil {
		t.Fatal(err)
	}
	if err := fork.SetDeadline("bert-large", 100); err != nil {
		t.Fatal(err)
	}
	if err := fork.Ingest([]Event{
		{At: 200, Kind: EvNodeFail, Node: 2},
		{At: 200, Kind: EvArrival, Job: "gpt2-mid", Work: 5000},
	}); err != nil {
		t.Fatal(err)
	}
	if fork.EventCount() != live.EventCount()+2 {
		t.Fatalf("fork has %d events, want %d", fork.EventCount(), live.EventCount()+2)
	}

	afterShares, _ := json.Marshal(live.Shares())
	afterLog, _ := json.Marshal(live.Snapshot().Log)
	if string(beforeShares) != string(afterShares) {
		t.Fatalf("fork mutated the parent's shares:\n%s\n%s", beforeShares, afterShares)
	}
	if string(beforeLog) != string(afterLog) {
		t.Fatalf("fork mutated the parent's log:\n%s\n%s", beforeLog, afterLog)
	}
	if live.penalty != 5 {
		t.Fatalf("fork knob leaked: parent penalty %g", live.penalty)
	}
	for _, in := range live.active {
		if j := live.jobs[in.job]; j.Name == "bert-large" && j.Deadline == 100 {
			t.Fatal("fork deadline leaked into the parent's resident instance")
		}
	}

	// A live sim's deadline move writes its own job table, not the scenario
	// it was built from.
	before := sc.Jobs[0].Deadline
	if err := live.SetDeadline(sc.Jobs[0].Name, 777); err != nil {
		t.Fatal(err)
	}
	if sc.Jobs[0].Deadline != before {
		t.Fatalf("SetDeadline wrote through to the caller's scenario: deadline %g, was %g", sc.Jobs[0].Deadline, before)
	}
	if got := live.jobs[live.index[sc.Jobs[0].Name]].Deadline; got != 777 {
		t.Fatalf("SetDeadline left the sim's job at deadline %g, want 777", got)
	}

	// Unknown job and bad knobs error.
	if err := fork.SetDeadline("nope", 1); err == nil || !strings.Contains(err.Error(), "unknown job") {
		t.Fatalf("want an unknown-job error, got %v", err)
	}
	if err := fork.SetMigrationPenalty(-1); err == nil {
		t.Fatal("want a negative-penalty error")
	}
}

// TestEinstanceSize makes re-bloating a resident instance a decision: it
// indexes the sim's job table rather than carrying its job, and a fork copies
// every resident into its slab.
func TestEinstanceSize(t *testing.T) {
	if size := unsafe.Sizeof(einstance{}); size > 176 {
		t.Fatalf("einstance is %d bytes, want ≤ 176 (the job is an index into the sim's table)", size)
	}
}

// TestElasticSimSpotCost pins the spot/price model: spot joins are counted,
// the pool bill integrates price over presence, and at equal speed the
// cheaper node sorts first (so it is put to work before stable capacity).
func TestElasticSimSpotCost(t *testing.T) {
	sc := liveConfig(elasticScenario(ReplanIncremental, 0))
	a := NewAllocator(engine.New())
	live, err := a.NewElasticSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Ingest([]Event{{At: 0, Kind: EvArrival, Job: "gpt2-mid", Work: 10000}}); err != nil {
		t.Fatal(err)
	}
	if err := live.Ingest([]Event{
		{At: 10, Kind: EvNodeJoin, Class: ClassSpot, Price: 0.25},
		{At: 10, Kind: EvNodeJoin, Class: ClassOnDemand, Price: 1.0},
	}); err != nil {
		t.Fatal(err)
	}
	snap := live.Snapshot()
	if snap.Joins != 2 || snap.SpotJoins != 1 {
		t.Fatalf("joins/spot = %d/%d, want 2/1", snap.Joins, snap.SpotJoins)
	}
	// Both joined nodes have factor 1; the spot node is cheaper, so it
	// sorts ahead of the on-demand join in the pool order.
	spotPos, odPos := -1, -1
	for i, n := range live.present {
		switch n.Price {
		case 0.25:
			spotPos = i
		case 1.0:
			odPos = i
		}
	}
	if spotPos < 0 || odPos < 0 || spotPos > odPos {
		t.Fatalf("pool order: spot at %d, priced on-demand at %d, want spot first", spotPos, odPos)
	}
	// Advance time via another batch: 10s of (0.25 + 1.0) priced capacity.
	if err := live.Ingest([]Event{{At: 20, Kind: EvNodeDrain, Node: 17}}); err != nil {
		t.Fatal(err)
	}
	if want := 10 * 1.25; live.Snapshot().Cost != want || live.Cost() != want {
		t.Fatalf("cost = %g (snapshot) / %g (Cost), want %g", live.Snapshot().Cost, live.Cost(), want)
	}
	// The classic trace path reports the same accounting.
	trace := sc
	trace.Events = live.Events()
	res, err := NewAllocator(engine.New()).SimulateElastic(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpotJoins != 1 {
		t.Fatalf("replay spot joins = %d, want 1", res.SpotJoins)
	}
	if res.Cost <= 0 {
		t.Fatalf("replay cost = %g, want > 0", res.Cost)
	}
}

// TestGenerateStorm pins the generator: seeded determinism, target validity
// (the trace simulates cleanly), spot procurement, and at least one
// correlated rack failure at high rack-failure probability.
func TestGenerateStorm(t *testing.T) {
	names := make([]string, 0, 3)
	for _, j := range benchMix() {
		names = append(names, j.Name)
	}
	cfg := StormConfig{Seed: 7, Jobs: names, Nodes: 16, Events: 60, RackFailure: 0.5, Interval: 40}
	a, err := GenerateStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateStorm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatal("equal configs generated different storms")
	}
	other, err := GenerateStorm(StormConfig{Seed: 8, Jobs: names, Nodes: 16, Events: 60, RackFailure: 0.5, Interval: 40})
	if err != nil {
		t.Fatal(err)
	}
	jo, _ := json.Marshal(other)
	if string(ja) == string(jo) {
		t.Fatal("different seeds generated the same storm")
	}
	if a[0].kind() != EvArrival {
		t.Fatalf("storm starts with %s, want an arrival", a[0].kind())
	}
	cascade := false
	for i := 1; i < len(a); i++ {
		if a[i].Kind == EvNodeFail && a[i-1].Kind == EvNodeFail && a[i].At == a[i-1].At {
			cascade = true
			break
		}
	}
	if !cascade {
		t.Fatal("no correlated rack failure in a storm with RackFailure=0.5")
	}
	spot := false
	for _, ev := range a {
		if ev.Class == ClassSpot {
			spot = true
			break
		}
	}
	if !spot {
		t.Fatal("no spot join in the storm")
	}
	sc := liveConfig(elasticScenario(ReplanIncremental, 5))
	sc.Events = a
	res, err := NewAllocator(engine.New()).SimulateElastic(sc)
	if err != nil {
		t.Fatalf("storm does not simulate cleanly: %v", err)
	}
	if res.Events < len(a) {
		t.Fatalf("simulated %d events, want ≥ %d", res.Events, len(a))
	}
	// And the same storm drives a live sim batch by batch.
	live, err := NewAllocator(engine.New()).NewElasticSim(liveConfig(elasticScenario(ReplanIncremental, 5)))
	if err != nil {
		t.Fatal(err)
	}
	ingestByBatch(t, live, a)
	liveShares, _ := json.Marshal(live.Shares())
	replayShares, _ := json.Marshal(res.Final)
	if string(liveShares) != string(replayShares) {
		t.Fatalf("storm live shares differ from replay:\n%s\n%s", liveShares, replayShares)
	}
}
