package fleet

import (
	"encoding/json"
	"runtime"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
)

// liveState is what a reader of a live sim sees, encoded: the raw event
// log, the processed log, every arrival's run and the allocation in effect.
func liveState(t *testing.T, s *ElasticSim) string {
	t.Helper()
	snap := s.Snapshot()
	b, err := json.Marshal([]any{s.Events(), snap.Log, snap.Jobs, s.Shares()})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestForkLeavesLiveSimUnchanged: a fork shares the live sim's append-only
// histories (events, res.Log, done) as clipped views. At every batch of a
// churn storm the live sim forks, then applies its next batch — appending
// in place where its histories have room — and only then does the fork
// apply a different hypothesis at that time, under deadlines tight enough
// to mark each of its departures missed, and re-plan. The live sim's
// events, processed log, runs and shares must read as they did before the
// fork moved. A view shared without its clip lets the fork's appends land on
// the live sim's newest entries, which this reads back.
func TestForkLeavesLiveSimUnchanged(t *testing.T) {
	sc := ElasticScenario{Cluster: pizDaintCluster(32, nil), Jobs: smallMix(), MigrationPenalty: 10}
	batches := stormBatches(t, sc, 300, 90, 4e4, 0, 0)
	live, err := NewAllocator(engine.New(engine.Workers(1))).NewElasticSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	for k, batch := range batches {
		fork := live.Fork()
		if err := live.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		want := liveState(t, live)

		for _, j := range sc.Jobs {
			if err := fork.SetDeadline(j.Name, 1e-3); err != nil {
				t.Fatal(err)
			}
		}
		hypothesis := []Event{{At: batch[0].At, Kind: EvArrival, Job: sc.Jobs[k%len(sc.Jobs)].Name, Work: 12345.5}}
		if err := fork.Ingest(hypothesis); err != nil {
			t.Fatalf("batch %d: fork: %v", k, err)
		}
		if err := fork.ReplanNow(); err != nil {
			t.Fatalf("batch %d: fork: %v", k, err)
		}
		if got := liveState(t, live); got != want {
			t.Fatalf("batch %d: the fork changed the live sim:\n got %s\nwant %s", k, got, want)
		}
	}
	if len(live.done) == 0 {
		t.Fatal("no instance departed: the storm never exercised the shared done history")
	}
}

// TestForkBytesFlatInHistory: Fork copies only the state written in place,
// and a fork's histories start at the fork, so the bytes a fork allocates do
// not grow with the history behind it — neither for Fork alone nor for a
// what-if's Fork plus a one-arrival Ingest, whose first append would copy a
// shared history. A live sim holding one resident forks after its first
// arrival and again after 4,000 (each earlier one has departed, so both
// forks copy the same pool and one instance); the two must allocate within
// 2× of each other. Copying the histories costs hundreds of kilobytes at
// 4,000 events, where a fork of the resident state costs a few.
func TestForkBytesFlatInHistory(t *testing.T) {
	sc := ElasticScenario{
		Cluster: pizDaintCluster(16, nil),
		Jobs:    []Job{{Name: "bert", Model: model.BERT48(), MiniBatch: 64}},
	}
	live, err := NewAllocator(engine.New(engine.Workers(1))).NewElasticSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	const forks = 64
	held := make([]*ElasticSim, forks)
	fork := func(i int) { held[i] = live.Fork() }
	whatIf := func(i int) {
		f := live.Fork()
		if err := f.Ingest([]Event{{At: live.Now() + 1, Job: "bert", Work: 100}}); err != nil {
			t.Fatal(err)
		}
		held[i] = f
	}
	perOp := func(op func(int)) uint64 {
		op(0) // resolves the plans a what-if's re-plan reads
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range held {
			op(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / forks
	}
	arrive := func(i int) {
		if err := live.Ingest([]Event{{At: 1e4 * float64(i), Job: "bert", Work: 100}}); err != nil {
			t.Fatal(err)
		}
	}
	arrive(0)
	shortFork, shortWhatIf := perOp(fork), perOp(whatIf)
	for i := 1; i < 4000; i++ {
		arrive(i)
	}
	if live.Residents() != 1 || live.EventCount() != 4000 || len(live.done) != 3999 {
		t.Fatalf("live sim holds %d residents, %d events, %d departed; want 1, 4000, 3999",
			live.Residents(), live.EventCount(), len(live.done))
	}
	longFork, longWhatIf := perOp(fork), perOp(whatIf)
	for _, c := range []struct {
		what        string
		short, long uint64
	}{{"fork", shortFork, longFork}, {"fork and one-arrival ingest", shortWhatIf, longWhatIf}} {
		t.Logf("bytes per %s: %d at 1 event, %d at 4,000", c.what, c.short, c.long)
		if c.long > 2*c.short || c.short > 2*c.long {
			t.Errorf("a %s allocates %d bytes at 1 event and %d at 4,000 events: not within 2×", c.what, c.short, c.long)
		}
	}
}
