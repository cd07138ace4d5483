package fleet

import (
	"fmt"
	"runtime"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
)

// stormScenario is bench/scenarios/fleet_storm.json inlined (this package
// cannot import the serve codec that decodes it): 96 Piz Daint nodes and
// twelve capped jobs, re-planned incrementally with a 10 s/stage migration
// penalty. With 40–60 instances resident and caps of 6–16 nodes each,
// demand is several times the pool: every batch re-plans a scarce pool.
func stormScenario() ElasticScenario {
	custom := func(name string, layers, hidden, heads, vocab, seq int) model.Config {
		return model.Config{Name: name, Layers: layers, Hidden: hidden, Heads: heads, Vocab: vocab, SeqLen: seq}
	}
	return ElasticScenario{
		Cluster: pizDaintCluster(96, nil),
		Jobs: []Job{
			{Name: "bert-prod", Model: model.BERT48(), MiniBatch: 256, Priority: 4, MaxNodes: 16},
			{Name: "bert-finetune", Model: model.BERT48(), MiniBatch: 64, Priority: 1, MaxNodes: 8},
			{Name: "bert-long", Model: model.BERT48Seq512(), MiniBatch: 128, Priority: 2, MaxNodes: 12},
			{Name: "gpt2-research", Model: model.GPT2Small32(), MiniBatch: 64, Priority: 1, MaxNodes: 8},
			{Name: "gpt2-pretrain", Model: model.GPT2Small32(), MiniBatch: 256, Priority: 3, MaxNodes: 16},
			{Name: "gpt2-sweep", Model: model.GPT2Small32(), MiniBatch: 128, Priority: 1, MaxNodes: 8, Deadline: 7200},
			{Name: "small-a", Model: custom("small-a", 12, 768, 12, 30522, 128), MiniBatch: 128, Priority: 1, MaxNodes: 6},
			{Name: "small-b", Model: custom("small-b", 16, 1024, 16, 30522, 256), MiniBatch: 64, Priority: 2, MaxNodes: 8},
			{Name: "mid-a", Model: custom("mid-a", 24, 1024, 16, 30522, 128), MiniBatch: 256, Priority: 2, MaxNodes: 12},
			{Name: "mid-b", Model: custom("mid-b", 24, 1280, 20, 50257, 512), MiniBatch: 128, Priority: 1, MaxNodes: 12, Deadline: 14400},
			{Name: "wide-a", Model: custom("wide-a", 32, 1536, 16, 50257, 256), MiniBatch: 128, Priority: 3, MaxNodes: 16},
			{Name: "wide-b", Model: custom("wide-b", 32, 2048, 32, 50257, 256), MiniBatch: 64, Priority: 2, MaxNodes: 16},
		},
		Policy:           PlannerGuided,
		Replan:           ReplanIncremental,
		MigrationPenalty: 10,
	}
}

// stormEpisode is episode i of the repository benchmark's fleet_storm
// workload (bench/storm.go's stormConfig): 200 events at seed 1000+i, joins
// balanced against single and whole-rack failures so the pool hovers near
// its initial size, cut into per-slot batches.
func stormEpisode(tb testing.TB, sc ElasticScenario, i int) [][]Event {
	return stormBatches(tb, sc, int64(1000+i), 200, 1e6, 0, 0)
}

// ingestAll feeds every batch to a fresh live sim on a and returns it.
func ingestAll(tb testing.TB, a *Allocator, sc ElasticScenario, batches [][]Event) *ElasticSim {
	tb.Helper()
	s, err := a.NewElasticSim(sc)
	if err != nil {
		tb.Fatal(err)
	}
	for _, batch := range batches {
		if err := s.Ingest(batch); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// BenchmarkIngestStorm is the fleet_storm workload without HTTP: one bench
// episode ingested batch by batch into a fresh live sim on a warm allocator
// (every plan already in the memo, as after the workload's priming ingests).
func BenchmarkIngestStorm(b *testing.B) {
	sc := stormScenario()
	batches := stormEpisode(b, sc, 0)
	a := NewAllocator(engine.New(engine.Workers(1)))
	ingestAll(b, a, sc, batches)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingestAll(b, a, sc, batches)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batches)), "ns/batch")
}

// BenchmarkAllocateWarm is one static planner-guided allocation of the storm
// vocabulary over the 96-node pool with every plan memoized.
func BenchmarkAllocateWarm(b *testing.B) {
	sc := stormScenario()
	req := Request{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: PlannerGuided}
	a := NewAllocator(engine.New(engine.Workers(1)))
	if _, err := a.Allocate(req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Allocate(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateCold is one static planner-guided allocation of the storm
// vocabulary over the 96-node pool with nothing cached: each op plans on a
// fresh allocator and a fresh GOMAXPROCS-sized engine, so every plan a scan
// reads runs the planner, whose candidates fan out on the pool. Run it at
// -cpu 1,2.
func BenchmarkAllocateCold(b *testing.B) {
	sc := stormScenario()
	req := Request{Cluster: sc.Cluster, Jobs: sc.Jobs, Policy: PlannerGuided}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewAllocator(engine.New(engine.Workers(runtime.GOMAXPROCS(0))))
		if _, err := a.Allocate(req); err != nil {
			b.Fatal(err)
		}
	}
}

// churnScenario is internal/experiments' elastic benchmark inlined: twelve
// capped jobs (demand 72 nodes) on 80 nodes with eight fail → join → drain
// → join cycles rolling through while everything is resident.
func churnScenario(mode ReplanMode) ElasticScenario {
	jobs := make([]Job, 12)
	for i := range jobs {
		j := Job{Name: fmt.Sprintf("job-%02d", i), MiniBatch: 64, Priority: float64(1 + i%3)}
		if i%2 == 0 {
			j.Model, j.MaxNodes = model.BERT48(), 8
		} else {
			j.Model, j.MaxNodes = model.GPT2Small32(), 4
		}
		jobs[i] = j
	}
	var events []Event
	for i, j := range jobs {
		events = append(events, Event{At: 10 * float64(i), Kind: EvArrival, Job: j.Name, Work: 1e9})
	}
	const cycles, interval = 8, 300.0
	warmup := 10*float64(len(jobs)) + 100
	for c := 0; c < cycles; c++ {
		t := warmup + float64(c)*interval
		events = append(events,
			Event{At: t, Kind: EvNodeFail, Node: c},
			Event{At: t + interval/4, Kind: EvNodeJoin},
			Event{At: t + interval/2, Kind: EvNodeDrain, Node: 20 + c},
			Event{At: t + 3*interval/4, Kind: EvNodeJoin},
		)
	}
	return ElasticScenario{
		Cluster: pizDaintCluster(80, nil), Jobs: jobs, Events: events,
		Replan: mode, MigrationPenalty: 10,
	}
}

// BenchmarkSimulateElasticChurn replays the experiments' 80-node churn
// trace under both re-plan modes on a warm allocator.
func BenchmarkSimulateElasticChurn(b *testing.B) {
	for _, mode := range []ReplanMode{ReplanIncremental, ReplanFull} {
		b.Run(string(mode), func(b *testing.B) {
			sc := churnScenario(mode)
			a := NewAllocator(engine.New(engine.Workers(1)))
			if _, err := a.SimulateElastic(sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.SimulateElastic(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
