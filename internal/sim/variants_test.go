package sim

import (
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// TestSimForwardDoublingCosts: the simulator's cost hooks honour the §3.5
// variants — a doubled forward is cheaper than two separate forwards
// (batching efficiency), and a halved backward is more than half a full
// backward (efficiency loss at smaller B).
func TestSimForwardDoublingCosts(t *testing.T) {
	cfg := Config{Model: model.BERT48(), MicroBatch: 2, W: 1,
		Device: PizDaintNode(), Network: AriesNetwork()}
	single := opSeconds(&cfg, 4, 0, schedule.Op{Kind: schedule.Forward, Stage: 1, Micros: []int{0}})
	doubled := opSeconds(&cfg, 4, 0, schedule.Op{Kind: schedule.Forward, Stage: 1, Micros: []int{0, 1}})
	if !(doubled > single && doubled < 2*single) {
		t.Fatalf("doubled forward %v vs single %v: want in (1x, 2x)", doubled, single)
	}
	full := opSeconds(&cfg, 4, 0, schedule.Op{Kind: schedule.Backward, Stage: 1, Micros: []int{0}})
	half := opSeconds(&cfg, 4, 0, schedule.Op{Kind: schedule.Backward, Stage: 1, Micros: []int{0}, Half: 1})
	if !(half < full && half > full/2) {
		t.Fatalf("half backward %v vs full %v: want in (0.5x, 1x)", half, full)
	}
}

// TestSimEdgeBytesScale: p2p edges scale with micro-batch payload.
func TestSimEdgeBytesScale(t *testing.T) {
	cfg := Config{Model: model.BERT48(), MicroBatch: 4, W: 1,
		Device: PizDaintNode(), Network: AriesNetwork()}
	one := edgeSeconds(&cfg, schedule.Op{Kind: schedule.Forward, Stage: 1, Micros: []int{0}})
	two := edgeSeconds(&cfg, schedule.Op{Kind: schedule.Forward, Stage: 1, Micros: []int{0, 1}})
	half := edgeSeconds(&cfg, schedule.Op{Kind: schedule.Backward, Stage: 1, Micros: []int{0}, Half: 1})
	if two <= one || half >= one {
		t.Fatalf("edge costs: one=%v two=%v half=%v", one, two, half)
	}
}

// TestSimRunsDoublingEndToEnd: doubling and halving schedules simulate
// end to end with plausible results.
func TestSimRunsDoublingEndToEnd(t *testing.T) {
	for _, mode := range []schedule.ConcatMode{schedule.ForwardDoubling, schedule.BackwardHalving} {
		s, err := schedule.Chimera(schedule.ChimeraConfig{D: 4, N: 8, Concat: mode})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Model: model.BERT48(), Schedule: s, MicroBatch: 4, W: 1,
			Recompute: mode == schedule.ForwardDoubling})
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput <= 0 || res.MiniBatch != 32 {
			t.Fatalf("mode %v: degenerate result %+v", mode, res)
		}
	}
}

// TestCompressionFactorReducesSync: scaling gradient bytes shrinks the
// unoverlapped sync time, never the compute span.
func TestCompressionFactorReducesSync(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 8, N: 8})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Model: model.GPT2(), Schedule: s, MicroBatch: 1, W: 64, Recompute: true}
	exact, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.CompressionFactor = 0.02
	sparse, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.SyncTime >= exact.SyncTime {
		t.Fatalf("compression did not reduce sync: %v vs %v", sparse.SyncTime, exact.SyncTime)
	}
	if sparse.ComputeSpan != exact.ComputeSpan {
		t.Fatal("compression must not change compute span")
	}
}

// TestZeROMemoryReduction: sharding optimizer state lowers peak memory and
// never raises it.
func TestZeROMemoryReduction(t *testing.T) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 16, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Model: model.GPT2(), Schedule: s, MicroBatch: 1, W: 32}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	base.ZeRO = true
	zero, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for w := range plain.PeakMemBytes {
		if zero.PeakMemBytes[w] > plain.PeakMemBytes[w] {
			t.Fatalf("worker %d: zero %d > plain %d", w, zero.PeakMemBytes[w], plain.PeakMemBytes[w])
		}
	}
	if zero.IterTime <= plain.IterTime {
		t.Fatal("zero must pay allgather time")
	}
}

// TestSyncStrategyStrings covers the printable names.
func TestSyncStrategyStrings(t *testing.T) {
	if SyncEagerOpt.String() != "eager-sync-opt" || SyncEager.String() != "eager-sync" ||
		SyncPostHoc.String() != "post-hoc" {
		t.Fatal("sync strategy names changed")
	}
}
