package experiments

import (
	"testing"

	"chimera/internal/engine"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
)

// AllocsBenchmark is the allocs section of BENCH_sweep.json: steady-state
// heap traffic on the engine's two hot paths. CI gates ReplayAllocsPerOp
// at exactly 0 — a warm graph replay must recycle its pooled scratch — and
// the memo-hit row documents that a warm Evaluate is allocation-free too.
// The miss row sizes what a cold lookup costs (entry, map slot, closure)
// for contrast; it has no gate.
type AllocsBenchmark struct {
	// Replay* time g.ReplayWith with a warm replay pool (the timeline is
	// released back each iteration), on the largest tracked schedule
	// (Chimera D=16 N=64).
	ReplayAllocsPerOp int64   `json:"replay_allocs_per_op"`
	ReplayNsPerOp     float64 `json:"replay_ns_per_op"`
	// MemoHit* time a warm e.Evaluate of a cached spec end to end:
	// canonicalisation, key lookup and outcome return with zero heap
	// traffic.
	MemoHitAllocsPerOp int64   `json:"memo_hit_allocs_per_op"`
	MemoHitNsPerOp     float64 `json:"memo_hit_ns_per_op"`
	// MemoMiss* time the memo machinery's insert path on distinct
	// PlanRequest keys (the plan-cache key type) with a trivial compute
	// function — the bookkeeping cost a cold request pays before any
	// evaluation work.
	MemoMissAllocsPerOp int64   `json:"memo_miss_allocs_per_op"`
	MemoMissNsPerOp     float64 `json:"memo_miss_ns_per_op"`
}

// replayAllocCase builds the schedule + replay config the replay-allocs
// rows measure; shared with BenchmarkReplayAllocs in the schedule package's
// spirit (the config is constructed once, outside the timed loop, exactly
// as the engine's callers hold it).
func replayAllocCase() (*schedule.Graph, schedule.ReplayConfig, error) {
	s, err := schedule.Chimera(schedule.ChimeraConfig{D: 16, N: 64})
	if err != nil {
		return nil, schedule.ReplayConfig{}, err
	}
	g, err := s.Graph()
	if err != nil {
		return nil, schedule.ReplayConfig{}, err
	}
	return g, schedule.UnitPractical.ReplayConfig(), nil
}

// BenchmarkAllocs measures the allocs section. It uses testing.Benchmark
// so the numbers are the same ones `go test -bench . -benchmem` reports
// from BenchmarkReplayAllocs / BenchmarkMemoKeyAllocs.
func BenchmarkAllocs() (*AllocsBenchmark, error) {
	out := &AllocsBenchmark{}

	g, rc, err := replayAllocCase()
	if err != nil {
		return nil, err
	}
	g.ReplayWith(rc).Release() // warm the replay pool
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.ReplayWith(rc).Release()
		}
	})
	out.ReplayAllocsPerOp = r.AllocsPerOp()
	out.ReplayNsPerOp = float64(r.NsPerOp())

	e := engine.New()
	spec := benchGrid()[0].spec
	if o := e.Evaluate(spec); o.Err != nil {
		return nil, o.Err
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Evaluate(spec)
		}
	})
	out.MemoHitAllocsPerOp = r.AllocsPerOp()
	out.MemoHitNsPerOp = float64(r.NsPerOp())

	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		m := engine.NewMemo[perfmodel.PlanRequest, int]()
		for i := 0; i < b.N; i++ {
			m.Do(perfmodel.PlanRequest{P: i}, func() int { return i })
		}
	})
	out.MemoMissAllocsPerOp = r.AllocsPerOp()
	out.MemoMissNsPerOp = float64(r.NsPerOp())
	return out, nil
}
