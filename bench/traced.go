package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// perLayer is every per-layer metric a traced pass reports, with its unit.
// BENCHMARK.json lists the same names; README.md says which end-to-end
// metric on which workload each should move.
var perLayer = []struct{ name, unit string }{
	{"schedule.build_us", "us"}, {"schedule.compile_us", "us"}, {"schedule.critical_path_us", "us"},
	{"schedule.graph_nodes", "count"}, {"schedule.graph_edges", "count"},
	{"schedule.replay_us", "us"}, {"schedule.replay_allocs_per_op", "count"},
	{"sim.fits_memory_us", "us"}, {"sim.run_us", "us"},
	{"engine.memo_hit_ns", "ns"}, {"engine.memo_miss_ns", "ns"}, {"engine.foreach_dispatch_us", "us"},
	{"engine.schedule_hit_share", "share"}, {"engine.critical_hit_share", "share"},
	{"engine.sweep_cold_configs_s", "1/s"}, {"engine.sweep_warm_configs_s", "1/s"}, {"engine.evictions", "count"},
	{"perfmodel.self_us", "us"}, {"perfmodel.candidates_per_plan", "count"}, {"perfmodel.plan_batch_ms", "ms"},
	{"serve.decode_us", "us"}, {"serve.encode_us", "us"}, {"serve.handler_hit_us", "us"}, {"serve.handler_miss_us", "us"},
	{"serve.http_hit_us", "us"}, {"serve.transport_us", "us"}, {"serve.plan_cache_hit_share", "share"}, {"serve.shed_429", "count"},
	{"serve.snapshot_write_ms", "ms"}, {"serve.snapshot_restore_ms", "ms"},
	{"router.ring_owner_ns", "ns"}, {"router.hop_us", "us"}, {"router.failovers", "count"}, {"router.batch_scatter_ms", "ms"},
	{"fleet.ingest_us_p50", "us"}, {"fleet.ingest_us_p95", "us"}, {"fleet.fork_us", "us"},
	{"fleet.allocate_cold_ms", "ms"}, {"fleet.allocate_warm_ms", "ms"}, {"fleet.plan_memo_hit_share", "share"},
	{"fleet.simulate_classic_ms", "ms"}, {"fleet.simulate_elastic_ms", "ms"},
	{"controller.replan_ms_p50", "ms"}, {"controller.replan_ms_p95", "ms"}, {"controller.overhead_us", "us"},
	{"controller.whatif_ms_p50", "ms"}, {"controller.allocation_get_us", "us"}, {"controller.log_get_ms", "ms"},
	{"controller.log_bytes", "count"}, {"controller.sse_dropped", "count"},
	{"obs.histogram_observe_ns", "ns"}, {"obs.span_ns", "ns"}, {"obs.prometheus_render_ms", "ms"},
	{"bench.trace_overhead_share", "share"}, {"bench.host_slowdown", "share"}, {"bench.round_spread_share", "share"}, {"bench.latency_p99_ms", "ms"},
	{"bench.loadgen_late_share", "share"}, {"bench.open_loop_p50_ms", "ms"}, {"bench.open_loop_p95_ms", "ms"},
	{"trace.bench_self_share", "share"}, {"trace.schedule_self_share", "share"}, {"trace.sim_self_share", "share"},
	{"trace.engine_self_share", "share"}, {"trace.perfmodel_self_share", "share"}, {"trace.serve_self_share", "share"},
	{"trace.router_self_share", "share"}, {"trace.fleet_self_share", "share"}, {"trace.controller_self_share", "share"},
}

// traceLayers are the layers a workload's self time is split over.
var traceLayers = []string{"bench", "schedule", "sim", "engine", "perfmodel", "serve", "router", "fleet", "controller"}

// tracerCapacity holds the traced half of one round of the largest workload
// (serve_zipf: 18 000 ops × 3 spans; plan_warm: 1 400 ops × ~45).
const tracerCapacity = 1 << 18

// traceFileSpans caps the spans written out; the by-name table and the layer
// shares always cover the whole round.
const traceFileSpans = 20000

// tracedRounds is how many rounds of the traced pass record spans, half in
// each phase.
const tracedRounds = 4

// runTraced is the traced pass for one workload: a warm-up round, then four
// rounds in which every other block of ops records spans, the blocks
// swapping from round to round (an op's times with spans against its times
// without are the tracing overhead), the last round's spans written to
// out/trace-<workload>.json, and then the layer probes.
func runTraced(w workload, seed int64, outDir string) (runResult, error) {
	var rounds []roundResult
	var lats [][]time.Duration
	var slowdown []float64
	var phases []int
	var last []span
	var dropped int64
	for i := 0; i <= tracedRounds; i++ {
		var tr *tracer
		if i > 0 {
			tr = newTracer(tracerCapacity, i%2)
		}
		into := newOpTimes(len(w.keys()))
		r, err := runRound(w, tr, into)
		if err != nil {
			return runResult{}, err
		}
		logf("%s traced-pass round %d: host ×%.3f timed %.3fs thr %.1f/s p50 %.4fms p95 %.4fms correct %d/%d", w.name(), i+1, r.HostSlowdown, r.TimedS, r.ThroughputOpsS, r.P50Ms, r.P95Ms, r.Correct, r.Ops)
		if i > 0 { // round 1 is the warm-up
			rounds, lats = append(rounds, r), append(lats, into.lat)
			slowdown, phases = append(slowdown, r.HostSlowdown), append(phases, tr.phase)
			last, dropped = tr.recorded(), tr.dropped()
		}
	}
	resolveParents(last)
	self := selfTimes(last)
	shares := layerSelfShares(last, self)
	tf := traceFile{Workload: w.name(), Seed: seed, Dropped: dropped, ByName: statsByName(last, self), Shares: shares, Spans: last[:min(len(last), traceFileSpans)]}
	if err := writeJSONFile(filepath.Join(outDir, "trace-"+w.name()+".json"), tf); err != nil {
		return runResult{}, err
	}
	for _, l := range traceLayers {
		logf("%s self time: %-10s %.3f", w.name(), l, shares[l])
	}

	layer, err := runProbes(outDir)
	if err != nil {
		return runResult{}, err
	}
	pick := func(of func(roundResult) float64) []float64 {
		out := make([]float64, len(rounds))
		for i, r := range rounds {
			out[i] = of(r)
		}
		return out
	}
	layer["bench.trace_overhead_share"] = traceOverhead(w.keys(), lats, slowdown, phases)
	layer["bench.host_slowdown"] = median(slowdown)
	layer["bench.round_spread_share"] = spreadShare(roundThroughputs(rounds))
	layer["bench.latency_p99_ms"] = median(pick(func(r roundResult) float64 { return r.P99Ms }))
	for _, l := range traceLayers {
		layer["trace."+l+"_self_share"] = shares[l]
	}

	out := runResult{Workload: w.name(), Seed: seed, Warmup: 1, Metrics: make(map[string]metric), Rounds: rounds}
	for _, r := range rounds {
		out.Attempted += r.Ops
		out.Failed += r.Ops - r.Correct
	}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			return runResult{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		out.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out, nil
}
