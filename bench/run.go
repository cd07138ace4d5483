package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// A workload builds one fresh system under test per round.
type workload interface {
	name() string
	// keys names the work of every op in a round's sequence, in order: two
	// ops with the same key, in one round or in two, do the same work on a
	// system in the same state, so their times are repeats of one
	// measurement.
	keys() []int
	// setup builds the system and runs the workload's priming pass; the
	// harness times it as the round's set-up. A non-nil tracer asks for
	// spans around the timed ops.
	setup(tr *tracer) (round, error)
}

// A round is one built system and the fixed op sequence replayed against it
// by one closed-loop caller.
type round interface {
	// do runs op i of the workload's sequence. It returns the instants the op
	// began — after any untimed preparation — and its reply was complete —
	// before the reply is digested, so checking never counts as latency — and
	// whether the reply matched its golden.
	do(i int) (begin, end time.Time, ok bool)
	// counters reports exact per-round counts from the system's own stats.
	counters() map[string]float64
	// close tears the system down, untimed.
	close()
}

// A spanSynthesizer is a round that can add, once its ops are done, spans
// for work a handler reported about itself in its replies.
type spanSynthesizer interface {
	synthesize(tr *tracer)
}

// A settler is a round whose live state at the end of the timed phase depends
// on which op the seed happened to put last; settle brings it to a fixed
// state before the live heap is read.
type settler interface {
	settle()
}

// traceOverhead compares, op by op, the times an op took in the rounds that
// recorded spans for it with the times it took in the rounds that did not:
// within each key, the traced median over the untraced median, every sample
// divided by its round's host slowdown; the result is the median of those
// ratios over the keys that have both, less one. phases[r] is round r's
// tracer phase.
func traceOverhead(keys []int, rounds [][]time.Duration, slowdown []float64, phases []int) float64 {
	type halves struct{ with, without []float64 }
	byKey := make(map[int]*halves)
	for r, lat := range rounds {
		for i, d := range lat {
			h := byKey[keys[i]]
			if h == nil {
				h = new(halves)
				byKey[keys[i]] = h
			}
			if v := float64(d) / slowdown[r]; tracedOp(i, phases[r]) {
				h.with = append(h.with, v)
			} else {
				h.without = append(h.without, v)
			}
		}
	}
	var ratios []float64
	for _, h := range byKey {
		if len(h.with) > 0 && len(h.without) > 0 {
			ratios = append(ratios, median(h.with)/median(h.without))
		}
	}
	return median(ratios) - 1
}

// roundResult is one round as the clock read it, host interference included,
// and how slow the reference task found the host while it ran.
type roundResult struct {
	HostSlowdown   float64            `json:"host_slowdown"`
	SetupS         float64            `json:"setup_s"`
	TimedS         float64            `json:"timed_s"`
	Ops            int                `json:"ops"`
	Correct        int                `json:"correct"`
	ThroughputOpsS float64            `json:"throughput_ops_s"`
	P50Ms          float64            `json:"latency_p50_ms"`
	P95Ms          float64            `json:"latency_p95_ms"`
	P99Ms          float64            `json:"latency_p99_ms"`
	MaxMs          float64            `json:"latency_max_ms"`
	CPUMsPerOp     float64            `json:"cpu_ms_per_op"`
	HeapLiveMB     float64            `json:"heap_live_mb"`
	Counters       map[string]float64 `json:"counters,omitempty"`
}

// cpuNow is the CPU time the whole process has used so far, user and system,
// from the kernel's per-process clock: exact to the nanosecond where
// getrusage counts scheduler ticks, so it can be read around a single op.
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// opTimes holds, for every op of one round, its wall time and the CPU time
// the process used while it ran.
type opTimes struct {
	lat, cpu []time.Duration
	// calibration is scratch for the round's reference-task samples.
	calibration []time.Duration
}

func newOpTimes(ops int) opTimes {
	return opTimes{lat: make([]time.Duration, ops), cpu: make([]time.Duration, ops), calibration: make([]time.Duration, 0, 1024)}
}

// runRound sets a system up, replays the op sequence closed-loop on the
// calling goroutine, and measures. Between ops, every calibrationGap of timed
// work, it runs the reference task. into is the caller's preallocated buffer,
// one slot per op, so the timed phase allocates nothing of its own beyond
// what the reference task does.
func runRound(w workload, tr *tracer, into opTimes) (roundResult, error) {
	runtime.GC()
	t0 := time.Now()
	r, err := w.setup(tr)
	if err != nil {
		return roundResult{}, fmt.Errorf("%s: set-up: %w", w.name(), err)
	}
	defer r.close()
	lat, cpu := into.lat, into.cpu
	res := roundResult{SetupS: time.Since(t0).Seconds(), Ops: len(lat)}
	runtime.GC()

	var timed, sinceSample time.Duration
	samples := into.calibration[:0]
	for i := range lat {
		if i == 0 || sinceSample >= calibrationGap {
			samples = append(samples, referenceTask())
			sinceSample = 0
		}
		c0 := cpuNow()
		begin, end, ok := r.do(i)
		cpu[i] = cpuNow() - c0
		lat[i] = end.Sub(begin)
		timed += lat[i]
		sinceSample += lat[i]
		if ok {
			res.Correct++
		}
	}
	// One caller, closed loop: the timed phase is the sum of its ops.
	res.TimedS = timed.Seconds()
	res.HostSlowdown = hostSlowdown(samples)
	if s, ok := r.(spanSynthesizer); ok && tr != nil {
		s.synthesize(tr)
	}
	if s, ok := r.(settler); ok {
		s.settle()
	}

	// Twice: the first collection moves sync.Pool contents to the victim
	// cache, the second frees them, so pooled scratch does not count as live.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	res.Counters = r.counters()

	res.ThroughputOpsS = float64(res.Ops) / res.TimedS
	var cpuSum time.Duration
	for _, d := range cpu {
		cpuSum += d
	}
	res.CPUMsPerOp = ms64(cpuSum) / float64(res.Ops)
	msLat := make([]float64, len(lat))
	for i, d := range lat {
		msLat[i] = ms64(d)
	}
	sort.Float64s(msLat)
	res.P50Ms, res.P95Ms, res.P99Ms = percentile(msLat, 0.50), percentile(msLat, 0.95), percentile(msLat, 0.99)
	res.MaxMs = msLat[len(msLat)-1]
	return res, nil
}

func ms64(d time.Duration) float64 { return float64(d) / 1e6 }

// quietTimes folds a run's repeats into one reading per op of the sequence,
// in milliseconds on the reference host: every sample is first divided by
// its round's host slowdown, and an op's reading is then the lower quartile
// of every sample taken under its key, over all the rounds given.
//
// The division takes out the host's speed, which moves whole rounds. What is
// left is the host taking the processor away for milliseconds at a time, from
// a tenth to a half of all ops depending on the minute, which only ever adds
// time: a round's mean, its p95 and its CPU total follow that, not the
// program. Every op here has at least eight repeats on an identical system,
// and the lower quartile of those is what the op costs when it is left alone:
// it stays put until three repeats in four are disturbed, and — unlike the
// minimum — does not wait for one lucky repeat.
func quietTimes(keys []int, rounds [][]time.Duration, slowdown []float64) []float64 {
	samples := make(map[int][]float64)
	for r, times := range rounds {
		for i, k := range keys {
			samples[k] = append(samples[k], ms64(times[i])/slowdown[r])
		}
	}
	out := make([]float64, len(keys))
	for i, k := range keys {
		out[i] = lowerQuartile(samples[k])
	}
	return out
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// The seven end-to-end metrics, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"throughput_ops_s", "1/s"}, {"latency_p50_ms", "ms"}, {"latency_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"}, {"heap_live_mb", "MB"}, {"correct_share", "share"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run: its end-to-end metrics, on the reference
// host, and every measured round as the clock read it.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Warmup    int               `json:"warmup_rounds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Rounds    []roundResult     `json:"rounds"`
}

const warmupRounds = 2

// summarize folds measured rounds into the run's end-to-end metrics. The
// three latency-derived metrics and the CPU cost come from the quiet times
// of the sequence's ops; set-up (divided by its round's host slowdown, like
// every other time) and live heap are one reading per round and report the
// median round.
func summarize(name string, seed int64, keys []int, rounds []roundResult, times []opTimes) runResult {
	out := runResult{Workload: name, Seed: seed, Warmup: warmupRounds, Metrics: make(map[string]metric), Rounds: rounds}
	var setup, heap, slowdown []float64
	for _, r := range rounds {
		out.Attempted += r.Ops
		out.Failed += r.Ops - r.Correct
		setup = append(setup, r.SetupS/r.HostSlowdown)
		heap = append(heap, r.HeapLiveMB)
		slowdown = append(slowdown, r.HostSlowdown)
	}
	lats, cpus := make([][]time.Duration, len(times)), make([][]time.Duration, len(times))
	for i, t := range times {
		lats[i], cpus[i] = t.lat, t.cpu
	}
	lat := quietTimes(keys, lats, slowdown)
	sorted := sortedCopy(lat)
	values := map[string]float64{
		"setup_s": flooredSetup(median(setup)),
		// One caller, closed loop: the sequence takes the sum of its ops.
		"throughput_ops_s": 1e3 / mean(lat),
		"latency_p50_ms":   percentile(sorted, 0.50),
		"latency_p95_ms":   percentile(sorted, 0.95),
		"cpu_ms_per_op":    mean(quietTimes(keys, cpus, slowdown)),
		"heap_live_mb":     median(heap),
		"correct_share":    float64(out.Attempted-out.Failed) / float64(out.Attempted),
	}
	for _, m := range endToEnd {
		out.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	return out
}

// roundThroughputs is every round's throughput on the reference host — as the
// clock read it, times the round's host slowdown — the host's interruptions
// still in it. Its spread is the harness's own noise measure.
func roundThroughputs(rounds []roundResult) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = r.ThroughputOpsS * r.HostSlowdown
	}
	return out
}

// runWorkload runs the discarded warm-up rounds and then `measured` rounds.
// Every round's op times are kept until the end; their buffers are allocated
// here, before the first round, so each round's live-heap reading carries the
// same constant for them.
func runWorkload(w workload, seed int64, measured int) (runResult, error) {
	var rounds []roundResult
	times := make([]opTimes, measured)
	for i := range times {
		times[i] = newOpTimes(len(w.keys()))
	}
	for i := 0; i < warmupRounds+measured; i++ {
		into := times[max(i-warmupRounds, 0)] // warm-up rounds write where the first measured round will
		r, err := runRound(w, nil, into)
		if err != nil {
			return runResult{}, err
		}
		logf("%s round %d/%d: host ×%.3f setup %.3fs timed %.3fs ops %d correct %d thr %.1f/s p50 %.4fms p95 %.4fms p99 %.4fms max %.3fms cpu %.4fms/op heap %.2fMB %v",
			w.name(), i+1, warmupRounds+measured, r.HostSlowdown, r.SetupS, r.TimedS, r.Ops, r.Correct, r.ThroughputOpsS, r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs, r.CPUMsPerOp, r.HeapLiveMB, r.Counters)
		if i >= warmupRounds {
			rounds = append(rounds, r)
		}
	}
	return summarize(w.name(), seed, w.keys(), rounds, times), nil
}
