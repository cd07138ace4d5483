package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestZipfScheduleIsSeeded(t *testing.T) {
	a, b := zipfSchedule(7, zipfTenants, 4000, zipfS), zipfSchedule(7, zipfTenants, 4000, zipfS)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, zipfSchedule(8, zipfTenants, 4000, zipfS)) {
		t.Fatal("two seeds gave the same schedule")
	}
	counts := make(map[int]int)
	for _, k := range a {
		if k < 0 || k >= zipfTenants {
			t.Fatalf("tenant %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[50] {
		t.Fatalf("ranks are not zipfian: rank 0 ×%d, rank 1 ×%d, rank 50 ×%d", counts[0], counts[1], counts[50])
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	// 200 samples: p95 is the 190th, leaving ten beyond it.
	big := make([]float64, 200)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.95); got != 190 {
		t.Errorf("percentile(1..200, 0.95) = %v, want 190", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianOfRoundsAndQuartiles(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32], n=4) == [1.75, 6.0, 20.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16, 32})
	if q1 != 1.75 || q3 != 20 {
		t.Errorf("quartiles(1,2,4,8,16,32) = %v, %v, want 1.75, 20", q1, q3)
	}
	if got := spreadShare([]float64{1, 2, 4, 8, 16, 32}); got != (20-1.75)/6 {
		t.Errorf("spreadShare = %v", got)
	}
}

// fakeRound is a round of two correct ops with made-up readings.
func fakeRound(slowdown, setup float64) roundResult {
	return roundResult{Ops: 2, Correct: 2, HostSlowdown: slowdown, SetupS: setup, HeapLiveMB: 3}
}

func fakeTimes(ms ...float64) opTimes {
	t := newOpTimes(len(ms))
	for i, v := range ms {
		t.lat[i] = time.Duration(v * 1e6)
		t.cpu[i] = 2 * t.lat[i]
	}
	return t
}

func TestQuietTimesTakeTheLowerQuartileOfAKeysRepeats(t *testing.T) {
	ms := func(vs ...float64) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v * 1e6)
		}
		return out
	}
	// Key 7 is sampled at ops 0 and 2 of both rounds: 1, 2, 4, 16 →
	// statistics.quantiles([1, 2, 4, 16], n=4)[0] == 1.25. Key 9, at op 1:
	// 10 and 30, whose first quartile by the exclusive method is 5.0, below
	// both: the reading is the smaller sample.
	got := quietTimes([]int{7, 9, 7}, [][]time.Duration{ms(1, 10, 2), ms(4, 30, 16)}, []float64{1, 1})
	if want := []float64{1.25, 10, 1.25}; !reflect.DeepEqual(got, want) {
		t.Errorf("quiet times %v, want %v", got, want)
	}
	// A round the host ran twice as slowly counts at half its readings.
	got = quietTimes([]int{0}, [][]time.Duration{ms(8), ms(8), ms(8)}, []float64{2, 1, 1})
	if want := []float64{4}; !reflect.DeepEqual(got, want) { // quantiles([4, 8, 8])[0] == 4.0
		t.Errorf("quiet times %v, want %v", got, want)
	}
}

func TestSummarizeReportsQuietTimesOnTheReferenceHost(t *testing.T) {
	// Two ops, each its own key; the second round ran on a host twice as slow
	// and read twice as much, so both rounds agree once divided.
	res := summarize("w", 1, []int{0, 1},
		[]roundResult{fakeRound(1, 0.5), fakeRound(2, 1.0)},
		[]opTimes{fakeTimes(2, 4), fakeTimes(4, 8)})
	for name, want := range map[string]float64{
		"latency_p50_ms": 2, "latency_p95_ms": 4, "throughput_ops_s": 1e3 / 3, "cpu_ms_per_op": 6,
		"setup_s": 0.5, "heap_live_mb": 3, "correct_share": 1,
	} {
		if got := res.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if res.Attempted != 4 || res.Failed != 0 {
		t.Errorf("attempted %d failed %d", res.Attempted, res.Failed)
	}
}

func TestHostSlowdownReadsTheLowerQuartile(t *testing.T) {
	ref := calibrationRef
	// quantiles([1, 1, 1, 3]·ref)[0] == ref: one interrupted sample in four
	// does not move the reading.
	if got := hostSlowdown([]time.Duration{ref, 3 * ref, ref, ref}); math.Abs(got-1) > 1e-9 {
		t.Errorf("slowdown %v, want 1", got)
	}
	if got := hostSlowdown([]time.Duration{2 * ref}); got != 2 {
		t.Errorf("slowdown of one sample %v, want 2", got)
	}
	if got := hostSlowdown(nil); got != 1 {
		t.Errorf("slowdown of no samples %v, want 1", got)
	}
	if referenceTask() <= 0 {
		t.Error("the reference task took no time")
	}
}

func TestSetupFloor(t *testing.T) {
	if flooredSetup(0.004) != 0.05 || flooredSetup(0.05) != 0.05 || flooredSetup(0.31) != 0.31 {
		t.Fatal("set-up floor is not max(s, 0.05)")
	}
	res := summarize("w", 1, []int{0, 1}, []roundResult{fakeRound(1, 0.01), fakeRound(1, 0.02)}, []opTimes{fakeTimes(1, 1), fakeTimes(1, 1)})
	if got := res.Metrics["setup_s"].Value; got != setupFloor {
		t.Errorf("reported set-up %v, want the floor", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "perfmodel.plan", Parent: noParent, Start: 0, End: 100},
		{Name: "schedule.build", Parent: 0, Start: 10, End: 40},     // nested child
		{Name: "schedule.compile", Parent: 1, Start: 20, End: 30},   // grandchild
		{Name: "sim.fits_memory", Parent: 0, Start: 50, End: 60},    // sibling
		{Name: "schedule.build", Parent: 0, Start: 55, End: 80},     // sibling on another worker, overlapping
		{Name: "perfmodel.predict", Parent: 0, Start: 90, End: 120}, // runs past its parent: clipped
	}
	want := []int64{100 - 30 - 30 - 10, 30 - 10, 10, 10, 25, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	shares := layerSelfShares(spans, selfTimes(spans))
	if math.Abs(shares["schedule"]-(20.0+10+25)/125) > 1e-12 {
		t.Errorf("schedule share %v", shares["schedule"])
	}
}

func TestTraceOverheadIsTakenWithinKeys(t *testing.T) {
	// Two kinds of op, one ten times dearer, the dear kind mostly in the
	// second block; tracing adds 10 % to both. Two rounds of opposite phase,
	// the second on a host twice as slow: every op is met with spans in one
	// round and without in the other.
	keys, oneKey := make([]int, 2*traceBlock), make([]int, 2*traceBlock)
	for i := range keys {
		if i < 5 || i >= traceBlock+5 {
			keys[i] = 1
		}
	}
	slowdown, phases := []float64{1, 2}, []int{0, 1}
	rounds := make([][]time.Duration, 2)
	for r := range rounds {
		rounds[r] = make([]time.Duration, len(keys))
		for i, k := range keys {
			d := time.Duration(1000 + 9000*k)
			if tracedOp(i, phases[r]) {
				d += d / 10
			}
			rounds[r][i] = d * time.Duration(slowdown[r])
		}
	}
	if got := traceOverhead(keys, rounds, slowdown, phases); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("overhead %v, want 0.1", got)
	}
	// Medians over all ops of one round together would blame tracing for
	// the mix: its traced block is the one that holds the dear ops.
	if got := traceOverhead(oneKey, rounds[:1], slowdown[:1], phases[:1]); got < 5 {
		t.Fatalf("without keys the mix should swamp the estimate, got %v", got)
	}
}

func TestResolveParentsPicksTightestEnclosure(t *testing.T) {
	spans := []span{
		{Name: "bench.http_op", Op: 3, Parent: noParent, Start: 0, End: 100},
		{Name: "router.handle", Op: 3, Parent: inferParent, Start: 10, End: 90},
		{Name: "serve.handle", Op: 3, Parent: inferParent, Start: 20, End: 80},
		{Name: "serve.handle", Op: 4, Parent: inferParent, Start: 30, End: 40}, // another op: no parent here
	}
	resolveParents(spans)
	if spans[1].Parent != 0 || spans[2].Parent != 1 || spans[3].Parent != noParent {
		t.Fatalf("parents %d %d %d", spans[1].Parent, spans[2].Parent, spans[3].Parent)
	}
}

func TestHomogeneityFilter(t *testing.T) {
	in := []planCase{
		{ID: "too-small", VisitedOps: visitedOpsMin - 1, ChosenOps: chosenOpsMin},
		{ID: "ok-low", VisitedOps: visitedOpsMin, ChosenOps: chosenOpsMin},
		{ID: "cold-heavy", VisitedOps: visitedOpsMax + 1, ChosenOps: chosenOpsMin},
		{ID: "warm-heavy", VisitedOps: visitedOpsMin, ChosenOps: chosenOpsMax + 1},
		{ID: "ok-high", VisitedOps: visitedOpsMax, ChosenOps: chosenOpsMax},
	}
	var got []string
	for _, c := range homogeneous(in) {
		got = append(got, c.ID)
	}
	if !reflect.DeepEqual(got, []string{"ok-low", "ok-high"}) {
		t.Fatalf("kept %v", got)
	}
	many := make([]planCase, planCasesMax+5)
	for i := range many {
		many[i] = planCase{VisitedOps: visitedOpsMin, ChosenOps: chosenOpsMin}
	}
	if n := len(homogeneous(many)); n != planCasesMax {
		t.Fatalf("kept %d, cap is %d", n, planCasesMax)
	}
}

func TestCommittedPlanCasesAreHomogeneous(t *testing.T) {
	cases, err := loadPlanCases()
	if err != nil {
		t.Fatal(err)
	}
	if len(homogeneous(cases)) != len(cases) {
		t.Fatal("golden/plan.json holds cases outside the homogeneity bands")
	}
}

func TestGoldenMismatchLowersCorrectShare(t *testing.T) {
	w, err := newPlanWorkload(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	w.cases = append([]planCase(nil), w.cases[:2]...)
	w.cases[1].Digest = "0000000000000000"
	w.order = []int{0, 1}
	r, err := w.setup(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	rr := roundResult{HostSlowdown: 1}
	for i := range w.keys() {
		rr.Ops++
		if _, _, ok := r.do(i); ok {
			rr.Correct++
		}
	}
	res := summarize("plan_warm", 1, w.keys(), []roundResult{rr, rr}, []opTimes{fakeTimes(1, 1), fakeTimes(1, 1)})
	if got := res.Metrics["correct_share"].Value; got != 0.5 {
		t.Fatalf("correct_share %v, want 0.5 with one of two goldens wrong", got)
	}
	if res.Failed != 2 {
		t.Fatalf("failed %d, want 2", res.Failed)
	}
}

func TestTracedPlannerMatchesGolden(t *testing.T) {
	w, err := newPlanWorkload(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Op traceBlock is the first op of a traced round that records spans.
	w.cases, w.order = w.cases[:1], make([]int, traceBlock+1)
	tr := newTracer(4096, 0)
	r, err := w.setup(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := r.do(0); !ok || tr.n.Load() != 0 {
		t.Fatal("op 0 of a traced round must run untraced and still be correct")
	}
	if _, _, ok := r.do(traceBlock); !ok {
		t.Fatal("the traced planner's ranking does not match the golden digest")
	}
	names := statsByName(tr.recorded(), selfTimes(tr.recorded()))
	for _, want := range []string{"perfmodel.plan", "schedule.build", "schedule.compile", "schedule.critical_path", "sim.fits_memory", "perfmodel.predict", shadowReplay} {
		if names[want].Count == 0 {
			t.Errorf("no %s span on a cold plan", want)
		}
	}
}

func TestReplyScrubbing(t *testing.T) {
	reply := []byte(`{"accepted":1,"version":7,"now":40,"replan_ms":0.4821,"nodes":96,"allocation":[]}`)
	if got := string(stripField(reply, "replan_ms")); got != `{"accepted":1,"version":7,"now":40,"nodes":96,"allocation":[]}` {
		t.Errorf("stripField: %s", got)
	}
	if got := string(stripField(reply, "cost")); got != string(reply) {
		t.Errorf("stripField of an absent field changed the reply: %s", got)
	}
	if got := replanNanos(reply); got != 482100 {
		t.Errorf("replanNanos = %d", got)
	}
	if v, ok := streamVersion(`data: {"version":12,"now":70}`); !ok || v != 12 {
		t.Errorf("streamVersion = %d, %v", v, ok)
	}
	a := stormDigest(reply)
	b := stormDigest([]byte(`{"accepted":1,"version":7,"now":40,"replan_ms":9.75,"nodes":96,"allocation":[]}`))
	if a != b {
		t.Error("two replies that differ only in replan_ms digest differently")
	}
}

func TestMeasuredRoundsNeverBelowEight(t *testing.T) {
	for seconds, want := range map[int]int{1: 8, 12: 8, 18: 12, 60: 40} {
		if got := measuredRounds(seconds); got != want {
			t.Errorf("measuredRounds(%d) = %d, want %d", seconds, got, want)
		}
	}
}

// BENCHMARK.json and the program must name the same metrics and workloads.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		t.Skipf("no BENCHMARK.json above the benchmark: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, workloads []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	var wantE2E, wantLayers []string
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, m.name)
	}
	for _, m := range perLayer {
		wantLayers = append(wantLayers, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(e2e, wantE2E) {
		t.Errorf("end_to_end %v, program reports %v", e2e, wantE2E)
	}
	if !reflect.DeepEqual(layers, wantLayers) {
		t.Errorf("per_layer differs from the program's table")
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("workloads %v, program has %v", workloads, workloadNames)
	}
}
