package experiments

import (
	"strconv"
	"strings"
	"testing"

	"chimera/internal/model"
	"chimera/internal/schedule"
)

// TestTable2MatchesPaper: measured values track the closed forms exactly
// for the exactly-derivable schemes.
func TestTable2MatchesPaper(t *testing.T) {
	r, err := Table2(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Metrics["bubble:chimera"]; got != 0.25 {
		t.Errorf("chimera bubble %v want 0.25", got)
	}
	if got := r.Metrics["bubble:dapple"]; got != 3.0/7.0 {
		t.Errorf("dapple bubble %v want 3/7", got)
	}
}

// TestTable3BubblesShrinkWithF: more pipelines, fewer bubbles (Table 3).
func TestTable3BubblesShrinkWithF(t *testing.T) {
	r, err := Table3(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.Metrics["bubble:f=1"] > r.Metrics["bubble:f=2"] &&
		r.Metrics["bubble:f=2"] > r.Metrics["bubble:f=4"]) {
		t.Errorf("bubbles not monotone in f: %v", r.Metrics)
	}
}

// TestFigure1Shapes pins the headline comparison's qualitative shape:
// Chimera beats every baseline on GPT-2 at 2,048 workers, with speedups in
// the paper's ballpark.
func TestFigure1Shapes(t *testing.T) {
	r, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"pipedream", "pipedream-2bw", "gpipe", "gems", "dapple"} {
		s := r.Metrics["speedup:"+scheme]
		if s <= 1.0 {
			t.Errorf("chimera should beat %s, speedup %.2f", scheme, s)
		}
		if s > 4 {
			t.Errorf("speedup over %s implausibly high: %.2f", scheme, s)
		}
	}
	// Paper factors: dapple 1.38x, gpipe 1.42x, gems 2.34x — shapes within
	// a loose band.
	if s := r.Metrics["speedup:dapple"]; s < 1.1 || s > 1.8 {
		t.Errorf("dapple speedup %.2f outside paper band", s)
	}
	if s := r.Metrics["speedup:gems"]; s < 1.8 {
		t.Errorf("gems speedup %.2f should be the largest synchronous gap", s)
	}
}

// TestFigure2ChimeraShortest: among synchronous schemes at D=N=4, Chimera
// has the shortest makespan.
func TestFigure2ChimeraShortest(t *testing.T) {
	r, err := Figure2(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	ch := r.Metrics["makespan:chimera"]
	for _, s := range []string{"gpipe", "dapple", "gems"} {
		if ch >= r.Metrics["makespan:"+s] {
			t.Errorf("chimera makespan %v not below %s %v", ch, s, r.Metrics["makespan:"+s])
		}
	}
}

// TestFigure6CriticalPath pins the Cf=6, Cb=10 example.
func TestFigure6CriticalPath(t *testing.T) {
	r, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["cf"] != 6 || r.Metrics["cb"] != 10 {
		t.Errorf("critical path (%v, %v), paper says (6, 10)", r.Metrics["cf"], r.Metrics["cb"])
	}
}

// TestFigure7DoublingWinsUnderRecompute: the §3.5 crossover.
func TestFigure7DoublingWinsUnderRecompute(t *testing.T) {
	r, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["recompute-makespan:forward-doubling"] >= r.Metrics["recompute-makespan:direct"] {
		t.Errorf("doubling should win under recompute: %v", r.Metrics)
	}
	if r.Metrics["makespan:direct"] > r.Metrics["makespan:forward-doubling"] {
		t.Errorf("direct should win without recompute: %v", r.Metrics)
	}
}

// TestFigure8ConflictFree: the four-pipeline overlay has no conflicts.
func TestFigure8ConflictFree(t *testing.T) {
	r, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["conflicts"] != 0 {
		t.Errorf("overlay conflicts: %v", r.Metrics["conflicts"])
	}
}

// TestFigure9Shapes: GPipe OOMs in every panel; Chimera's memory spread is
// tighter than DAPPLE's in every panel.
func TestFigure9Shapes(t *testing.T) {
	r, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	var sawOOMLine bool
	for _, l := range r.Lines {
		if strings.Contains(l, "gpipe") && strings.Contains(l, "OOM") {
			sawOOMLine = true
		}
	}
	if !sawOOMLine {
		t.Error("gpipe should OOM in the Figure 9 configurations")
	}
	for _, m := range []string{"Bert-48", "GPT-2-32"} {
		chSpread := r.Metrics[m+":chimera:max"] / r.Metrics[m+":chimera:min"]
		daSpread := r.Metrics[m+":dapple:max"] / r.Metrics[m+":dapple:min"]
		if chSpread >= daSpread {
			t.Errorf("%s: chimera spread %.2f not tighter than dapple %.2f", m, chSpread, daSpread)
		}
	}
}

// TestFigure12OptWins: eager-sync-opt ≥ eager-sync at every node count.
func TestFigure12OptWins(t *testing.T) {
	r, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"16", "32", "64"} {
		if v := r.Metrics["opt-over-eager:"+p]; v < 1.0 {
			t.Errorf("P=%s: eager-opt/eager = %.3f < 1", p, v)
		}
	}
}

// TestFigure14ChimeraBeatsSyncBaselines: weak scaling, Bert-48.
func TestFigure14ChimeraBeatsSyncBaselines(t *testing.T) {
	r, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"16", "32", "64"} {
		ch := r.Metrics["chimera:"+p]
		for _, s := range []string{"gpipe", "dapple", "gems"} {
			if ch <= r.Metrics[s+":"+p] {
				t.Errorf("P=%s: chimera %.1f not above %s %.1f", p, ch, s, r.Metrics[s+":"+p])
			}
		}
	}
}

// TestFigure15ShapesAndEfficiency: GPT-2 weak scaling — Chimera on top of
// every baseline including the asynchronous ones, high parallel efficiency.
func TestFigure15ShapesAndEfficiency(t *testing.T) {
	r, err := Figure15()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"512", "1024", "2048"} {
		ch := r.Metrics["chimera:"+p]
		for _, s := range []string{"gpipe", "dapple", "gems", "pipedream", "pipedream-2bw"} {
			if ch <= r.Metrics[s+":"+p] {
				t.Errorf("P=%s: chimera %.1f not above %s %.1f", p, ch, s, r.Metrics[s+":"+p])
			}
		}
	}
	if eff := r.Metrics["parallel-efficiency"]; eff < 0.85 || eff > 1.02 {
		t.Errorf("parallel efficiency %.3f outside plausible band (paper: 0.914)", eff)
	}
}

// TestFigure17DirectBest: Bert-48 large mini-batches — direct beats
// doubling and halving at every B̂ (the paper's Fig. 17 finding).
func TestFigure17DirectBest(t *testing.T) {
	r, err := Figure17()
	if err != nil {
		t.Fatal(err)
	}
	for _, bhat := range []string{"1024", "2048", "4096"} {
		dir := r.Metrics["chimera(direct):"+bhat]
		if dir <= r.Metrics["chimera(forward-doubling):"+bhat] {
			t.Errorf("B̂=%s: direct %.1f not above doubling", bhat, dir)
		}
		if dir <= r.Metrics["chimera(backward-halving):"+bhat] {
			t.Errorf("B̂=%s: direct %.1f not above halving", bhat, dir)
		}
	}
}

// TestFigure18DoublingBest: GPT-2 large mini-batches — forward doubling
// beats direct when recomputation is unavoidable (Fig. 18).
func TestFigure18DoublingBest(t *testing.T) {
	r, err := Figure18()
	if err != nil {
		t.Fatal(err)
	}
	for _, bhat := range []string{"1024", "1536", "2048"} {
		if r.Metrics["chimera(forward-doubling):"+bhat] <= r.Metrics["chimera(direct):"+bhat] {
			t.Errorf("B̂=%s: doubling should beat direct under recompute", bhat)
		}
	}
}

// TestFigure19MoreAtDeeperPipes: at D=32 more than two pipelines helps; at
// D=16 the advantage shrinks or reverses (the paper's trade-off).
func TestFigure19MoreAtDeeperPipes(t *testing.T) {
	r, err := Figure19()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["d32:pipes=4"] <= r.Metrics["d32:pipes=1"] {
		t.Errorf("D=32: 4 pipes (%.1f) should beat 1 pipe (%.1f)",
			r.Metrics["d32:pipes=4"], r.Metrics["d32:pipes=1"])
	}
	if r.Metrics["d32:pipes=2"] <= r.Metrics["d32:pipes=1"] {
		t.Error("D=32: 2 pipes should beat 1 pipe")
	}
	// At coarser stages the gain from f>2 must be smaller than at D=32.
	gain32 := r.Metrics["d32:pipes=4"] / r.Metrics["d32:pipes=2"]
	gain16 := r.Metrics["d16:pipes=4"] / r.Metrics["d16:pipes=2"]
	if gain16 > gain32 {
		t.Errorf("f>1 gain should shrink with coarser stages: D16 %.3f vs D32 %.3f", gain16, gain32)
	}
}

// TestFigure13ModelWithinBoundAndRanksBest pins §4.2.2's two claims on
// both of Figure 13's panels: every point's model error is within 10%, and
// the configuration the model picks is the practical best.
func TestFigure13ModelWithinBoundAndRanksBest(t *testing.T) {
	r, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for k, v := range r.Metrics {
		if strings.HasPrefix(k, "error%:") {
			points++
			if v > 10 {
				t.Errorf("%s = %.1f%%, above the paper's 10%%", k, v)
			}
		}
	}
	if points != 8 {
		t.Errorf("%d points compared, want 8 (four per panel)", points)
	}
	for _, m := range []string{model.BERT48().Name, model.GPT2().Name} {
		pick, best := r.Metrics["pick:"+m], r.Metrics["best:"+m]
		if best <= 0 || pick != best {
			t.Errorf("%s: the model's pick reaches %.1f seq/s, the practical best %.1f", m, pick, best)
		}
	}
}

// TestModelAccuracyWithinPaperBound: Eq. 1 within 10%.
func TestModelAccuracyWithinPaperBound(t *testing.T) {
	r, err := ModelAccuracy()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["worst-error"] > 0.10 {
		t.Errorf("worst model error %.1f%% above the paper's 10%%", r.Metrics["worst-error"]*100)
	}
}

// TestAblationGreedyBNearOptimal: the greedy micro-batch is within 10% of
// the swept optimum (§3.4's justification for the reduced tuning space).
func TestAblationGreedyBNearOptimal(t *testing.T) {
	r, err := AblationGreedyB()
	if err != nil {
		t.Fatal(err)
	}
	greedy := r.Metrics["b="+strconv.Itoa(int(r.Metrics["greedy"]))]
	best := r.Metrics["b="+strconv.Itoa(int(r.Metrics["optimum"]))]
	if greedy < 0.9*best {
		t.Errorf("greedy B throughput %.1f more than 10%% below optimum %.1f", greedy, best)
	}
}

// TestAblationAllreduceRabenseifnerWins at scale.
func TestAblationAllreduceRabenseifnerWins(t *testing.T) {
	r, err := AblationAllreduce()
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["rabenseifner:256"] > r.Metrics["ring:256"] {
		t.Errorf("rabenseifner (%v) should not lose to ring (%v) at W=256",
			r.Metrics["rabenseifner:256"], r.Metrics["ring:256"])
	}
}

// TestTrainingEquivalenceTight: the real-runtime demo stays numerically
// tight and the loss decreases.
func TestTrainingEquivalenceTight(t *testing.T) {
	r, err := TrainingEquivalence(8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics["worst-loss-gap"] > 1e-4 {
		t.Errorf("loss gap %v too large", r.Metrics["worst-loss-gap"])
	}
	if r.Metrics["worst-weight-gap"] > 1e-4 {
		t.Errorf("weight gap %v too large", r.Metrics["worst-weight-gap"])
	}
	if r.Metrics["last-loss"] >= r.Metrics["first-loss"] {
		t.Errorf("loss did not decrease: %v → %v", r.Metrics["first-loss"], r.Metrics["last-loss"])
	}
}

// TestListSchedulerBeatsFixedUnderStraggler: the property the scheduler zoo
// exists for. On the ×2-straggler column of the ablation's scheme ×
// scheduler matrix, run on GPT-2-32 (four-layer stages leave the device
// memory that weight-stacking re-shapes need; Bert-48's six do not, which
// is the ablation's own finding), at least one list-scheduled placement
// strictly beats the best fixed-placement scheme.
func TestListSchedulerBeatsFixedUnderStraggler(t *testing.T) {
	m, enc := model.GPT2Small32(), stragglerSpeed(2.0)
	var bestFixed, bestList float64
	var fixedCell, listCell string
	for _, scheme := range stragglerSchemes {
		for _, sched := range schedule.Schedulers() {
			out := stragglerCell(m, scheme, sched, enc)
			if out.Err != nil {
				t.Fatalf("%s/%s: %v", scheme, sched, out.Err)
			}
			res, _ := outcomePoint(out)
			if res == nil {
				continue // exceeds device memory even with recomputation
			}
			if sched == "fixed" {
				if res.Throughput > bestFixed {
					bestFixed, fixedCell = res.Throughput, scheme+"/"+sched
				}
			} else if res.Throughput > bestList {
				bestList, listCell = res.Throughput, scheme+"/"+sched
			}
		}
	}
	if bestFixed <= 0 {
		t.Fatal("no fixed placement is feasible")
	}
	if !(bestList > bestFixed) {
		t.Fatalf("no list scheduler beat the best fixed scheme at ×2: fixed %s %.1f vs list %s %.1f seq/s",
			fixedCell, bestFixed, listCell, bestList)
	}
	t.Logf("×2 straggler, GPT-2-32 D=%d: best fixed %s %.1f, best list %s %.1f seq/s (%.2fx)",
		stragglerD, fixedCell, bestFixed, listCell, bestList, bestList/bestFixed)
}

// TestAllExperimentsComplete: every harness runs to completion and
// produces output (the cmd/chimera-bench path), and the index's IDs — what
// `chimera-bench -only` selects on before running anything — are unique
// and are the IDs the reports carry.
func TestAllExperimentsComplete(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range All(2) {
		if e.ID == "" || seen[e.ID] {
			t.Fatalf("experiment id %q empty or listed twice", e.ID)
		}
		seen[e.ID] = true
		rep, err := e.Run()
		if err != nil {
			t.Fatalf("experiment %s failed: %v", e.ID, err)
		}
		if rep.ID != e.ID {
			t.Fatalf("experiment listed as %q reports as %q", e.ID, rep.ID)
		}
		if len(rep.Lines) == 0 {
			t.Fatalf("experiment %s produced empty report", e.ID)
		}
	}
}

// TestConvergenceComparison: Chimera must track sequential SGD to float
// round-off while PipeDream (stale weights) measurably deviates — yet both
// make progress.
func TestConvergenceComparison(t *testing.T) {
	r, err := ConvergenceComparison(10)
	if err != nil {
		t.Fatal(err)
	}
	if gap := r.Metrics["chimera-sgd-gap"]; gap > 1e-4 {
		t.Errorf("chimera/SGD gap %v too large", gap)
	}
	pd := r.Metrics["pipedream-final"] - r.Metrics["sgd-final"]
	if pd < 0 {
		pd = -pd
	}
	if pd < 1e-6 {
		t.Error("pipedream unexpectedly identical to SGD — staleness not exercised")
	}
	if r.Metrics["pipedream-final"] > 4.0 {
		t.Errorf("pipedream failed to make progress: %v", r.Metrics["pipedream-final"])
	}
}

func TestSpeedupAndGiB(t *testing.T) {
	if s := speedup(2, 3); s != "1.50x" {
		t.Fatalf("speedup %q", s)
	}
	if s := speedup(0, 3); s != "n/a" {
		t.Fatalf("speedup %q", s)
	}
	if g := gib(1 << 30); g != "1.00 GiB" {
		t.Fatalf("gib %q", g)
	}
}
