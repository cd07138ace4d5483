// Benchmarks regenerating every table and figure of the paper's evaluation
// (DESIGN.md §4). Each benchmark runs the corresponding experiment harness
// and reports its headline metric; run with
//
//	go test -bench=. -benchmem
//
// and see DESIGN.md §4's experiment index for what each one reproduces.
// cmd/chimera-bench prints the full row/series output of the same
// harnesses; `make bench-smoke` runs each benchmark once.
package chimera_test

import (
	"testing"

	"chimera/internal/experiments"
)

func runExp(b *testing.B, fn func() (*experiments.Report, error), metrics ...string) {
	b.Helper()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = fn()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := rep.Metrics[m]; ok {
			b.ReportMetric(v, m)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	runExp(b, func() (*experiments.Report, error) { return experiments.Table2(4, 4) },
		"bubble:chimera", "bubble:dapple")
}

func BenchmarkTable3(b *testing.B) {
	runExp(b, func() (*experiments.Report, error) { return experiments.Table3(16, 16) },
		"bubble:f=1", "bubble:f=4")
}

func BenchmarkFigure1(b *testing.B) {
	runExp(b, experiments.Figure1, "speedup:dapple", "speedup:gpipe", "speedup:gems", "speedup:pipedream-2bw")
}

func BenchmarkFigure2(b *testing.B) {
	runExp(b, func() (*experiments.Report, error) { return experiments.Figure2(4, 4) },
		"makespan:chimera", "makespan:dapple")
}

func BenchmarkFigure6(b *testing.B) {
	runExp(b, experiments.Figure6, "cf", "cb")
}

func BenchmarkFigure7(b *testing.B) {
	runExp(b, experiments.Figure7,
		"recompute-makespan:direct", "recompute-makespan:forward-doubling")
}

func BenchmarkFigure8(b *testing.B) {
	runExp(b, experiments.Figure8, "conflicts")
}

func BenchmarkFigure9(b *testing.B) {
	runExp(b, experiments.Figure9)
}

func BenchmarkFigure10(b *testing.B) {
	runExp(b, experiments.Figure10, "best:dapple", "best:gpipe")
}

func BenchmarkFigure11(b *testing.B) {
	runExp(b, experiments.Figure11, "best:dapple")
}

func BenchmarkFigure12(b *testing.B) {
	runExp(b, experiments.Figure12, "opt-over-eager:64")
}

func BenchmarkFigure13(b *testing.B) {
	runExp(b, experiments.Figure13)
}

func BenchmarkFigure14(b *testing.B) {
	runExp(b, experiments.Figure14, "chimera:64", "dapple:64")
}

func BenchmarkFigure15(b *testing.B) {
	runExp(b, experiments.Figure15, "chimera:2048", "parallel-efficiency")
}

func BenchmarkFigure16(b *testing.B) {
	runExp(b, experiments.Figure16, "chimera:32")
}

func BenchmarkFigure17(b *testing.B) {
	runExp(b, experiments.Figure17, "chimera(direct):2048")
}

func BenchmarkFigure18(b *testing.B) {
	runExp(b, experiments.Figure18, "chimera(forward-doubling):2048")
}

func BenchmarkFigure19(b *testing.B) {
	runExp(b, experiments.Figure19, "d32:pipes=4", "d16:pipes=2")
}

func BenchmarkModelAccuracy(b *testing.B) {
	runExp(b, experiments.ModelAccuracy, "worst-error")
}

func BenchmarkAblationAllreduce(b *testing.B) {
	runExp(b, experiments.AblationAllreduce, "rabenseifner:256", "ring:256")
}

func BenchmarkAblationGreedyB(b *testing.B) {
	runExp(b, experiments.AblationGreedyB, "greedy", "optimum")
}

func BenchmarkAblationRecompute(b *testing.B) {
	runExp(b, experiments.AblationRecompute)
}

func BenchmarkAblationSyncInterference(b *testing.B) {
	runExp(b, experiments.AblationInterference)
}

func BenchmarkTrainingEquivalence(b *testing.B) {
	runExp(b, func() (*experiments.Report, error) { return experiments.TrainingEquivalence(3) },
		"worst-loss-gap")
}

func BenchmarkConvergenceComparison(b *testing.B) {
	runExp(b, func() (*experiments.Report, error) { return experiments.ConvergenceComparison(4) },
		"chimera-sgd-gap")
}

func BenchmarkAblationZeRO(b *testing.B) {
	runExp(b, experiments.AblationZeRO)
}

func BenchmarkAblationCompression(b *testing.B) {
	runExp(b, experiments.AblationCompression)
}
