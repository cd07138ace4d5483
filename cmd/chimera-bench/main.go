// chimera-bench regenerates every table and figure of the paper's
// evaluation (DESIGN.md §4) and prints them in order. Use -only to select
// experiments by id substring (the others are not run), -train for the
// real-training demo iteration count.
//
// Performance is measured elsewhere: bench/ is the repo's one benchmark
// (`bash bench/run.sh`, declared in BENCHMARK.json).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"chimera/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run only experiments whose id contains this substring")
	train := flag.Int("train", 12, "iterations for the real-training equivalence demo")
	flag.Parse()

	if err := run(os.Stdout, experiments.All(*train), *only); err != nil {
		fmt.Fprintf(os.Stderr, "experiment failed: %v\n", err)
		os.Exit(1)
	}
}

// run executes the experiments whose id contains only (all of them when it
// is empty) in order and prints each report to w.
func run(w io.Writer, all []experiments.Experiment, only string) error {
	for _, e := range all {
		if !strings.Contains(e.ID, only) {
			continue
		}
		rep, err := e.Run()
		if err != nil {
			return err
		}
		rep.Fprint(w)
	}
	return nil
}
