// chimera-viz renders pipeline schedules as ASCII timelines (the paper's
// Figures 2/3/7/8), SVG or Chrome-trace JSON. It is a client of /v1/render:
// its flags resolve through serve.ScheduleRef.Key, size caps included, so it
// refuses what the service refuses.
//
// Example:
//
//	chimera-viz -scheme chimera -d 4 -n 4
//	chimera-viz -scheme chimera -d 8 -n 8 -f 2 -equal
//	chimera-viz -scheme dapple -d 4 -n 4 -chrome trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"chimera/internal/engine"
	"chimera/internal/schedule"
	"chimera/internal/serve"
	"chimera/internal/trace"
)

func main() {
	scheme := flag.String("scheme", "chimera", "scheme name")
	d := flag.Int("d", 4, "pipeline stages D")
	n := flag.Int("n", 4, "micro-batches per worker N")
	f := flag.Int("f", 1, "chimera pipelines per direction")
	concat := flag.String("concat", "direct", "chimera N>D method: direct|doubling|halving")
	equal := flag.Bool("equal", false, "equal forward/backward cost (default: backward = 2× forward)")
	chrome := flag.String("chrome", "", "write Chrome-trace JSON to this file instead")
	svg := flag.String("svg", "", "write an SVG Gantt chart to this file instead")
	flag.Parse()

	ref := serve.ScheduleRef{Scheme: *scheme, D: *d, N: *n}
	// A non-default -f or -concat is sent too: the codec refuses it off chimera.
	if *scheme == "chimera" || *f != 1 || *concat != "direct" {
		ref.F, ref.Concat = *f, *concat
	}
	key, err := ref.Key()
	check(err)
	s, err := engine.Default().Schedule(key)
	check(err)
	cm := schedule.UnitPractical
	if *equal {
		cm = schedule.UnitEqual
	}
	if *svg != "" {
		out, err := trace.SVG(s, cm)
		check(err)
		check(os.WriteFile(*svg, []byte(out), 0o644))
		fmt.Printf("wrote %s (%d bytes)\n", *svg, len(out))
		return
	}
	if *chrome != "" {
		raw, err := trace.ChromeTrace(s, cm)
		check(err)
		check(os.WriteFile(*chrome, raw, 0o644))
		fmt.Printf("wrote %s (%d bytes); open in chrome://tracing or Perfetto\n", *chrome, len(raw))
		return
	}
	art, err := trace.ASCII(s, cm)
	check(err)
	fmt.Print(art)
	a, err := schedule.Analyze(s)
	check(err)
	fmt.Println(a)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "chimera-viz:", err)
		os.Exit(1)
	}
}
