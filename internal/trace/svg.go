package trace

import (
	"fmt"
	"strings"

	"chimera/internal/schedule"
)

// svgPalette colors ops by replica (down pipelines blue-ish, up pipelines
// red-ish, matching the paper's figures); backwards render darker.
var svgPalette = []struct{ fwd, bwd string }{
	{"#6baed6", "#2171b5"}, // down 0
	{"#fc9272", "#cb181d"}, // up 0
	{"#74c476", "#238b45"}, // down 1
	{"#fdae6b", "#d94801"}, // up 1
	{"#9e9ac8", "#54278f"}, // further pipelines cycle
	{"#fdd0a2", "#8c2d04"},
}

// SVG renders the replayed schedule as an SVG Gantt chart: one row per
// worker, one rect per op, colored by replica and pass direction, labelled
// with the micro-batch id. Suitable for embedding in documentation.
func SVG(s *schedule.Schedule, cm schedule.CostModel) (string, error) {
	r, err := s.Readout(cm.ReplayConfig())
	if err != nil {
		return "", err
	}
	tl := r.Timeline()
	defer tl.Release()
	const (
		rowH    = 28
		unitW   = 18
		leftPad = 46
		topPad  = 30
	)
	width := leftPad + int(tl.Makespan)*unitW + 10
	height := topPad + s.D*rowH + 14
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&b, `<text x="%d" y="16">%s D=%d N=%d f=%d — makespan %d, bubble %.3f</text>`+"\n",
		leftPad, s.Scheme, s.D, s.N, s.F, tl.Makespan, tl.BubbleRatio())
	for w := 0; w < s.D; w++ {
		y := topPad + w*rowH
		fmt.Fprintf(&b, `<text x="4" y="%d">P%d</text>`+"\n", y+rowH/2+4, w)
		// Row background shows idle time.
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="#f0f0f0"/>`+"\n",
			leftPad, y, int(tl.Makespan)*unitW, rowH-4)
		for i, op := range s.Workers[w] {
			x := leftPad + int(tl.Start[w][i])*unitW
			ww := int(tl.End[w][i]-tl.Start[w][i]) * unitW
			pal := svgPalette[op.Replica%len(svgPalette)]
			fill := pal.fwd
			if op.Kind == schedule.Backward {
				fill = pal.bwd
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s" stroke="#fff"/>`+"\n",
				x, y, ww, rowH-4, fill)
			label := fmt.Sprintf("%d", op.Micro())
			textFill := "#000"
			if op.Kind == schedule.Backward {
				textFill = "#fff"
			}
			fmt.Fprintf(&b, `<text x="%d" y="%d" fill="%s">%s</text>`+"\n",
				x+ww/2-3*len(label), y+rowH/2+4, textFill, label)
		}
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}
