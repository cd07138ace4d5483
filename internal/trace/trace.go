// Package trace renders pipeline schedules as timelines: ASCII diagrams in
// the style of the paper's Figures 2, 3, 7 and 8, and Chrome-trace JSON for
// interactive inspection (chrome://tracing, Perfetto).
package trace

import (
	"encoding/json"
	"fmt"
	"strings"

	"chimera/internal/schedule"
)

// ASCII renders the schedule replayed under cm as one text row per worker.
// Forward slots show the micro-batch id, backward slots show it in
// parentheses-free lowercase-styled form using a distinct rune prefix:
// forwards as digits, backwards as digits preceded by '·'; idle time is '.'.
// Up-pipeline (reverse-direction) replicas render with a '˄' marker row in
// the legend instead of colors.
func ASCII(s *schedule.Schedule, cm schedule.CostModel) (string, error) {
	r, err := s.Readout(cm.ReplayConfig())
	if err != nil {
		return "", err
	}
	tl := r.Timeline()
	defer tl.Release()
	var b strings.Builder
	fmt.Fprintf(&b, "%s D=%d N=%d f=%d (1 col = %d time unit, F=digit, B='-digit', up-pipeline ops in [])\n",
		s.Scheme, s.D, s.N, s.F, 1)
	for w := 0; w < s.D; w++ {
		row := make([]string, tl.Makespan)
		for i := range row {
			row[i] = " ."
		}
		for i, op := range s.Workers[w] {
			label := fmt.Sprintf("%x", op.Micro()%16)
			if op.Kind == schedule.Backward {
				label = "-" + label
			} else {
				label = " " + label
			}
			if len(s.Replicas) > 1 && !s.Replicas[op.Replica].Down {
				label = strings.ToUpper(strings.Replace(label, " ", "[", 1))
				if op.Kind == schedule.Backward {
					label = strings.Replace(label, "-", "]", 1)
				}
			}
			for tt := tl.Start[w][i]; tt < tl.End[w][i]; tt++ {
				row[tt] = label
			}
		}
		fmt.Fprintf(&b, "P%-2d |", w)
		b.WriteString(strings.Join(row, ""))
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, "makespan=%d bubble=%.3f\n", tl.Makespan, tl.BubbleRatio())
	return b.String(), nil
}

// chromeEvent is one complete event in the Chrome trace format.
type chromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	Ts   int64  `json:"ts"`
	Dur  int64  `json:"dur"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	Args struct {
		Micro   []int  `json:"micro"`
		Stage   int    `json:"stage"`
		Replica int    `json:"replica"`
		Kind    string `json:"kind"`
	} `json:"args"`
}

// ChromeTrace renders the replayed schedule as Chrome-trace JSON; each
// worker is a thread, each op a complete event.
func ChromeTrace(s *schedule.Schedule, cm schedule.CostModel) ([]byte, error) {
	r, err := s.Readout(cm.ReplayConfig())
	if err != nil {
		return nil, err
	}
	tl := r.Timeline()
	defer tl.Release()
	var events []chromeEvent
	for w := 0; w < s.D; w++ {
		for i, op := range s.Workers[w] {
			ev := chromeEvent{
				Name: op.String(),
				Ph:   "X",
				Ts:   tl.Start[w][i],
				Dur:  tl.End[w][i] - tl.Start[w][i],
				Pid:  0,
				Tid:  w,
			}
			ev.Args.Micro = op.Micros
			ev.Args.Stage = op.Stage
			ev.Args.Replica = op.Replica
			ev.Args.Kind = op.Kind.String()
			events = append(events, ev)
		}
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events}, "", " ")
}
