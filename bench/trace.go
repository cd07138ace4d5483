package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer's exported API, recorded by the
// harness from outside that layer.
type span struct {
	Name string `json:"name"`
	// Op is the benchmark operation the span belongs to; spans of one op
	// share it (HTTP spans carry it in X-Request-Id).
	Op int32 `json:"op"`
	// Parent is the index of the span that caused this one, noParent for an
	// op's root, or inferParent when the call crossed an HTTP hop and the
	// parent is the tightest span of the same op that encloses it.
	Parent int32 `json:"parent"`
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

const (
	noParent    = -1
	inferParent = -2
)

// tracer holds spans in a preallocated slab and hands slots out with one
// atomic add, so recording from several goroutines never locks or allocates.
// A nil tracer records nothing: the untraced runs pay one nil check per call
// site.
type tracer struct {
	epoch time.Time
	spans []span
	n     atomic.Int64
	// phase picks which alternate blocks of a round's ops record spans.
	phase int
}

func newTracer(capacity, phase int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity), phase: phase}
}

// begin opens a span and returns its index; a full or nil tracer returns
// noParent, which end ignores.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return noParent
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return noParent
	}
	t.spans[i] = span{Name: name, Op: int32(op), Parent: int32(parent), Start: int64(time.Since(t.epoch))}
	return int(i)
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// traceBlock is the length of the alternating runs of traced and untraced ops
// inside a traced round. Tracing every other block, not every other round,
// puts both kinds of op in the same seconds of every round; the traced pass
// flips the phase from round to round, so every op of the sequence is met
// both with spans and without, and the tracing overhead is taken op by op.
const traceBlock = 50

// tracedOp says whether op i of a round with the given phase records spans.
func tracedOp(i, phase int) bool { return (i/traceBlock+phase)%2 == 1 }

// forOp returns the tracer for op i of a round: t itself on a traced op, nil
// (which records nothing) otherwise.
func (t *tracer) forOp(i int) *tracer {
	if t == nil || !tracedOp(i, t.phase) {
		return nil
	}
	return t
}

// add records an already-measured span.
func (t *tracer) add(s span) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// recorded returns the closed spans.
func (t *tracer) recorded() []span {
	n := min(t.n.Load(), int64(len(t.spans)))
	return t.spans[:n]
}

// dropped is how many spans did not fit the slab.
func (t *tracer) dropped() int64 { return max(t.n.Load()-int64(len(t.spans)), 0) }

// resolveParents replaces every inferParent with the tightest enclosing span
// of the same op (noParent when none encloses it).
func resolveParents(spans []span) {
	byOp := make(map[int32][]int)
	for i, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], i)
	}
	for i := range spans {
		if spans[i].Parent != inferParent {
			continue
		}
		best := noParent
		for _, j := range byOp[spans[i].Op] {
			if j == i || spans[j].Start > spans[i].Start || spans[j].End < spans[i].End {
				continue
			}
			if spans[j].Start == spans[i].Start && spans[j].End == spans[i].End && j > i {
				continue // identical intervals: the earlier record is the outer one
			}
			if best == noParent || spans[j].End-spans[j].Start < spans[best].End-spans[best].Start {
				best = j
			}
		}
		spans[i].Parent = int32(best)
	}
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its child spans cover. Children that overlap
// each other (pool workers running side by side) are counted once, and a
// child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// layerOf maps a span name to the layer it is charged to: the text before
// the first dot ("schedule.build" → "schedule").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelfShares sums self time per layer over the given spans and returns
// each layer's share of the total — where one workload's time goes. Shadow
// replays stand for the replays hidden inside perfmodel.predict spans: their
// time moves from perfmodel to schedule instead of counting on its own.
func layerSelfShares(spans []span, self []int64) map[string]float64 {
	byLayer := make(map[string]float64)
	var total float64
	for i, s := range spans {
		if s.Name == shadowReplay {
			byLayer["schedule"] += float64(s.End - s.Start)
			byLayer["perfmodel"] -= float64(s.End - s.Start)
			continue
		}
		byLayer[layerOf(s.Name)] += float64(self[i])
		total += float64(self[i])
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer
}

// spanStats groups self and total durations (µs) by span name.
type spanStats struct {
	Count  int     `json:"count"`
	SelfUS float64 `json:"self_us_p50"`
	DurUS  float64 `json:"dur_us_p50"`
	SumMS  float64 `json:"self_ms_sum"`
}

func statsByName(spans []span, self []int64) map[string]spanStats {
	selfs, durs := make(map[string][]float64), make(map[string][]float64)
	for i, s := range spans {
		selfs[s.Name] = append(selfs[s.Name], float64(self[i])/1e3)
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
	}
	out := make(map[string]spanStats, len(selfs))
	for name, v := range selfs {
		var sum float64
		for _, x := range v {
			sum += x
		}
		out[name] = spanStats{Count: len(v), SelfUS: median(v), DurUS: median(durs[name]), SumMS: sum / 1e3}
	}
	return out
}

// traceFile is what the traced pass leaves in bench/out.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Dropped  int64                `json:"dropped_spans"`
	ByName   map[string]spanStats `json:"by_name"`
	Shares   map[string]float64   `json:"layer_self_share"`
	Spans    []span               `json:"spans"`
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
