// Package schedule implements the paper's primary contribution: pipeline
// schedule construction for Chimera's bidirectional pipelines and for the
// baselines it is evaluated against (GPipe, DAPPLE/1F1B, GEMS, PipeDream,
// PipeDream-2BW).
//
// A Schedule is, per worker, an ordered list of forward/backward operations.
// Timing is *derived*, not stored: executing the per-worker lists in order
// under data dependencies yields start/finish times for any cost model. This
// mirrors how a real pipeline executes: each worker simply runs its local
// program and blocks on receives. The dependency structure is compiled once
// per schedule into a Graph IR (graph.go); Replay/ReplayWith (timeline.go)
// are a single topological pass over it.
package schedule

import (
	"fmt"
	"sync"
)

// Kind distinguishes forward from backward passes.
type Kind uint8

const (
	// Forward is a forward pass of one (or two, under forward doubling)
	// micro-batches through one stage.
	Forward Kind = iota
	// Backward is a backward pass (gradient computation) through one stage.
	Backward
)

func (k Kind) String() string {
	if k == Forward {
		return "F"
	}
	return "B"
}

// Op is one unit of work on one worker. Kind, Half and prio share the first
// word, which keeps an Op at 48 bytes (TestOpSize): a schedule is one array
// of these, built on every cold plan and retained by every memoized one.
type Op struct {
	Kind Kind
	// Half distinguishes the two half-micro-batch backward passes of the
	// backward-halving variant: 0 for a full pass, 1 or 2 for halves.
	Half uint8
	// prio is the idealized unit-cost start slot used to order ops within a
	// worker during construction. It is not a scheduled time.
	prio int32

	Stage   int   // pipeline stage index in [0, D)
	Replica int   // model replica executing this op
	Micros  []int // micro-batch ids covered (len 1, or 2 under forward doubling)
}

// Micro returns the first covered micro-batch id.
func (o Op) Micro() int { return o.Micros[0] }

func (o Op) String() string {
	if len(o.Micros) == 1 {
		return fmt.Sprintf("%s%d@s%d/r%d", o.Kind, o.Micros[0], o.Stage, o.Replica)
	}
	return fmt.Sprintf("%s%v@s%d/r%d", o.Kind, o.Micros, o.Stage, o.Replica)
}

// ReplicaMap describes where one model replica's stages live.
type ReplicaMap struct {
	// Down reports the pipeline direction: true if stage0 maps to the lowest
	// worker of the replica's rotation (a "down" pipeline in the paper).
	Down bool
	// WorkerOf[s] is the worker hosting stage s of this replica.
	WorkerOf []int
}

// Schedule is a complete per-iteration pipeline program for D workers.
type Schedule struct {
	// Scheme names the generator ("chimera", "gpipe", "dapple", "gems",
	// "pipedream", "pipedream-2bw").
	Scheme string
	// D is the number of pipeline stages (= workers in one pipeline).
	D int
	// N is the number of micro-batches each worker executes per iteration.
	N int
	// F is the number of pipelines per direction (Chimera's f; 1 elsewhere).
	F int
	// Workers[w] is the ordered op list for worker w.
	Workers [][]Op
	// Replicas maps each model replica to its stage→worker placement.
	Replicas []ReplicaMap
	// Synchronous reports whether the schedule flushes each iteration
	// (gradients synchronized before the optimizer step; no stale weights).
	Synchronous bool
	// DoubledForward marks the forward-doubling variant (§3.5): forward ops
	// carry two micro-batches, at double activation cost.
	DoubledForward bool
	// HalvedBackward marks the backward-halving variant (§3.5): the op
	// structure equals forward doubling, but micro-batches are half size, so
	// a forward op costs Ft(B) and a backward op costs ≈Bt(B)/2.
	HalvedBackward bool
	// MicroReplica[m] is the replica that owns micro-batch m.
	MicroReplica []int
	// Scheduler names the placement policy that produced this schedule
	// ("" or "fixed" for a scheme's own hand-derived placement; "heft",
	// "cpop", "lb" for re-shaped heterogeneous placements — scheduler.go).
	Scheduler string
	// PlacementSpeed holds the per-worker speed factors a list scheduler
	// placed against (nil for fixed placement). Informational: replay cost
	// models apply their own factors.
	PlacementSpeed []float64

	// Compiled dependency-graph IR, built lazily once per schedule (see
	// graph.go). Generators finish all mutation before returning, so the
	// cache is safe to share across concurrent replays. Schedules must not
	// be copied by value after first replay.
	compileOnce sync.Once
	compiled    *Graph
	compileErr  error

	// Activation-residency profile, built lazily once per schedule under the
	// same immutability contract (see residency.go).
	residencyOnce sync.Once
	residency     *Residency
}

// ReplicasPerWorker returns how many model replicas have a stage on each
// worker (uniform for all schemes here: one per pipeline crossing it).
func (s *Schedule) ReplicasPerWorker() int {
	if len(s.Replicas) == 0 {
		return 1
	}
	return len(s.Replicas)
}

// StagesOn returns the (replica, stage) pairs hosted by worker w.
func (s *Schedule) StagesOn(w int) []StagePlacement {
	var out []StagePlacement
	for r, rm := range s.Replicas {
		for st, ww := range rm.WorkerOf {
			if ww == w {
				out = append(out, StagePlacement{Replica: r, Stage: st})
			}
		}
	}
	return out
}

// StagePlacement identifies one stage of one replica.
type StagePlacement struct {
	Replica int
	Stage   int
}

// OpsTotal returns the total op count.
func (s *Schedule) OpsTotal() int {
	n := 0
	for _, ops := range s.Workers {
		n += len(ops)
	}
	return n
}

// downMap builds the stage→worker map for down pipeline index i of f: stage
// s lives on worker (i·D/f + s) mod D.
func downMap(d, f, i int) ReplicaMap {
	m := ReplicaMap{Down: true, WorkerOf: make([]int, d)}
	base := i * d / f
	for s := 0; s < d; s++ {
		m.WorkerOf[s] = (base + s) % d
	}
	return m
}

// upMap is the reverse placement of downMap (paper §3.6).
func upMap(d, f, i int) ReplicaMap {
	m := ReplicaMap{Down: false, WorkerOf: make([]int, d)}
	base := i * d / f
	for s := 0; s < d; s++ {
		m.WorkerOf[s] = (base + (d - 1 - s)) % d
	}
	return m
}
