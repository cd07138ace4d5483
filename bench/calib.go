package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// The sandbox's host changes speed. Over minutes, every workload here, its
// set-up included, runs up to 40 % slower and recovers, all in step: planning
// in process and HTTP over loopback alike. No statistic over one run's rounds
// sees past that, because the whole run shifts. What does see it is other
// code of the same kind run in the same seconds: the reference task below —
// standard-library Go that decodes, allocates, chases pointers and encodes,
// and contains nothing of the repository — slows by the same share as the
// workloads do (correlation 0.94–0.99 over sixteen runs of each workload,
// slope 0.7–1.35; a register-only loop or an array walk does not move at
// all, so it is not the clock frequency). The harness runs it between ops all
// through a round and divides the round's times by how slow it found the
// host, so a reported millisecond is a millisecond on a host on which the
// reference task takes calibrationRef.

// calibrationRef is the reference task's usual time on the sandbox (it reads
// 330–640 µs there, depending on the minute). It only fixes the unit: every
// run divides by it, so it cancels out of any comparison between two runs.
const calibrationRef = 480 * time.Microsecond

// calibrationGap is the timed work between two samples of the reference
// task: about forty samples a round, under 3 % of its time.
const calibrationGap = 25 * time.Millisecond

type calibrationDoc struct {
	Name   string                    `json:"name"`
	Layers int                       `json:"layers"`
	Tags   []string                  `json:"tags"`
	Vals   []float64                 `json:"vals"`
	Sub    map[string]calibrationSub `json:"sub"`
}

type calibrationSub struct {
	A int    `json:"a"`
	B string `json:"b"`
	C []int  `json:"c"`
}

var calibrationJSON = func() []byte {
	d := calibrationDoc{Name: "reference-document", Layers: 48, Tags: []string{"alpha", "beta", "gamma", "delta"}, Sub: map[string]calibrationSub{}}
	for i := 0; i < 40; i++ {
		d.Vals = append(d.Vals, float64(i)*1.37)
	}
	for i := 0; i < 12; i++ {
		d.Sub[fmt.Sprintf("k%02d", i)] = calibrationSub{A: i, B: strings.Repeat("x", i+3), C: []int{i, i + 1, i + 2, i + 3}}
	}
	raw, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return raw
}()

type calibrationNode struct {
	id   int
	next *calibrationNode
	w    [3]float64
}

// calibrationSink keeps the reference task's results alive.
var calibrationSink uint64

// referenceTask is the fixed piece of work the host's speed is read from:
// eight JSON round trips of a 1 KiB document, then 1 500 small allocations
// linked into a list and a map, 3 000 map lookups and a walk of the list. It
// returns how long it took.
func referenceTask() time.Duration {
	start := time.Now()
	var sum uint64
	for range 8 {
		var d calibrationDoc
		if err := json.Unmarshal(calibrationJSON, &d); err != nil {
			panic(err)
		}
		raw, err := json.Marshal(&d)
		if err != nil {
			panic(err)
		}
		sum += uint64(len(raw))
	}
	byID := make(map[int]*calibrationNode, 64)
	var head *calibrationNode
	for i := 0; i < 1500; i++ {
		n := &calibrationNode{id: i * 7919 % 1009, next: head}
		n.w[i%3] = float64(i)
		head = n
		byID[n.id] = n
	}
	for i := 0; i < 3000; i++ {
		if n, ok := byID[i*31%1009]; ok {
			sum += uint64(n.id)
		}
	}
	for n := head; n != nil; n = n.next {
		sum += uint64(n.w[0])
	}
	calibrationSink += sum
	return time.Since(start)
}

// hostSlowdown turns one round's samples of the reference task into how many
// times slower than the reference host the round ran. It reads the lower
// quartile, as quietTimes does and for the same reason: the host's
// interruptions only ever add time to a sample.
func hostSlowdown(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = ms64(d)
	}
	return lowerQuartile(ms) / ms64(calibrationRef)
}
