package engine

import (
	"reflect"
	"strings"
	"testing"

	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

func testSpec(d, n int) Spec {
	return Spec{
		Sched:         ChimeraKey(d, n, 1, schedule.Direct),
		Model:         model.BERT48(),
		MicroBatch:    1,
		W:             1,
		AutoRecompute: true,
		Device:        sim.PizDaintNode(),
		Network:       sim.AriesNetwork(),
	}
}

// TestObserveRecordsEngineSeries: an instrumented engine populates the
// engine_ series — evaluate on miss, wait on hit, sweep and worker
// counters from ForEach, cache counters read through to the memo tables.
func TestObserveRecordsEngineSeries(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Workers(2), Observe(reg))
	spec := testSpec(4, 8)

	if out := e.Evaluate(spec); out.Err != nil {
		t.Fatal(out.Err)
	}
	e.Evaluate(spec) // hit
	e.Sweep([]Spec{testSpec(4, 12), testSpec(4, 16)})
	// No probes: both are closed-form, so they build no schedule.
	if _, _, err := e.CriticalPath(ChimeraKey(4, 16, 1, schedule.Direct)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.CriticalPath(ChimeraKey(4, 8, 1, schedule.Direct)); err != nil {
		t.Fatal(err)
	}
	// The graph of a schedule the evaluation above built: a schedule hit.
	if _, err := e.Graph(ChimeraKey(4, 8, 1, schedule.Direct)); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Histograms["engine_evaluate_seconds"].Count; got != 3 {
		t.Fatalf("evaluate count = %d, want 3 (one per distinct spec)", got)
	}
	if got := snap.Histograms["engine_memo_wait_seconds"].Count; got != 1 {
		t.Fatalf("wait count = %d, want 1 (the repeated spec)", got)
	}
	if got := snap.Histograms["engine_sweep_seconds"].Count; got != 1 {
		t.Fatalf("sweep count = %d, want 1", got)
	}
	if got := snap.Counters[`engine_cache_hits_total{table="outcomes"}`]; got != 1 {
		t.Fatalf("outcome cache hits = %d, want 1", got)
	}
	if got := snap.Counters[`engine_cache_misses_total{table="outcomes"}`]; got != 3 {
		t.Fatalf("outcome cache misses = %d, want 3", got)
	}
	if got := snap.Counters[`engine_cache_hits_total{table="schedules"}`]; got != 1 {
		t.Fatalf("schedule cache hits = %d, want 1 (the Graph call)", got)
	}
	if got := snap.Counters[`engine_cache_misses_total{table="schedules"}`]; got != 3 {
		t.Fatalf("schedule cache misses = %d, want 3 (one per evaluated schedule)", got)
	}
	var busy uint64
	for k, v := range snap.Counters {
		if len(k) > len("engine_worker_busy") && k[:len("engine_worker_busy")] == "engine_worker_busy" {
			busy += v
		}
	}
	if busy == 0 {
		t.Fatal("no worker busy time recorded after a sweep")
	}
	if snap.Gauges[`engine_cache_entries{table="outcomes"}`] != 3 {
		t.Fatalf("outcome entries gauge = %g, want 3", snap.Gauges[`engine_cache_entries{table="outcomes"}`])
	}
	// The free regions and residency profiles are closed-form or read off
	// a built schedule, never a table, and every replay is the full
	// schedule's: no such series.
	for series := range snap.Counters {
		if strings.Contains(series, `table="freeregions"`) || strings.Contains(series, `table="residencies"`) ||
			strings.HasPrefix(series, "engine_replays_total") {
			t.Fatalf("%s is still published", series)
		}
	}
	if r := snap.Gauges["engine_cache_hit_ratio"]; r <= 0 || r >= 1 {
		t.Fatalf("hit ratio = %g, want in (0, 1)", r)
	}
}

// TestObserveOutputsIdentical: instrumentation must not perturb results —
// the same sweep on an instrumented and a plain engine returns deeply equal
// outcomes, and the same critical paths served the same way (closed-form,
// so neither engine builds a schedule beyond the sweep's). This is the unit-level half of the CI
// byte-identical gate.
func TestObserveOutputsIdentical(t *testing.T) {
	specs := []Spec{testSpec(2, 4), testSpec(4, 8), testSpec(4, 4)}
	pe, ie := New(Workers(1)), New(Workers(1), Observe(obs.NewRegistry()))
	plain, instr := pe.Sweep(specs), ie.Sweep(specs)
	for _, n := range []int{8, 16, 19} {
		key := ChimeraKey(4, n, 1, schedule.Direct)
		pcf, pcb, perr := pe.CriticalPath(key)
		icf, icb, ierr := ie.CriticalPath(key)
		if perr != nil || ierr != nil || pcf != icf || pcb != icb {
			t.Fatalf("N=%d: critical path (%d, %d, %v) plain, (%d, %d, %v) instrumented", n, pcf, pcb, perr, icf, icb, ierr)
		}
	}
	if p, i := pe.Stats(), ie.Stats(); p != i || p.ScheduleMisses != uint64(len(specs)) {
		t.Fatalf("stats differ or closed-form critical paths built schedules:\nplain %+v\ninstr %+v", p, i)
	}
	for i := range specs {
		if plain[i].Err != nil || instr[i].Err != nil {
			t.Fatalf("spec %d errored: %v / %v", i, plain[i].Err, instr[i].Err)
		}
		if !reflect.DeepEqual(plain[i].Result, instr[i].Result) {
			t.Fatalf("spec %d: instrumented result differs from plain", i)
		}
	}
}

// TestObserveNilRegistry: Observe(nil) leaves the engine uninstrumented and
// fully functional.
func TestObserveNilRegistry(t *testing.T) {
	e := New(Observe(nil))
	if e.met != nil {
		t.Fatal("nil registry produced metric handles")
	}
	if out := e.Evaluate(testSpec(2, 4)); out.Err != nil {
		t.Fatal(out.Err)
	}
}
