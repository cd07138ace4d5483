package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzFleetScenarioResolve: whatever bytes decode as a scenario, none of the
// three resolvers panics; a scenario accepted as classic carries at most
// MaxFleetEvents arrivals — the bound that keeps one request's replay short
// — and its elastic twin (the same arrivals sent as events), when that is
// accepted too, resolves the same cluster, jobs and policy: a trace is sugar
// for arrival events, so the two forms may not drift apart in what they
// plan for. Seeded from the example scenarios of all three forms.
func FuzzFleetScenarioResolve(f *testing.F) {
	examples, err := filepath.Glob("../../examples/fleet/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example scenarios to seed from: %v", err)
	}
	for _, path := range examples {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(fleetClassicSimBody))
	f.Add([]byte(fleetElasticBody))
	f.Add([]byte(classicTraceBody(MaxFleetEvents + 1)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var sc FleetScenario
		if err := DecodeStrict(bytes.NewReader(raw), &sc); err != nil {
			return
		}
		sc.ResolveElastic()
		sc.ResolveLive()
		classic, err := sc.Resolve()
		if err != nil {
			return
		}
		if len(classic.Trace) > MaxFleetEvents {
			t.Fatalf("accepted a classic trace of %d arrivals, limit %d", len(classic.Trace), MaxFleetEvents)
		}
		twin := sc
		twin.Trace, twin.Events = nil, make([]FleetEventRef, len(sc.Trace))
		for i, ev := range sc.Trace {
			twin.Events[i] = FleetEventRef{At: ev.At, Job: ev.Job, Work: ev.Work}
		}
		elastic, err := twin.ResolveElastic()
		if err != nil {
			return // the twin also checks each arrival (a classic trace's are checked at replay) and caps the pool
		}
		if !reflect.DeepEqual(classic.Cluster, elastic.Cluster) || !reflect.DeepEqual(classic.Jobs, elastic.Jobs) ||
			classic.Policy != elastic.Policy {
			t.Fatalf("classic and elastic forms resolve differently:\n%+v\n%+v", classic, elastic)
		}
	})
}
