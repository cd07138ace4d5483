package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzFleetScenarioResolve: whatever bytes decode as a scenario, none of the
// three resolvers panics; a scenario accepted as classic carries at most
// MaxFleetEvents arrivals — the bound that keeps one request's replay short;
// and a classic scenario without elastic knobs is accepted exactly when its
// elastic twin (the same arrivals sent as events) is, and then resolves the
// same cluster, jobs and policy: a trace is sugar for arrival events, so the
// two forms may not drift apart in what they refuse or plan for. Seeded
// from the example scenarios of all three forms and a trace naming an
// unknown job.
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
	f.Add([]byte(strings.Replace(fleetClassicSimBody, `"job":"big"`, `"job":"huge"`, 1)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var sc FleetScenario
		if err := DecodeStrict(bytes.NewReader(raw), &sc); err != nil {
			return
		}
		sc.ResolveElastic()
		sc.ResolveLive()
		if sc.Elastic() || sc.Replan != "" || sc.MigrationPenalty != 0 || sc.AgingTau != 0 {
			return
		}
		classic, cerr := sc.Resolve()
		twin := sc
		twin.Trace, twin.Events = nil, make([]FleetEventRef, len(sc.Trace))
		for i, ev := range sc.Trace {
			twin.Events[i] = FleetEventRef{At: ev.At, Job: ev.Job, Work: ev.Work}
		}
		elastic, eerr := twin.ResolveElastic()
		if (cerr == nil) != (eerr == nil) {
			t.Fatalf("classic and elastic forms disagree on acceptance:\nclassic: %v\nelastic: %v", cerr, eerr)
		}
		if cerr != nil {
			return
		}
		if len(classic.Trace) > MaxFleetEvents {
			t.Fatalf("accepted a classic trace of %d arrivals, limit %d", len(classic.Trace), MaxFleetEvents)
		}
		if !reflect.DeepEqual(classic.Cluster, elastic.Cluster) || !reflect.DeepEqual(classic.Jobs, elastic.Jobs) ||
			classic.Policy != elastic.Policy {
			t.Fatalf("classic and elastic forms resolve differently:\n%+v\n%+v", classic, elastic)
		}
	})
}
