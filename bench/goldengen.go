package main

import (
	"encoding/json"
	"fmt"

	"chimera/internal/controller"
	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/perfmodel"
	"chimera/internal/serve"
)

// updateGoldens recomputes every committed expectation through a path that
// shares no cache, pool or replay core with the systems the workloads
// measure, and rewrites the files under golden/.
func updateGoldens() error {
	cases, err := generatePlanCases()
	if err != nil {
		return err
	}
	logf("plan: %d cases", len(cases))
	if err := writeJSONFile("golden/plan.json", planGolden{Cases: cases}); err != nil {
		return err
	}
	zipf, err := generateZipfGolden()
	if err != nil {
		return err
	}
	if err := writeJSONFile("golden/zipf.json", zipf); err != nil {
		return err
	}
	storm, err := generateStormGolden()
	if err != nil {
		return err
	}
	return writeJSONFile("golden/storm.json", storm)
}

// generateStormGolden derives every timed storm op's expected reply without a
// controller: the allocation after batch b is the final allocation of the
// batch simulator replaying batches 1..b as a recorded trace (plus the
// hypothesis, for a what-if) on a serial reference engine — the replay
// identity the controller documents as its correctness anchor.
func generateStormGolden() (stormGolden, error) {
	sc, err := loadStormScenario()
	if err != nil {
		return stormGolden{}, err
	}
	esc, err := sc.ResolveLive()
	if err != nil {
		return stormGolden{}, err
	}
	alloc := fleet.NewAllocator(engine.New(engine.Workers(1), engine.ReferenceCore()))
	var g stormGolden
	for i := 0; i < stormEpisodes; i++ {
		ep, err := buildEpisode(sc, i)
		if err != nil {
			return g, err
		}
		eg := stormEpisodeGolden{Seed: ep.seed}
		var residents float64
		for _, op := range ep.timed {
			var trace []fleet.Event
			for _, batch := range ep.batches[:op.batch] {
				trace = append(trace, batch...)
			}
			if op.whatIf {
				trace = append(trace, op.events...)
			}
			esc.Events = trace
			res, err := alloc.SimulateElastic(esc)
			if err != nil {
				return g, fmt.Errorf("episode %d batch %d: %w", i, op.batch, err)
			}
			shares := serve.NewFleetFinalShares(res.Final)
			now := trace[len(trace)-1].At
			var reply any
			if op.whatIf {
				reply = controller.WhatIfResponse{
					BaseVersion: uint64(op.batch), Now: now,
					Nodes: res.FinalNodes, Residents: len(shares), Allocation: shares,
				}
			} else {
				reply = controller.EventsResponse{
					Accepted: len(op.events), Version: uint64(op.batch), Now: now,
					Nodes: res.FinalNodes, Residents: len(shares), Allocation: shares,
				}
				residents += float64(len(shares))
			}
			raw, err := json.Marshal(reply)
			if err != nil {
				return g, err
			}
			eg.Digests = append(eg.Digests, stormDigest(raw))
		}
		logf("storm: episode %d: %d batches, %d timed ops, mean residents %.1f", i, len(ep.batches), len(ep.timed), residents/float64(len(ep.batches)-len(ep.prime)))
		g.Episodes = append(g.Episodes, eg)
	}
	return g, nil
}

// generateZipfGolden plans every tenant's problem on the reference engine and
// digests the body the serve tier must answer with.
func generateZipfGolden() (zipfGolden, error) {
	ref := engine.New(engine.Workers(1), engine.ReferenceCore())
	var g zipfGolden
	for k := 0; k < zipfTenants; k++ {
		req, err := tenantRequest(k).Resolve()
		if err != nil {
			return g, err
		}
		preds, err := perfmodel.PlanOn(ref, req)
		if err != nil {
			return g, fmt.Errorf("tenant %d: %w", k, err)
		}
		g.Digests = append(g.Digests, planDigest(req, preds))
	}
	return g, nil
}

// generatePlanCases plans the whole candidate grid on a serial engine running
// the retained reference interpreter, tallies each feasible case's work
// through the traced planner, and keeps the homogeneous ones.
func generatePlanCases() ([]planCase, error) {
	ref := engine.New(engine.Workers(1), engine.ReferenceCore())
	tally := engine.New(engine.Workers(1))
	var all []planCase
	for _, wire := range planGrid() {
		req, err := wire.Resolve()
		if err != nil {
			return nil, err
		}
		ref.Reset()
		preds, err := perfmodel.PlanOn(ref, req)
		if err != nil {
			continue // infeasible on this platform: not a benchmark case
		}
		tally.Reset()
		_, work, err := planTraced(nil, 0, tally, req, true)
		if err != nil {
			return nil, fmt.Errorf("traced planner disagrees with PlanOn on feasibility: %w", err)
		}
		all = append(all, planCase{
			ID:      fmt.Sprintf("%s-p%d-b%d-%s", wire.Model.Name, wire.P, wire.MiniBatch, wire.Platform.Preset),
			Request: wire, Digest: planDigest(req, preds),
			VisitedOps: work.visitedOps, ChosenOps: work.chosenOps,
			resolved: req,
		})
	}
	logf("plan: %d feasible of %d candidates", len(all), len(planGrid()))
	return homogeneous(all), nil
}
