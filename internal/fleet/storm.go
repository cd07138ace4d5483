package fleet

// Storm generation: seeded, reproducible churn traces for driving the live
// controller and the elastic benchmarks. A storm interleaves job arrivals
// with node failures, drains and joins, models spot vs. on-demand
// procurement on the joins, and — the part a uniform random trace cannot
// produce — correlated rack failures: a power or switch fault takes out
// every present node in one rack at the same instant, which exercises the
// same-timestamp kind ordering and the incremental re-planner's multi-node
// repair path in a single batch.
//
// The generator mirrors the simulator's node-id discipline (initial nodes
// are 0..Nodes-1, joins get sequential fresh ids) so every fail/drain it
// emits targets a node that is actually present when the event applies.
// Slot times are strictly increasing, so feeding one slot per Ingest call
// satisfies the live sim's batch-monotonicity contract.

import (
	"fmt"
	"math/rand"
)

// StormConfig parameterizes GenerateStorm. Zero values select the noted
// defaults.
type StormConfig struct {
	// Seed fixes the trace; equal configs generate equal traces.
	Seed int64
	// Jobs is the arrival vocabulary (names from the scenario's job list).
	Jobs []string
	// Nodes is the initial cluster size the trace will run against.
	Nodes int
	// Racks partitions node ids by id mod Racks (default 4).
	Racks int
	// Events is how many events to generate (≤ MaxEvents).
	Events int
	// Start and Interval space the slots (defaults 10 and 30 seconds); each
	// slot holds one event, or a whole rack's failures.
	Start, Interval float64
	// Work is the mean arrival work in sequences (default 20000), jittered
	// uniformly ±50%.
	Work float64
	// ArrivalWeight, FailWeight, DrainWeight and JoinWeight bias the slot
	// draw (defaults 0.35, 0.25, 0.15, 0.25; normalized internally).
	ArrivalWeight, FailWeight, DrainWeight, JoinWeight float64
	// RackFailure is the chance a failure cascades to the seed node's whole
	// rack (default 0.15).
	RackFailure float64
	// SpotFraction is the fraction of joins procured as spot capacity
	// (default 0.5); SpotPrice and OnDemandPrice are their price rates
	// (defaults 0.3 and 1.0). Failures prefer spot nodes 3:1 — preemptible
	// capacity is what actually gets preempted.
	SpotFraction, SpotPrice, OnDemandPrice float64
	// MinNodes floors churn: fails and drains never shrink the pool below
	// it (default 2·Quantum).
	MinNodes int
}

// stormMaxNodes is the node id past which a storm draws no joins: it shapes
// the generated traces and is not a validation limit (that is MaxNodes).
const stormMaxNodes = 512

// stormNode is the generator's shadow of one present node.
type stormNode struct {
	id   int
	spot bool
}

// GenerateStorm produces a seeded churn trace per cfg. The first event is
// always an arrival (a trace with no arrivals is invalid, and a controller
// with no residents has nothing to plan).
func GenerateStorm(cfg StormConfig) ([]Event, error) {
	if len(cfg.Jobs) == 0 {
		return nil, fmt.Errorf("fleet: storm needs a non-empty job vocabulary")
	}
	if cfg.Nodes < 2*Quantum {
		return nil, fmt.Errorf("fleet: storm needs at least %d initial nodes, got %d", 2*Quantum, cfg.Nodes)
	}
	if cfg.Events < 1 || cfg.Events > MaxEvents {
		return nil, fmt.Errorf("fleet: storm event count %d out of range [1, %d]", cfg.Events, MaxEvents)
	}
	racks := cfg.Racks
	if racks <= 0 {
		racks = 4
	}
	start, interval := cfg.Start, cfg.Interval
	if start <= 0 {
		start = 10
	}
	if interval <= 0 {
		interval = 30
	}
	work := cfg.Work
	if work <= 0 {
		work = 20000
	}
	wArr, wFail, wDrain, wJoin := cfg.ArrivalWeight, cfg.FailWeight, cfg.DrainWeight, cfg.JoinWeight
	if wArr == 0 && wFail == 0 && wDrain == 0 && wJoin == 0 {
		wArr, wFail, wDrain, wJoin = 0.35, 0.25, 0.15, 0.25
	}
	rackFail := cfg.RackFailure
	if rackFail == 0 {
		rackFail = 0.15
	}
	spotFrac := cfg.SpotFraction
	if spotFrac == 0 {
		spotFrac = 0.5
	}
	spotPrice, odPrice := cfg.SpotPrice, cfg.OnDemandPrice
	if spotPrice == 0 {
		spotPrice = 0.3
	}
	if odPrice == 0 {
		odPrice = 1.0
	}
	minNodes := cfg.MinNodes
	if minNodes <= 0 {
		minNodes = 2 * Quantum
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	present := make([]stormNode, cfg.Nodes)
	for i := range present {
		present[i] = stormNode{id: i}
	}
	nextID := cfg.Nodes
	arrivals := 0

	var out []Event
	at := start
	for slots := 0; len(out) < cfg.Events; slots++ {
		if slots > 4*cfg.Events+64 {
			// Every draw is hitting a cap (resident, node floor, node limit):
			// the config cannot produce the requested trace.
			return nil, fmt.Errorf("fleet: storm config cannot produce %d events (capped after %d slots)", cfg.Events, slots)
		}
		t := at
		at += interval
		kind := EvArrival
		if len(out) > 0 { // the first event is always an arrival
			switch x := r.Float64() * (wArr + wFail + wDrain + wJoin); {
			case x < wArr:
				kind = EvArrival
			case x < wArr+wFail:
				kind = EvNodeFail
			case x < wArr+wFail+wDrain:
				kind = EvNodeDrain
			default:
				kind = EvNodeJoin
			}
		}
		switch kind {
		case EvArrival:
			if arrivals >= MaxResident {
				continue // a slot of arrivals beyond the cap could strand residents
			}
			arrivals++
			w := work * (0.5 + r.Float64())
			out = append(out, Event{At: t, Kind: EvArrival, Job: cfg.Jobs[r.Intn(len(cfg.Jobs))], Work: float64(int(w))})
		case EvNodeFail:
			if len(present) <= minNodes {
				continue
			}
			v := pickVictim(r, present)
			if r.Float64() < rackFail {
				// Correlated failure: the whole rack goes at once, floored so
				// the pool stays viable. Victims are removed back to front so
				// the index arithmetic stays simple.
				seed := present[v].id % racks
				for i := len(present) - 1; i >= 0 && len(present) > minNodes; i-- {
					if present[i].id%racks != seed {
						continue
					}
					out = append(out, Event{At: t, Kind: EvNodeFail, Node: present[i].id})
					present = append(present[:i], present[i+1:]...)
				}
			} else {
				out = append(out, Event{At: t, Kind: EvNodeFail, Node: present[v].id})
				present = append(present[:v], present[v+1:]...)
			}
		case EvNodeDrain:
			if len(present) <= minNodes {
				continue
			}
			v := r.Intn(len(present))
			out = append(out, Event{At: t, Kind: EvNodeDrain, Node: present[v].id})
			present = append(present[:v], present[v+1:]...)
		case EvNodeJoin:
			if nextID >= stormMaxNodes {
				continue
			}
			spot := r.Float64() < spotFrac
			ev := Event{At: t, Kind: EvNodeJoin, Class: ClassOnDemand, Price: odPrice}
			if spot {
				ev.Class, ev.Price = ClassSpot, spotPrice
			}
			out = append(out, ev)
			present = append(present, stormNode{id: nextID, spot: spot})
			nextID++
		}
	}
	if len(out) > cfg.Events {
		// A rack cascade may overshoot; trimming from the tail keeps every
		// emitted fail/drain target valid (later events never free an id).
		out = out[:cfg.Events]
	}
	return out, nil
}

// pickVictim biases failures toward spot nodes 3:1 when any are present.
func pickVictim(r *rand.Rand, present []stormNode) int {
	spots := make([]int, 0, len(present))
	for i, n := range present {
		if n.spot {
			spots = append(spots, i)
		}
	}
	if len(spots) > 0 && r.Float64() < 0.75 {
		return spots[r.Intn(len(spots))]
	}
	return r.Intn(len(present))
}

// StormBatches groups a storm trace into its per-slot batches (consecutive
// runs of equal times) — the unit a live driver feeds to ElasticSim.Ingest.
func StormBatches(events []Event) [][]Event {
	var out [][]Event
	for i := 0; i < len(events); {
		j := i
		for j < len(events) && events[j].At == events[i].At {
			j++
		}
		out = append(out, events[i:j:j])
		i = j
	}
	return out
}
