package fleet

// The search this package ran before plan curves, kept verbatim as test-only
// oracles: prefixValues re-asks the plan memo for every prefix of a freshly
// concatenated node list, greedyGrow rescans every job over the whole
// remaining pool each round, extendRunning and preemptForStarved rescan per
// candidate and rebuild the free list (through a map) as they go. The
// equivalence tests below drive them through the same ElasticSim state
// machine as the curve-based search (ElasticSim.replanWith) and require
// identical results after every batch — any hoist in the new search that
// keeps something a move should have invalidated, resumes a scan from the
// wrong state, or drops an evaluation count shows up as a diff.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

func (a *Allocator) oraclePlanBest(c Cluster, j Job, p int) (*perfmodel.Prediction, error) {
	out := a.plan(perfmodel.PlanRequest{
		Model: j.Model, P: p, MiniBatch: j.MiniBatch, MaxB: j.MaxB,
		Device: c.Device, Network: c.Network,
	})
	return out.pred, out.err
}

func (a *Allocator) oraclePlanList(c Cluster, j Job, factors []float64) (*perfmodel.Prediction, error) {
	out := a.plan(perfmodel.PlanRequest{
		Model: j.Model, P: len(factors), MiniBatch: j.MiniBatch, MaxB: j.MaxB,
		Device: c.Device, Network: c.Network,
		SpeedFactors: sim.EncodeSpeedFactors(factors),
		Scheduler:    c.Scheduler,
	})
	return out.pred, out.err
}

// oraclePrefixValues returns, for every even prefix length m of nodes, the
// best jobValue achievable within the first m nodes. Index by prefix length;
// odd entries are unused.
func (a *Allocator) oraclePrefixValues(c Cluster, j Job, nodes []node) ([]jobValue, error) {
	vals := make([]jobValue, len(nodes)+1)
	factors := make([]float64, len(nodes))
	for i, n := range nodes {
		factors[i] = n.Factor
	}
	var best jobValue
	maxFactor := 0.0
	for q := Quantum; q <= len(nodes); q += Quantum {
		for _, n := range nodes[q-Quantum : q] {
			if n.Factor > maxFactor {
				maxFactor = n.Factor
			}
		}
		if j.MaxNodes > 0 && q > j.MaxNodes {
			vals[q] = best
			continue
		}
		pred, err := a.oraclePlanBest(c, j, q)
		if err != nil {
			return nil, err
		}
		if pred != nil {
			if tp := pred.Throughput / maxFactor; best.pred == nil || tp > best.tp {
				best = jobValue{pred: pred, used: q, factor: maxFactor, tp: tp}
			}
		}
		if c.Scheduler != "" && !schedule.UniformSpeed(factors[:q]) {
			hp, err := a.oraclePlanList(c, j, factors[:q])
			if err != nil {
				return nil, err
			}
			if hp != nil && (best.pred == nil || hp.Throughput > best.tp) {
				best = jobValue{pred: hp, used: q, factor: 1, tp: hp.Throughput}
			}
		}
		vals[q] = best
	}
	return vals, nil
}

func (a *Allocator) oracleJobValue(c Cluster, j Job, nodes []node) (jobValue, error) {
	vals, err := a.oraclePrefixValues(c, j, nodes)
	if err != nil {
		return jobValue{}, err
	}
	return vals[len(nodes)/Quantum*Quantum], nil
}

func (a *Allocator) oracleGreedyGrow(c Cluster, jobs []Job, shares [][]node, rest []node, evals *int) ([][]node, []node, error) {
	type jobEval struct {
		vals []jobValue
		err  error
	}
	evaled := make([]jobEval, len(jobs))
	for len(rest) >= Quantum {
		a.eng.ForEach(len(jobs), func(i int) {
			vals, err := a.oraclePrefixValues(c, jobs[i], withNodes(shares[i], rest))
			evaled[i] = jobEval{vals: vals, err: err}
		})
		bestJob, bestK, bestRate := -1, 0, 0.0
		for i, j := range jobs {
			if evaled[i].err != nil {
				return nil, nil, evaled[i].err
			}
			if evals != nil {
				*evals++
			}
			vals := evaled[i].vals
			base := len(shares[i]) / Quantum * Quantum
			cur := vals[base].tp
			for k := 1; k*Quantum <= len(rest); k++ {
				gain := j.priority() * (vals[base+k*Quantum].tp - cur)
				if gain <= 0 {
					continue
				}
				if rate := gain / float64(k); rate > bestRate {
					bestJob, bestK, bestRate = i, k, rate
				}
			}
		}
		if bestJob < 0 {
			break
		}
		shares[bestJob] = withNodes(shares[bestJob], rest[:bestK*Quantum])
		rest = rest[bestK*Quantum:]
	}
	return shares, rest, nil
}

// oracleAllocate is Allocate over the oracle search.
func (a *Allocator) oracleAllocate(req Request) (*Allocation, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	pool := sortedPool(req.Cluster)
	var shares [][]node
	switch req.policy() {
	case EqualSplit:
		shares = equalSplit(pool, len(req.Jobs))
	case PlannerGuided:
		var err error
		shares, _, err = a.oracleGreedyGrow(req.Cluster, req.Jobs, make([][]node, len(req.Jobs)), pool[:len(pool)/Quantum*Quantum], nil)
		if err != nil {
			return nil, err
		}
	}
	out := &Allocation{Policy: req.policy(), Nodes: req.Cluster.Nodes, Jobs: make([]JobAllocation, len(req.Jobs))}
	for i, j := range req.Jobs {
		v, err := a.oracleJobValue(req.Cluster, j, shares[i])
		if err != nil {
			return nil, err
		}
		ja := JobAllocation{
			Job: j.Name, Priority: j.priority(),
			Nodes: len(shares[i]), NodeIDs: nodeIDs(shares[i]),
			StragglerFactor: 1,
		}
		if v.pred != nil {
			ja.Plan, ja.NodesUsed = v.pred, v.used
			ja.StragglerFactor = v.factor
			ja.Scheduler = v.pred.Scheduler
			ja.Throughput = v.tp
			ja.Weighted = j.priority() * v.tp
		}
		out.Jobs[i] = ja
		out.NodesAllocated += ja.Nodes
		out.NodesUsed += ja.NodesUsed
		out.WeightedThroughput += ja.Weighted
	}
	return out, nil
}

func oracleFreeNodes(present []node, active []*einstance) []node {
	assigned := make(map[int]bool)
	for _, in := range active {
		for _, n := range in.share {
			assigned[n.ID] = true
		}
	}
	free := make([]node, 0, len(present))
	for _, n := range present {
		if !assigned[n.ID] {
			free = append(free, n)
		}
	}
	return free
}

func (a *Allocator) oracleApplyShare(sc ElasticScenario, in *einstance, share []node) error {
	v, err := a.oracleJobValue(sc.Cluster, in.job, share)
	if err != nil {
		return err
	}
	if v.pred == nil {
		in.share = nil
		in.plan, in.rate, in.factor = nil, 0, 1
		return nil
	}
	in.share = share[:v.used:v.used]
	in.plan, in.rate, in.factor = v.pred, v.tp, v.factor
	return nil
}

// oracleReplan is the ElasticSim.replanWith hook: the pre-curve re-planners
// over the sim's state.
func oracleReplan(s *ElasticSim, full bool) error {
	if full {
		return s.a.oracleReplanFull(s.sc, s.res, s.active, s.present, s.now, s.tau)
	}
	return s.a.oracleReplanIncremental(s.sc, s.res, s.active, s.present, s.now, s.tau)
}

func (a *Allocator) oracleReplanFull(sc ElasticScenario, res *ElasticResult, active []*einstance,
	present []node, now, tau float64) error {
	jobs := make([]Job, len(active))
	for i, in := range active {
		jobs[i] = in.job
		jobs[i].Priority = in.effPriority(now, tau)
	}
	pool := present[:len(present)/Quantum*Quantum]
	var shares [][]node
	if res.Policy == EqualSplit {
		shares = equalSplit(pool, len(jobs))
		for i := range shares {
			shares[i] = append([]node(nil), shares[i]...)
		}
		res.JobsEvaluated += len(jobs)
	} else {
		var err error
		shares, _, err = a.oracleGreedyGrow(sc.Cluster, jobs, make([][]node, len(jobs)), pool, &res.JobsEvaluated)
		if err != nil {
			return err
		}
	}
	for i, in := range active {
		if err := a.oracleApplyShare(sc, in, shares[i]); err != nil {
			return err
		}
	}
	return nil
}

func (a *Allocator) oracleReplanIncremental(sc ElasticScenario, res *ElasticResult, active []*einstance,
	present []node, now, tau float64) error {
	var needy []*einstance
	for _, in := range active {
		if in.needy || in.rate <= 0 {
			needy = append(needy, in)
		}
	}
	if len(needy) > 0 {
		jobs := make([]Job, len(needy))
		bases := make([][]node, len(needy))
		for i, in := range needy {
			jobs[i] = in.job
			jobs[i].Priority = in.effPriority(now, tau)
			bases[i] = in.share
		}
		free := oracleFreeNodes(present, active)
		shares, _, err := a.oracleGreedyGrow(sc.Cluster, jobs, bases, free, &res.JobsEvaluated)
		if err != nil {
			return err
		}
		for i, in := range needy {
			if err := a.oracleApplyShare(sc, in, shares[i]); err != nil {
				return err
			}
		}
	}
	if err := a.oracleExtendRunning(sc, res, active, present); err != nil {
		return err
	}
	return a.oraclePreemptForStarved(sc, res, active, present, now, tau)
}

func (a *Allocator) oracleExtendRunning(sc ElasticScenario, res *ElasticResult, active []*einstance, present []node) error {
	free := oracleFreeNodes(present, active)
	if len(free) < Quantum {
		return nil
	}
	for _, in := range active {
		if in.rate <= 0 || len(free) < Quantum {
			continue
		}
		vals, err := a.oraclePrefixValues(sc.Cluster, in.job, withNodes(in.share, free))
		if err != nil {
			return err
		}
		res.JobsEvaluated++
		bestK, bestNet := 0, 0.0
		for k := 1; k*Quantum <= len(free); k++ {
			v := vals[len(in.share)+k*Quantum]
			if v.tp <= in.rate {
				continue
			}
			pen := sc.MigrationPenalty * float64(in.plan.D) / 2
			net := (v.tp-in.rate)*(in.remaining/v.tp) - pen*v.tp
			if net > bestNet {
				bestK, bestNet = k, net
			}
		}
		if bestK == 0 {
			continue
		}
		if err := a.oracleApplyShare(sc, in, withNodes(in.share, free[:bestK*Quantum])); err != nil {
			return err
		}
		free = oracleFreeNodes(present, active)
	}
	return nil
}

func (a *Allocator) oraclePreemptForStarved(sc ElasticScenario, res *ElasticResult, active []*einstance,
	present []node, now, tau float64) error {
	for _, s := range active {
		if s.rate > 0 {
			continue
		}
		free := oracleFreeNodes(present, active)
		effS := s.effPriority(now, tau)
		type move struct {
			donor *einstance
			k     int
			net   float64
			share []node
		}
		var best *move
		for _, d := range active {
			if d == s || d.rate <= 0 || len(d.share) < Quantum {
				continue
			}
			dVals, err := a.oraclePrefixValues(sc.Cluster, d.job, d.share)
			if err != nil {
				return err
			}
			res.JobsEvaluated++
			effD := d.effPriority(now, tau)
			for k := 1; k*Quantum <= len(d.share); k++ {
				keep := len(d.share) - k*Quantum
				released := d.share[keep:]
				cand := withNodes(withNodes(s.share, free), released)
				sv, err := a.oracleJobValue(sc.Cluster, s.job, cand)
				if err != nil {
					return err
				}
				res.JobsEvaluated++
				if sv.pred == nil {
					continue
				}
				net := effS*sv.tp - effD*(d.rate-dVals[keep].tp)
				if net <= 0 {
					continue
				}
				if best == nil || net > best.net {
					best = &move{donor: d, k: k, net: net, share: cand}
				}
			}
		}
		if best == nil {
			continue
		}
		keep := len(best.donor.share) - best.k*Quantum
		if err := a.oracleApplyShare(sc, best.donor, best.donor.share[:keep:keep]); err != nil {
			return err
		}
		if err := a.oracleApplyShare(sc, s, best.share); err != nil {
			return err
		}
	}
	return nil
}

// oracleStorm is one equivalence case: a live scenario and the batches to
// feed it.
type oracleStorm struct {
	name    string
	sc      ElasticScenario
	batches [][]Event
}

// stormBatches generates a seeded storm for sc with the bench workload's
// weights. A factor range [lo, hi] with hi > 0 writes a seeded Factor onto
// every node_join, so joiners land in the middle of the fastest-first pool
// and a surviving share + free pool is not sorted by speed.
func stormBatches(tb testing.TB, sc ElasticScenario, seed int64, events int, work, lo, hi float64) [][]Event {
	tb.Helper()
	names := make([]string, len(sc.Jobs))
	for k, j := range sc.Jobs {
		names[k] = j.Name
	}
	storm, err := GenerateStorm(StormConfig{
		Seed: seed, Jobs: names, Nodes: sc.Cluster.Nodes, Racks: 16,
		Events: events, Interval: 30, Work: work,
		ArrivalWeight: 0.30, FailWeight: 0.17, DrainWeight: 0.08, JoinWeight: 0.45,
		RackFailure: 0.2, MinNodes: sc.Cluster.Nodes / 2,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if hi > 0 {
		r := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := range storm {
			if storm[i].Kind == EvNodeJoin {
				storm[i].Factor = float64(int((lo+r.Float64()*(hi-lo))*100)) / 100
			}
		}
	}
	return StormBatches(storm)
}

// mixedFactors is a seeded per-node factor list in [0.8, 2.0] with repeats,
// so the initial pool has runs of equal speed and distinct speeds both.
func mixedFactors(n int, seed int64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = 0.8 + 0.2*float64(r.Intn(7))
	}
	return out
}

// checkAgainstOracle feeds the batches to two live sims on one allocator —
// the curve-based search and the oracle — and requires the whole result and
// the allocation in effect to agree after every batch.
func checkAgainstOracle(t *testing.T, a *Allocator, c oracleStorm) {
	t.Helper()
	got, err := a.NewElasticSim(c.sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.NewElasticSim(c.sc)
	if err != nil {
		t.Fatal(err)
	}
	want.replanWith = oracleReplan
	for b, batch := range c.batches {
		if err := got.Ingest(batch); err != nil {
			t.Fatalf("%s: batch %d: %v", c.name, b, err)
		}
		if err := want.Ingest(batch); err != nil {
			t.Fatalf("%s: batch %d (oracle): %v", c.name, b, err)
		}
		gs, ws := got.Snapshot(), want.Snapshot()
		if !reflect.DeepEqual(gs, ws) {
			t.Fatalf("%s: result differs from the oracle after batch %d (t=%g):\n got evaluated %d, realloc %d, migrations %d, penalty %g, final %+v\nwant evaluated %d, realloc %d, migrations %d, penalty %g, final %+v",
				c.name, b, batch[0].At,
				gs.JobsEvaluated, gs.Reallocations, gs.Migrations, gs.PenaltySeconds, gs.Final,
				ws.JobsEvaluated, ws.Reallocations, ws.Migrations, ws.PenaltySeconds, ws.Final)
		}
		if !reflect.DeepEqual(got.Shares(), want.Shares()) {
			t.Fatalf("%s: shares differ from the oracle after batch %d", c.name, b)
		}
		// Node identity too: Final carries counts only.
		for i, in := range got.active {
			if !reflect.DeepEqual(nodeIDs(in.share), nodeIDs(want.active[i].share)) {
				t.Fatalf("%s: instance %d holds nodes %v, oracle %v after batch %d",
					c.name, in.trace, nodeIDs(in.share), nodeIDs(want.active[i].share), b)
			}
		}
	}
	if got.res.Reallocations == 0 || got.res.JobsEvaluated == 0 {
		t.Fatalf("%s: storm re-planned nothing", c.name)
	}
}

// TestReplanMatchesOracleStorms: the bench workload's storms on its scarce
// 96-node scenario and on an ample pool, homogeneous and with mixed node
// speeds (initial factors and factored joins), across re-plan modes and
// migration penalties.
func TestReplanMatchesOracleStorms(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	var cases []oracleStorm
	// -short (the race sweep's setting: these tests are single-threaded, the
	// detector has nothing to find in them) keeps two seeds of 80 events.
	seeds, events := int64(4), 200
	if testing.Short() {
		seeds, events = 2, 80
	}
	for seed := int64(1000); seed < 1000+seeds; seed++ {
		penalty := float64(10 * (seed % 2)) // both 0 and 10 on every pool shape

		scarce := stormScenario()
		scarce.MigrationPenalty = penalty
		cases = append(cases, oracleStorm{
			name: fmt.Sprintf("scarce/seed%d/penalty%g", seed, penalty), sc: scarce,
			batches: stormBatches(t, scarce, seed, events, 1e6, 0, 0),
		})

		// Ample: short jobs on a large pool, so instances depart, free nodes
		// exist at most re-plans and extendRunning has something to offer.
		ample := stormScenario()
		ample.Cluster = pizDaintCluster(240, nil)
		ample.MigrationPenalty = penalty
		cases = append(cases, oracleStorm{
			name: fmt.Sprintf("ample/seed%d/penalty%g", seed, penalty), sc: ample,
			batches: stormBatches(t, ample, seed, events, 2e5, 0, 0),
		})

		// Mixed speeds: share + free is not fastest-first, so a resumed scan
		// must carry the running maximum factor, not read the last node's.
		hetero := stormScenario()
		hetero.Cluster = pizDaintCluster(96, mixedFactors(96, seed))
		hetero.MigrationPenalty = penalty
		cases = append(cases, oracleStorm{
			name: fmt.Sprintf("hetero-scarce/seed%d/penalty%g", seed, penalty), sc: hetero,
			batches: stormBatches(t, hetero, seed, events, 1e6, 0.8, 2.0),
		})
		heteroAmple := stormScenario()
		heteroAmple.Cluster = pizDaintCluster(200, mixedFactors(200, seed+7))
		heteroAmple.MigrationPenalty = penalty
		cases = append(cases, oracleStorm{
			name: fmt.Sprintf("hetero-ample/seed%d/penalty%g", seed, penalty), sc: heteroAmple,
			batches: stormBatches(t, heteroAmple, seed, events, 3e5, 0.8, 2.0),
		})
	}
	for _, c := range cases {
		checkAgainstOracle(t, a, c)
	}
}

// smallMix is a four-job vocabulary small enough for the oracle's full
// re-plan and for list-scheduled bids: one uncapped job, caps of 4, 6 and 8.
func smallMix() []Job {
	return []Job{
		{Name: "open", Model: model.BERT48(), MiniBatch: 64, Priority: 2},
		{Name: "cap4", Model: model.GPT2Small32(), MiniBatch: 32, Priority: 1, MaxNodes: 4, MaxB: 8},
		{Name: "cap6", Model: model.BERT48(), MiniBatch: 48, Priority: 3, MaxNodes: 6},
		{Name: "cap8", Model: model.GPT2Small32(), MiniBatch: 64, Priority: 1, MaxNodes: 8, Deadline: 900},
	}
}

// TestReplanMatchesOracleModes: full and incremental re-planning, uncapped
// jobs, equal-split, and both migration penalties on a small pool where the
// oracle's full re-plan is affordable.
func TestReplanMatchesOracleModes(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	seeds, events := int64(4), 90
	if testing.Short() {
		seeds, events = 2, 40
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, mode := range []ReplanMode{ReplanIncremental, ReplanFull} {
			for _, hetero := range []bool{false, true} {
				sc := ElasticScenario{
					Cluster: pizDaintCluster(24, nil), Jobs: smallMix(),
					Replan: mode, MigrationPenalty: float64(10 * (seed % 2)),
				}
				lo, hi := 0.0, 0.0
				if hetero {
					sc.Cluster.SpeedFactors = mixedFactors(24, seed)
					lo, hi = 0.8, 2.0
				}
				checkAgainstOracle(t, a, oracleStorm{
					name: fmt.Sprintf("small/%s/hetero=%v/seed%d", mode, hetero, seed), sc: sc,
					batches: stormBatches(t, sc, seed, events, 4e4, lo, hi),
				})
			}
		}
	}
	eq := ElasticScenario{Cluster: pizDaintCluster(24, nil), Jobs: smallMix(), Policy: EqualSplit, MigrationPenalty: 5}
	checkAgainstOracle(t, a, oracleStorm{name: "small/equal-split", sc: eq, batches: stormBatches(t, eq, 9, 60, 4e4, 0, 0)})
}

// TestReplanMatchesOracleListScheduled: with a cluster scheduler, mixed
// prefixes additionally bid with a list-scheduled plan keyed by the factor
// sequence — the running uniformity flag and the walked factor list must
// reproduce UniformSpeed(factors[:q]) and factors[:q] at every prefix,
// including across a resumed scan.
func TestReplanMatchesOracleListScheduled(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	jobs := []Job{
		{Name: "a", Model: model.GPT2Small32(), MiniBatch: 32, Priority: 2, MaxNodes: 4, MaxB: 4},
		{Name: "b", Model: model.BERT48(), MiniBatch: 32, Priority: 1, MaxNodes: 6, MaxB: 4},
		{Name: "c", Model: model.GPT2Small32(), MiniBatch: 16, Priority: 1, MaxNodes: 4, MaxB: 4},
	}
	for i, sched := range []string{"heft", "auto"} {
		for _, mode := range []ReplanMode{ReplanIncremental, ReplanFull} {
			if testing.Short() && (sched == "auto") != (mode == ReplanFull) {
				continue // heft/incremental and auto/full
			}
			seed := int64(21 + i)
			c := pizDaintCluster(12, []float64{1, 1, 1.5, 1, 2, 1, 1, 1.5, 1, 1, 2, 1})
			c.Scheduler = sched
			sc := ElasticScenario{Cluster: c, Jobs: jobs, Replan: mode, MigrationPenalty: 10}
			checkAgainstOracle(t, a, oracleStorm{
				name: fmt.Sprintf("list/%s/%s", sched, mode), sc: sc,
				batches: stormBatches(t, sc, seed, 40, 3e4, 1, 2),
			})
		}
	}
}

// TestSearchMatchesOracleDirect compares the primitives directly on inputs
// the simulator cannot produce — odd-length shares and free pools (a
// quantum then straddles share and pool), a cap below the share a job
// already holds, unsorted node lists — so the scan's pairing and cap rules
// are pinned independently of the state machine.
func TestSearchMatchesOracleDirect(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	r := rand.New(rand.NewSource(42))
	c := pizDaintCluster(40, nil)
	jobs := []Job{
		{Name: "open", Model: model.BERT48(), MiniBatch: 64, Priority: 2},
		{Name: "cap4", Model: model.GPT2Small32(), MiniBatch: 32, Priority: 1, MaxNodes: 4},
		{Name: "cap8", Model: model.BERT48(), MiniBatch: 48, Priority: 3, MaxNodes: 8},
		{Name: "cap12", Model: model.GPT2Small32(), MiniBatch: 64, Priority: 1.5, MaxNodes: 12},
	}
	for trial := 0; trial < 60; trial++ {
		// A shuffled pool with mixed speeds on odd trials.
		pool := make([]node, 30+r.Intn(10))
		for i := range pool {
			pool[i] = node{ID: i, Factor: 1}
			if trial%2 == 1 {
				pool[i].Factor = 0.8 + 0.3*float64(r.Intn(5))
			}
		}
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		bids := make([]bidder, len(jobs))
		shares := make([][]node, len(jobs))
		oracleShares := make([][]node, len(jobs))
		next := 0
		for i, j := range jobs {
			bids[i] = bidder{curve: newPlanCurve(c, j, 8), prio: j.priority()} // small: the open job's table must grow
			n := r.Intn(7)                                                     // 0–6 nodes, odd included, above cap4's cap included
			shares[i] = append([]node(nil), pool[next:next+n]...)
			oracleShares[i] = append([]node(nil), shares[i]...)
			next += n
		}
		rest := pool[next:]
		for i, j := range jobs {
			want, err := a.oraclePrefixValues(c, j, withNodes(shares[i], rest))
			if err != nil {
				t.Fatal(err)
			}
			var st prefixScan
			if err := a.scan(bids[i].curve, &st, shares[i]); err != nil {
				t.Fatal(err)
			}
			for m, nd := range rest {
				// Resume a copy over the tail in one call: must land where
				// the node-by-node walk does.
				whole := st.fork()
				if err := a.scan(bids[i].curve, &whole, rest[m:]); err != nil {
					t.Fatal(err)
				}
				if last := (len(shares[i]) + len(rest)) / Quantum * Quantum; !reflect.DeepEqual(whole.best, want[last]) {
					t.Fatalf("trial %d job %s: scan resumed at %d ends on %+v, oracle %+v", trial, j.Name, m, whole.best, want[last])
				}
				if err := a.scan(bids[i].curve, &st, []node{nd}); err != nil {
					t.Fatal(err)
				}
				if q := st.n / Quantum * Quantum; !reflect.DeepEqual(st.best, want[q]) {
					t.Fatalf("trial %d job %s: value at prefix %d is %+v, oracle %+v", trial, j.Name, q, st.best, want[q])
				}
			}
		}
		var evals, oracleEvals int
		got, gotRest, err := a.greedyGrow(bids, shares, rest, &evals)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRest, err := a.oracleGreedyGrow(c, jobs, oracleShares, rest, &oracleEvals)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRest, wantRest) || evals != oracleEvals {
			t.Fatalf("trial %d: greedyGrow differs from the oracle:\n got %v rest %d evals %d\nwant %v rest %d evals %d",
				trial, got, len(gotRest), evals, want, len(wantRest), oracleEvals)
		}
	}
}

// TestAllocateMatchesOracle: the static allocator over the property mixes ×
// pool sizes × factor lists, with and without a cluster scheduler.
func TestAllocateMatchesOracle(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	step := 4
	if testing.Short() {
		step = 8
	}
	for mi, jobs := range propMixes() {
		for nodes := 6; nodes <= 26; nodes += step {
			for fi, factors := range [][]float64{nil, mixedFactors(nodes, int64(nodes)), mixedFactors(nodes, int64(100+nodes))} {
				for _, policy := range []Policy{PlannerGuided, EqualSplit} {
					for _, sched := range []string{"", "heft"} {
						if sched != "" && (factors == nil || nodes > 10 || policy == EqualSplit) {
							continue // list bids on big hetero pools plan for seconds
						}
						c := pizDaintCluster(nodes, factors)
						c.Scheduler = sched
						req := Request{Cluster: c, Jobs: jobs, Policy: policy}
						got, err := a.Allocate(req)
						if err != nil {
							t.Fatal(err)
						}
						want, err := a.oracleAllocate(req)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("mix %d, %d nodes, factors %d, %s, scheduler %q: allocation differs from the oracle:\n%s\n%s",
								mi, nodes, fi, policy, sched, got, want)
						}
					}
				}
			}
		}
	}
}

// TestReplanMatchesOracleRandomStates runs one incremental re-plan from
// random resident states the storms rarely reach: heavily aged starved
// instances next to rich donors on a mixed-speed pool with little or no
// free capacity, so one pass chains several moves — a donor stripped bare
// is fed again from a slower donor and then taxed by a later starved
// instance, the case where donor values kept across a move go stale.
func TestReplanMatchesOracleRandomStates(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	r := rand.New(rand.NewSource(7))
	jobs := smallMix()
	jobs = append(jobs, Job{Name: "cap10", Model: model.BERT48(), MiniBatch: 40, Priority: 5, MaxNodes: 10})
	moves := 0
	for trial := 0; trial < 400; trial++ {
		nodes := 20 + 2*r.Intn(6)
		sc := ElasticScenario{
			Cluster:          pizDaintCluster(nodes, mixedFactors(nodes, int64(trial))),
			Jobs:             jobs,
			MigrationPenalty: float64(10 * (trial % 2)),
		}
		s, err := a.NewElasticSim(sc)
		if err != nil {
			t.Fatal(err)
		}
		s.now = 5000
		// Hand out random even runs of a shuffled pool, leave 0–3 nodes free.
		pool := append([]node(nil), s.present...)
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pool = pool[:len(pool)-r.Intn(4)]
		for i := 0; i < 5+r.Intn(5); i++ {
			j := jobs[r.Intn(len(jobs))]
			in := &einstance{trace: i, job: j, curve: s.curves[j.Name], remaining: 1e5 * (1 + r.Float64()), starvedSince: -1}
			s.runs[i] = &ElasticJobRun{Job: j.Name, Trace: i, StartAt: -1, DoneAt: -1}
			n := Quantum * r.Intn(5)
			if r.Intn(3) == 0 || n > len(pool) {
				n = 0
			}
			if err := a.applyShare(in, append([]node(nil), pool[:n]...)); err != nil {
				t.Fatal(err)
			}
			pool = pool[n:]
			if in.rate <= 0 {
				in.starvedSince = s.now - DefaultAgingTau*20*r.Float64() // aged up to 21× its priority
				in.needy = r.Intn(4) == 0
			}
			s.active = append(s.active, in)
		}
		got, want := s.Fork(), s.Fork()
		want.replanWith = oracleReplan
		if err := got.ReplanNow(); err != nil {
			t.Fatal(err)
		}
		if err := want.ReplanNow(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
			t.Fatalf("trial %d: re-plan differs from the oracle:\n got %+v\nwant %+v", trial, got.Snapshot(), want.Snapshot())
		}
		for i, in := range got.active {
			if !reflect.DeepEqual(nodeIDs(in.share), nodeIDs(want.active[i].share)) {
				t.Fatalf("trial %d: instance %d holds nodes %v, oracle %v", trial, i, nodeIDs(in.share), nodeIDs(want.active[i].share))
			}
		}
		moves += got.res.Migrations
	}
	if moves < 100 {
		t.Fatalf("random states produced only %d restarts — the preemption path is not being exercised", moves)
	}
}
