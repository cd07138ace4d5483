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
	"slices"
	"testing"

	"chimera/internal/engine"
	"chimera/internal/model"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// withNodes appends extra nodes to a share in a fresh array.
func withNodes(share, extra []node) []node {
	return slices.Concat(share, extra)
}

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

// oracleCluster is the cluster the sim's curves were built on, as far as a
// plan request reads it.
func oracleCluster(s *ElasticSim) Cluster {
	cv := s.curves[0]
	return Cluster{Device: cv.req.Device, Network: cv.req.Network, Scheduler: cv.sched}
}

func (a *Allocator) oracleApplyShare(s *ElasticSim, in *einstance, share []node) error {
	v, err := a.oracleJobValue(oracleCluster(s), s.jobs[in.job], share)
	if err != nil {
		return err
	}
	if v.pred == nil {
		in.share, in.plan, in.rate = nil, nil, 0
		return nil
	}
	in.share = share[:v.used:v.used]
	in.plan, in.rate = v.pred, v.tp
	return nil
}

// oracleReplan is the ElasticSim.replanWith hook: the pre-curve re-planners
// over the sim's state.
func oracleReplan(s *ElasticSim, full bool) error {
	if full {
		return s.a.oracleReplanFull(s)
	}
	return s.a.oracleReplanIncremental(s)
}

func (a *Allocator) oracleReplanFull(s *ElasticSim) error {
	res := s.res
	jobs := make([]Job, len(s.active))
	for i, in := range s.active {
		jobs[i] = s.jobs[in.job]
		jobs[i].Priority = s.effPriority(in)
	}
	pool := s.present[:len(s.present)/Quantum*Quantum]
	var shares [][]node
	if res.Policy == EqualSplit {
		shares = equalSplit(pool, len(jobs))
		for i := range shares {
			shares[i] = append([]node(nil), shares[i]...)
		}
		res.JobsEvaluated += len(jobs)
	} else {
		var err error
		shares, _, err = a.oracleGreedyGrow(oracleCluster(s), jobs, make([][]node, len(jobs)), pool, &res.JobsEvaluated)
		if err != nil {
			return err
		}
	}
	for i, in := range s.active {
		if err := a.oracleApplyShare(s, in, shares[i]); err != nil {
			return err
		}
	}
	return nil
}

func (a *Allocator) oracleReplanIncremental(s *ElasticSim) error {
	var needy []*einstance
	for _, in := range s.active {
		if in.needy || in.rate <= 0 {
			needy = append(needy, in)
		}
	}
	if len(needy) > 0 {
		jobs := make([]Job, len(needy))
		bases := make([][]node, len(needy))
		for i, in := range needy {
			jobs[i] = s.jobs[in.job]
			jobs[i].Priority = s.effPriority(in)
			bases[i] = in.share
		}
		free := oracleFreeNodes(s.present, s.active)
		shares, _, err := a.oracleGreedyGrow(oracleCluster(s), jobs, bases, free, &s.res.JobsEvaluated)
		if err != nil {
			return err
		}
		for i, in := range needy {
			if err := a.oracleApplyShare(s, in, shares[i]); err != nil {
				return err
			}
		}
	}
	if err := a.oracleExtendRunning(s); err != nil {
		return err
	}
	return a.oraclePreemptForStarved(s)
}

func (a *Allocator) oracleExtendRunning(s *ElasticSim) error {
	free := oracleFreeNodes(s.present, s.active)
	if len(free) < Quantum {
		return nil
	}
	for _, in := range s.active {
		if in.rate <= 0 || len(free) < Quantum {
			continue
		}
		vals, err := a.oraclePrefixValues(oracleCluster(s), s.jobs[in.job], withNodes(in.share, free))
		if err != nil {
			return err
		}
		s.res.JobsEvaluated++
		bestK, bestNet := 0, 0.0
		for k := 1; k*Quantum <= len(free); k++ {
			v := vals[len(in.share)+k*Quantum]
			if v.tp <= in.rate {
				continue
			}
			pen := s.penalty * float64(in.plan.D) / 2
			net := (v.tp-in.rate)*(in.remaining/v.tp) - pen*v.tp
			if net > bestNet {
				bestK, bestNet = k, net
			}
		}
		if bestK == 0 {
			continue
		}
		if err := a.oracleApplyShare(s, in, withNodes(in.share, free[:bestK*Quantum])); err != nil {
			return err
		}
		free = oracleFreeNodes(s.present, s.active)
	}
	return nil
}

func (a *Allocator) oraclePreemptForStarved(es *ElasticSim) error {
	c := oracleCluster(es)
	for _, s := range es.active {
		if s.rate > 0 {
			continue
		}
		free := oracleFreeNodes(es.present, es.active)
		effS := es.effPriority(s)
		type move struct {
			donor *einstance
			k     int
			net   float64
			share []node
		}
		var best *move
		for _, d := range es.active {
			if d == s || d.rate <= 0 || len(d.share) < Quantum {
				continue
			}
			dVals, err := a.oraclePrefixValues(c, es.jobs[d.job], d.share)
			if err != nil {
				return err
			}
			es.res.JobsEvaluated++
			effD := es.effPriority(d)
			for k := 1; k*Quantum <= len(d.share); k++ {
				keep := len(d.share) - k*Quantum
				released := d.share[keep:]
				cand := withNodes(withNodes(s.share, free), released)
				sv, err := a.oracleJobValue(c, es.jobs[s.job], cand)
				if err != nil {
					return err
				}
				es.res.JobsEvaluated++
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
		if err := a.oracleApplyShare(es, best.donor, best.donor.share[:keep:keep]); err != nil {
			return err
		}
		if err := a.oracleApplyShare(es, s, best.share); err != nil {
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
					c.name, in.run.Trace, nodeIDs(in.share), nodeIDs(want.active[i].share), b)
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
// already holds, unsorted node lists — so the scan's pairing and cap rules,
// and the breakpoint search's reading of a prepared list, are pinned
// independently of the state machine.
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
			bids[i] = bidder{curve: newPlanCurve(c, j), prio: j.priority()}
			n := r.Intn(7) // 0–6 nodes, odd included, above cap4's cap included
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
			// The breakpoint search from a random offset into the prepared
			// rest: at every whole quantum k the oracle's value is the last
			// one offered at or before k, and the offers ascend.
			var l nodeList
			l.prepare(rest)
			from := r.Intn(len(rest))
			wantFrom, err := a.oraclePrefixValues(c, j, withNodes(shares[i], rest[from:]))
			if err != nil {
				t.Fatal(err)
			}
			var ks []int
			var vs []jobValue
			ahead := st.fork()
			if err := a.ahead(bids[i].curve, &ahead, &l, from, func(k int, v jobValue) {
				ks, vs = append(ks, k), append(vs, v)
			}); err != nil {
				t.Fatal(err)
			}
			v, next := st.best, 0
			for k := 1; k*Quantum <= len(rest)-from; k++ {
				if next < len(ks) && ks[next] == k {
					v, next = vs[next], next+1
				}
				if q := (len(shares[i]) + k*Quantum) / Quantum * Quantum; !reflect.DeepEqual(v, wantFrom[q]) {
					t.Fatalf("trial %d job %s: search from %d has %+v after %d quanta, oracle %+v", trial, j.Name, from, v, k, wantFrom[q])
				}
			}
			if next != len(ks) {
				t.Fatalf("trial %d job %s: offers %v out of order", trial, j.Name, ks)
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
			in := &einstance{run: ElasticJobRun{Job: j.Name, Trace: i, StartAt: -1, DoneAt: -1}, job: s.index[j.Name], remaining: 1e5 * (1 + r.Float64()), starvedSince: -1}
			n := Quantum * r.Intn(5)
			if r.Intn(3) == 0 || n > len(pool) {
				n = 0
			}
			if err := s.applyShare(in, append([]node(nil), pool[:n]...)); err != nil {
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

// layerModel is Bert-48's layer shape at another depth.
func layerModel(layers int) model.Config {
	m := model.BERT48()
	m.Name, m.Layers = fmt.Sprintf("bert-%d", layers), layers
	return m
}

// sparseMix is a vocabulary whose breakpoints lie far apart: layer counts
// with few even divisors (12, 30, 48) and mini-batches that are not powers
// of two (96, 384, and 3, which admits W ∈ {1, 3} only), all uncapped but
// one.
func sparseMix() []Job {
	return []Job{
		{Name: "l12", Model: layerModel(12), MiniBatch: 96, Priority: 1},
		{Name: "l30", Model: layerModel(30), MiniBatch: 3, Priority: 2},
		{Name: "l48", Model: model.BERT48(), MiniBatch: 384, Priority: 1.5},
		{Name: "l30cap", Model: layerModel(30), MiniBatch: 96, Priority: 1, MaxNodes: 20},
	}
}

// TestAllocateMatchesOracleBigPools: the static allocator over uncapped
// mixes on pools of a thousand nodes and more, homogeneous and mixed-speed,
// and over sparse breakpoints under the "auto" scheduler on a mixed-speed
// pool, where list-scheduled bids land on the breakpoints dividing the layer
// count.
func TestAllocateMatchesOracleBigPools(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	pools := []int{1024, 2050}
	if testing.Short() {
		pools = pools[:1]
	}
	check := func(req Request) {
		t.Helper()
		got, err := a.Allocate(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.oracleAllocate(req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d nodes, scheduler %q: allocation differs from the oracle:\n%s\n%s", req.Cluster.Nodes, req.Cluster.Scheduler, got, want)
		}
	}
	for _, nodes := range pools {
		for _, jobs := range [][]Job{benchMix(), propMixes()[1], sparseMix()} {
			for _, factors := range [][]float64{nil, mixedFactors(nodes, int64(nodes))} {
				check(Request{Cluster: pizDaintCluster(nodes, factors), Jobs: jobs})
			}
		}
	}
	for _, nodes := range []int{24, 40} {
		c := pizDaintCluster(nodes, mixedFactors(nodes, int64(nodes+1)))
		c.Scheduler = "auto"
		check(Request{Cluster: c, Jobs: sparseMix()[:2]})
	}
}

// TestReplanMatchesOracleSparse: storms over the sparse vocabulary on an
// ample 1,024-node pool (uncapped jobs, so every search reaches far past the
// jobs' last breakpoints) and on a scarce mixed-speed pool, plus random
// resident states of it. A donor releases the tail of its share, so on a
// mixed-speed pool a larger eviction moves the starved side onto other
// nodes even where neither side crosses a breakpoint — the preemption
// candidates between breakpoints must still be priced.
func TestReplanMatchesOracleSparse(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	events := 60
	if testing.Short() {
		events = 30
	}
	for seed := int64(1); seed <= 2; seed++ {
		ample := ElasticScenario{Cluster: pizDaintCluster(1024, nil), Jobs: sparseMix(), MigrationPenalty: float64(10 * (seed % 2))}
		checkAgainstOracle(t, a, oracleStorm{
			name: fmt.Sprintf("sparse-ample/seed%d", seed), sc: ample,
			batches: stormBatches(t, ample, seed, events, 1e5, 0, 0),
		})
		scarce := ElasticScenario{Cluster: pizDaintCluster(40, mixedFactors(40, seed)), Jobs: sparseMix(), MigrationPenalty: 5}
		checkAgainstOracle(t, a, oracleStorm{
			name: fmt.Sprintf("sparse-scarce/seed%d", seed), sc: scarce,
			batches: stormBatches(t, scarce, seed, events, 1e6, 0.8, 2.0),
		})
	}

	r := rand.New(rand.NewSource(11))
	jobs := sparseMix()
	moves := 0
	for trial := 0; trial < 600; trial++ {
		// Mixed speeds, one speed, and runs of a few speeds, so donors' uniform
		// tails range from one node to the whole share.
		nodes := 24 + 2*r.Intn(8)
		var factors []float64
		switch trial % 3 {
		case 0:
			factors = mixedFactors(nodes, int64(trial))
		case 2:
			factors = make([]float64, nodes)
			for i := range factors {
				factors[i] = []float64{1, 1.5, 2}[i*3/nodes]
			}
		}
		sc := ElasticScenario{
			Cluster: pizDaintCluster(nodes, factors),
			Jobs:    jobs, MigrationPenalty: float64(10 * (trial % 2)),
		}
		s, err := a.NewElasticSim(sc)
		if err != nil {
			t.Fatal(err)
		}
		s.now = 5000
		pool := append([]node(nil), s.present...)
		r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pool = pool[:len(pool)-r.Intn(3)]
		for i := 0; i < 3+r.Intn(5); i++ {
			j := jobs[r.Intn(len(jobs))]
			in := &einstance{run: ElasticJobRun{Job: j.Name, Trace: i, StartAt: -1, DoneAt: -1}, job: s.index[j.Name], remaining: 1e5 * (1 + r.Float64()), starvedSince: -1}
			n := Quantum * r.Intn(8)
			if r.Intn(3) == 0 || n > len(pool) {
				n = 0
			}
			if err := s.applyShare(in, append([]node(nil), pool[:n]...)); err != nil {
				t.Fatal(err)
			}
			pool = pool[len(in.share):]
			if in.rate <= 0 {
				in.starvedSince = s.now - DefaultAgingTau*20*r.Float64()
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
	if moves < 50 {
		t.Fatalf("random states produced only %d restarts — the preemption path is not being exercised", moves)
	}
}

// TestPreemptPricesBetweenBreakpoints: the candidate between the starved
// side's breakpoints that wins. The donor drives four nodes of speeds
// [1, 1, 1.2, 1.2]; the starved 30-layer job has breakpoints 2, 6, 10, …
// only. Evicting one quantum hands it the two slow nodes, evicting both
// hands it the two fast ones first: the same breakpoint, P = 2, on faster
// nodes, so the second candidate is worth more to a long-starved job even
// though neither side's breakpoints separate the two.
func TestPreemptPricesBetweenBreakpoints(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	jobs := []Job{
		{Name: "donor", Model: layerModel(12), MiniBatch: 96},
		{Name: "starved", Model: layerModel(30), MiniBatch: 3, Priority: 2},
	}
	sc := ElasticScenario{Cluster: pizDaintCluster(4, []float64{1, 1, 1.2, 1.2}), Jobs: jobs}
	s, err := a.NewElasticSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	s.now = 100 * DefaultAgingTau
	d := &einstance{run: ElasticJobRun{Job: jobs[0].Name, Trace: 0, StartAt: -1, DoneAt: -1}, job: 0, remaining: 1e6, starvedSince: -1}
	if err := s.applyShare(d, append([]node(nil), s.present...)); err != nil {
		t.Fatal(err)
	}
	if len(d.share) != 4 {
		t.Fatalf("donor drives %d nodes, want all 4", len(d.share))
	}
	st := &einstance{run: ElasticJobRun{Job: jobs[1].Name, Trace: 1, StartAt: -1, DoneAt: -1}, job: 1, remaining: 1e6, starvedSince: 0}
	s.active = []*einstance{d, st}
	got, want := s.Fork(), s.Fork()
	want.replanWith = oracleReplan
	if err := got.ReplanNow(); err != nil {
		t.Fatal(err)
	}
	if err := want.ReplanNow(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Fatalf("re-plan differs from the oracle:\n got %+v\nwant %+v", got.Snapshot(), want.Snapshot())
	}
	if ids := nodeIDs(got.active[1].share); !reflect.DeepEqual(ids, []int{0, 1}) {
		t.Fatalf("starved job holds nodes %v, want the fast pair [0 1]", ids)
	}
}

// addResident places an instance of the sim's job name on share, starved
// since starvedSince (−1: running), as the instance arriving next.
func addResident(tb testing.TB, s *ElasticSim, name string, share []node, starvedSince float64) *einstance {
	tb.Helper()
	in := &einstance{
		run: ElasticJobRun{Job: name, Trace: len(s.active), StartAt: -1, DoneAt: -1},
		job: s.index[name], remaining: 1e6, starvedSince: starvedSince,
	}
	if err := s.applyShare(in, share); err != nil {
		tb.Fatal(err)
	}
	s.active = append(s.active, in)
	return in
}

// replanLikeOracle runs one re-plan on a fork of s and on a fork driven by the
// oracle, requires equal results and node ids, and returns the first fork.
func replanLikeOracle(tb testing.TB, s *ElasticSim) *ElasticSim {
	tb.Helper()
	got, want := s.Fork(), s.Fork()
	want.replanWith = oracleReplan
	if err := got.ReplanNow(); err != nil {
		tb.Fatal(err)
	}
	if err := want.ReplanNow(); err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		tb.Fatalf("re-plan differs from the oracle:\n got %+v\nwant %+v", got.Snapshot(), want.Snapshot())
	}
	for i, in := range got.active {
		if !reflect.DeepEqual(nodeIDs(in.share), nodeIDs(want.active[i].share)) {
			tb.Fatalf("instance %d holds nodes %v, oracle %v", i, nodeIDs(in.share), nodeIDs(want.active[i].share))
		}
	}
	return got
}

// TestPreemptPricesMixedTailPastBreakpoint: a donor whose share ends in a
// uniform slow tail, and a starved job capped at one breakpoint. Evicting
// inside the tail gives it slow nodes at that breakpoint; the first eviction
// that reaches past the tail gives it fast ones at the same breakpoint, and a
// long-starved job values that more than the donor's extra loss. The
// starved side does not move between the two, so the eviction past the tail
// must be priced even though no breakpoint of either side lies between them.
func TestPreemptPricesMixedTailPastBreakpoint(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	for _, row := range []struct {
		factors []float64
		cap     int
		fast    []int // the starved job's nodes: a pair of speed 1
	}{
		{[]float64{1, 1, 1.2, 1.2, 1.2, 1.2}, 2, []int{0, 1}},
		{[]float64{1, 1, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2}, 2, []int{0, 1}},
		{[]float64{1, 1, 1, 1, 1.2, 1.2, 1.2, 1.2}, 4, []int{2, 3}},
	} {
		jobs := []Job{
			{Name: "donor", Model: layerModel(12), MiniBatch: 96},
			{Name: "starved", Model: layerModel(30), MiniBatch: 3, Priority: 2, MaxNodes: row.cap},
		}
		s, err := a.NewElasticSim(ElasticScenario{Cluster: pizDaintCluster(len(row.factors), row.factors), Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		s.now = 100 * DefaultAgingTau
		if d := addResident(t, s, "donor", slices.Clone(s.present), -1); len(d.share) != len(row.factors) {
			t.Fatalf("%v: donor drives %d nodes, want all %d", row.factors, len(d.share), len(row.factors))
		}
		addResident(t, s, "starved", nil, 0)
		got := replanLikeOracle(t, s)
		if ids := nodeIDs(got.active[1].share); !reflect.DeepEqual(ids, row.fast) {
			t.Fatalf("%v: starved job holds nodes %v, want the fast pair %v", row.factors, ids, row.fast)
		}
	}
}

// TestPreemptTiesPickEarliestDonorFewestQuanta: clones of one job hold equal
// shares, so every candidate of one donor ties the same candidate of the
// others. On one speed and on two (each share fast nodes, then a slow tail,
// so a deep eviction mixes speeds) the move must take the earliest donor's.
// Then the starved job ages so far that every net with the same starved
// value rounds equal, and the first clone is aged a little, so it is not
// the cheapest donor: the earliest donor still wins, and where more quanta
// hand the starved job the same pair, the fewest do — inside a uniform
// share, and past a tail, where every eviction is priced on its own.
func TestPreemptTiesPickEarliestDonorFewestQuanta(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	for _, row := range []struct {
		fast, slow float64
		// Each clone holds nfast nodes of speed fast, then nslow of speed
		// slow; the first keeps kept of them.
		nfast, nslow, kept int
	}{
		{1, 1, 2, 2, 2},
		{1, 1.2, 2, 2, 0},  // the fast pair lies past the tail
		{1, 1.05, 4, 2, 2}, // two and three quanta both reach a fast pair
	} {
		var pool []float64
		for range 3 * row.nfast {
			pool = append(pool, row.fast)
		}
		for range 3 * row.nslow {
			pool = append(pool, row.slow)
		}
		for _, rounded := range []bool{false, true} {
			jobs := []Job{
				{Name: "clone", Model: layerModel(12), MiniBatch: 96},
				{Name: "starved", Model: layerModel(30), MiniBatch: 3, Priority: 2, MaxNodes: 2},
			}
			starvedSince, firstAged := 0.0, -1.0
			if rounded {
				// Aging on deadline/2 makes the starved side ~1e25 times its
				// priority: far past the donors' costs, so all nets round equal.
				jobs[1].Deadline = 1e-20
				firstAged = 100*DefaultAgingTau - 300
			}
			s, err := a.NewElasticSim(ElasticScenario{Cluster: pizDaintCluster(len(pool), pool), Jobs: jobs})
			if err != nil {
				t.Fatal(err)
			}
			s.now = 100 * DefaultAgingTau
			n := row.nfast + row.nslow
			for i := range 3 {
				fast, slow := s.present[i*row.nfast:], s.present[3*row.nfast+i*row.nslow:]
				share := slices.Concat(fast[:row.nfast], slow[:row.nslow])
				since := -1.0
				if i == 0 {
					since = firstAged
				}
				if d := addResident(t, s, "clone", share, since); len(d.share) != n {
					t.Fatalf("clone %d drives %d nodes, want %d", i, len(d.share), n)
				}
			}
			addResident(t, s, "starved", nil, starvedSince)
			got := replanLikeOracle(t, s)
			label := fmt.Sprintf("pool %v, rounded %v", pool, rounded)
			if n := len(got.active[0].share); n != row.kept {
				t.Fatalf("%s: the first clone kept %d nodes, want %d", label, n, row.kept)
			}
			for i := 1; i < 3; i++ {
				if m := len(got.active[i].share); m != n {
					t.Fatalf("%s: clone %d holds %d nodes, want its %d", label, i, m, n)
				}
			}
		}
	}
}

// FuzzPreemptMatchesOracle runs one incremental re-plan from a fuzzed
// resident state against the oracle, snapshots and node ids both. speeds
// gives up to 12 nodes of factors {1, 1.2, 1.5, 2}; residents gives two to
// six instances, four bytes each: a sparse-vocabulary job, a cap (0 keeps
// the job's own, else 2–8 nodes), a share of 0–6 quanta handed out in pool
// order, and a starvation age in half-taus (0 on a running instance: not
// starved). shuffle (0: none) permutes the pool first; penalty is the
// migration penalty. The seeds are TestPreemptPricesMixedTailPastBreakpoint's
// rows.
func FuzzPreemptMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 1}, []byte{0, 0, 3, 0, 1, 1, 0, 200}, int64(0), uint8(0))
	f.Add([]byte{0, 0, 1, 1, 1, 1, 1, 1}, []byte{0, 0, 4, 0, 1, 1, 0, 200}, int64(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1}, []byte{0, 0, 4, 0, 1, 2, 0, 200}, int64(0), uint8(0))
	a := NewAllocator(engine.New(engine.Workers(1)))
	mix := sparseMix()
	f.Fuzz(func(t *testing.T, speeds, residents []byte, shuffle int64, penalty uint8) {
		speeds = speeds[:min(len(speeds), 12)]
		n := min(len(residents)/4, 6)
		if len(speeds) < Quantum || n < 2 {
			t.Skip()
		}
		factors := make([]float64, len(speeds))
		for i, b := range speeds {
			factors[i] = []float64{1, 1.2, 1.5, 2}[b%4]
		}
		var jobs []Job
		names := make([]string, n)
		for i := range n {
			j := mix[residents[4*i]%4]
			if c := 2 * int(residents[4*i+1]%5); c > 0 {
				j.MaxNodes = c
			}
			j.Name = fmt.Sprintf("%s/%d", j.Name, j.MaxNodes)
			if !slices.ContainsFunc(jobs, func(x Job) bool { return x.Name == j.Name }) {
				jobs = append(jobs, j)
			}
			names[i] = j.Name
		}
		s, err := a.NewElasticSim(ElasticScenario{
			Cluster: pizDaintCluster(len(factors), factors), Jobs: jobs, MigrationPenalty: float64(penalty),
		})
		if err != nil {
			t.Fatal(err)
		}
		s.now = 128 * DefaultAgingTau
		pool := slices.Clone(s.present)
		if shuffle != 0 {
			r := rand.New(rand.NewSource(shuffle))
			r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		}
		for i := range n {
			k := Quantum * int(residents[4*i+2]%7)
			if k > len(pool) {
				k = 0
			}
			age := float64(residents[4*i+3]) * DefaultAgingTau / 2
			in := addResident(t, s, names[i], slices.Clone(pool[:k]), s.now-age)
			if in.rate > 0 && age == 0 {
				in.starvedSince = -1
			}
			pool = pool[len(in.share):]
		}
		replanLikeOracle(t, s)
	})
}

// TestPreemptEpochAllocatesNoTables: preemptForStarved's tables (the donors
// with their prepared shares, the cost and cheapest tables, the per-speed
// rows, the starved sides and their steps) live in the re-plan's scratch,
// so once a scratch has held them, pricing allocates none. Three donors of
// a high-priority job hold a shuffled mixed-speed pool — each share needs a
// sparse table — and a just-starved job of low priority is priced against
// every candidate and wins none: on one scratch, an epoch that applies no
// share must allocate nothing. (The scratch is held across the runs rather
// than pooled between them: under -race, sync.Pool drops a quarter of what
// is put back.)
func TestPreemptEpochAllocatesNoTables(t *testing.T) {
	a := NewAllocator(engine.New(engine.Workers(1)))
	jobs := []Job{
		{Name: "donor", Model: layerModel(12), MiniBatch: 96, Priority: 64},
		{Name: "starved", Model: layerModel(30), MiniBatch: 3},
	}
	factors := []float64{1, 1.2, 1.5, 1, 1.2, 1.5, 1, 1.2, 1.5, 1, 1.2, 1.5}
	s, err := a.NewElasticSim(ElasticScenario{Cluster: pizDaintCluster(len(factors), factors), Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	s.now = DefaultAgingTau
	pool := slices.Clone(s.present)
	rand.New(rand.NewSource(3)).Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for i := range 3 {
		if d := addResident(t, s, "donor", slices.Clone(pool[4*i:4*i+4]), -1); len(d.share) != 4 {
			t.Fatalf("donor %d drives %d nodes, want 4", i, len(d.share))
		}
	}
	addResident(t, s, "starved", nil, s.now)
	before := s.Shares()
	s.takeScratch()
	defer s.putScratch()
	allocs := testing.AllocsPerRun(50, func() {
		if err := s.preemptForStarved(); err != nil {
			t.Fatal(err)
		}
	})
	if after := s.Shares(); !reflect.DeepEqual(after, before) {
		t.Fatalf("the starved job won a move, so the epoch is not the one this test prices:\n%+v\n%+v", before, after)
	}
	if allocs != 0 {
		t.Fatalf("an epoch that applies no share allocates %v times, want 0", allocs)
	}
}
