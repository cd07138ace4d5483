package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"chimera/internal/controller"
	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/perfmodel"
	"chimera/internal/schedule"
	"chimera/internal/serve"
	"chimera/internal/sim"
)

// The layer probes time calls into each layer's exported API from outside
// and read the layers' own exact counters. They run in every traced pass,
// whatever its workload, on fixed inputs: the per-layer table is one table,
// and a later change reads the row it expects to move.
type probes struct {
	out    map[string]float64
	outDir string
}

// perCall runs f in `batches` batches of `per` calls and returns the median
// batch's mean time per call in nanoseconds.
func perCall(batches, per int, f func()) float64 {
	times := make([]float64, batches)
	for b := range times {
		start := time.Now()
		for range per {
			f()
		}
		times[b] = float64(time.Since(start)) / float64(per)
	}
	return median(times)
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	sort.Float64s(out)
	return out
}

func spanDurationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func runProbes(outDir string) (map[string]float64, error) {
	p := &probes{out: make(map[string]float64), outDir: outDir}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"plan", p.planLayers},
		{"engine", p.engineLayer},
		{"sim", p.simLayer},
		{"serve", p.serveLayer},
		{"router", p.routerAndZipf},
		{"fleet", p.fleetAndController},
		{"obs", p.obsLayer},
	} {
		start := time.Now()
		if err := step.run(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", step.name, err)
		}
		logf("probe %-7s %.2fs", step.name, time.Since(start).Seconds())
	}
	return p.out, nil
}

// planLayers replays the plan request list through the traced planner — one
// pass on an engine reset before every op, one on the primed engine — and
// reads schedule, sim and perfmodel costs off the spans.
func (p *probes) planLayers() error {
	cases, err := loadPlanCases()
	if err != nil {
		return err
	}
	e := engine.New(engine.Workers(1))
	tr := newTracer(1<<18, 0)
	var nodes, edges, graphs, candidates float64
	for i := range cases {
		e.Reset()
		preds, work, err := planTraced(tr, i, e, cases[i].resolved, true)
		if err != nil || planDigest(cases[i].resolved, preds) != cases[i].Digest {
			return fmt.Errorf("traced cold plan of %s is wrong (%v)", cases[i].ID, err)
		}
		candidates += float64(work.candidates)
		for _, sch := range work.chosen {
			g, err := sch.Graph()
			if err != nil {
				return err
			}
			nodes, edges, graphs = nodes+float64(g.Nodes()), edges+float64(g.Edges()), graphs+1
		}
	}
	cold := tr.recorded()
	p.out["schedule.build_us"] = median(spanDurationsUS(cold, "schedule.build"))
	p.out["schedule.compile_us"] = median(spanDurationsUS(cold, "schedule.compile"))
	p.out["schedule.critical_path_us"] = median(spanDurationsUS(cold, "schedule.critical_path"))
	p.out["schedule.graph_nodes"] = nodes / graphs
	p.out["schedule.graph_edges"] = edges / graphs
	p.out["perfmodel.candidates_per_plan"] = candidates / float64(len(cases))

	// Primed engine: one untraced pass fills the caches, then one traced.
	e = engine.New(engine.Workers(1))
	for i := range cases {
		if _, err := perfmodel.PlanOn(e, cases[i].resolved); err != nil {
			return err
		}
	}
	before := e.Stats()
	tr = newTracer(1<<18, 0)
	op := 0
	for i := range cases {
		preds, work, err := planTraced(tr, op, e, cases[i].resolved, false)
		if err != nil || planDigest(cases[i].resolved, preds) != cases[i].Digest {
			return fmt.Errorf("traced warm plan of %s is wrong (%v)", cases[i].ID, err)
		}
		shadowReplays(tr, op, work.chosen)
		op++
	}
	after := e.Stats()
	share := func(h, m uint64) float64 { return float64(h) / float64(h+m) }
	p.out["engine.schedule_hit_share"] = share(after.ScheduleHits-before.ScheduleHits, after.ScheduleMisses-before.ScheduleMisses)
	p.out["engine.critical_hit_share"] = share(after.CriticalHits-before.CriticalHits, after.CriticalMisses-before.CriticalMisses)
	warm := tr.recorded()
	p.out["schedule.replay_us"] = median(spanDurationsUS(warm, shadowReplay))
	p.out["sim.fits_memory_us"] = median(spanDurationsUS(warm, "sim.fits_memory"))

	// perfmodel.self_us: what a warm plan spends in the planner itself — the
	// root span's self time (grid, pool fan-out, ranking) plus the
	// predictions, less the replays inside them as priced by the shadows.
	self := selfTimes(warm)
	perOp := make([]float64, op)
	for i, s := range warm {
		switch s.Name {
		case "perfmodel.plan", "perfmodel.predict":
			perOp[s.Op] += float64(self[i]) / 1e3
		case shadowReplay:
			perOp[s.Op] -= float64(s.End-s.Start) / 1e3
		}
	}
	p.out["perfmodel.self_us"] = median(perOp)

	batch := make([]perfmodel.PlanRequest, 16)
	for i := range batch {
		batch[i] = cases[i].resolved
	}
	p.out["perfmodel.plan_batch_ms"] = perCall(5, 4, func() { perfmodel.PlanBatchOn(e, batch) }) / 1e6

	// Replay allocations: a compiled graph under the unit cost shape, on
	// this goroutine only.
	sch, err := e.Schedule(engine.ChimeraKey(16, 32, 0, schedule.Direct))
	if err != nil {
		return err
	}
	g, err := sch.Graph()
	if err != nil {
		return err
	}
	g.ReplayWith(unitReplay).Release()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const replays = 2000
	for range replays {
		g.ReplayWith(unitReplay).Release()
	}
	runtime.ReadMemStats(&m1)
	p.out["schedule.replay_allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / replays
	return nil
}

// sweepGrid is the fixed 256-spec simulator grid of the sweep probes.
func sweepGrid() []engine.Spec {
	var specs []engine.Spec
	m := model.BERT48()
	for _, d := range []int{4, 8, 16, 24} {
		for _, n := range []int{4, 8, 16, 32} {
			for _, b := range []int{1, 2, 4, 8} {
				for _, w := range []int{1, 2, 4, 8} {
					specs = append(specs, engine.Spec{
						Sched: engine.ChimeraKey(d, n, 0, schedule.Direct), Model: m,
						MicroBatch: b, W: w, AutoRecompute: true,
						Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
					})
				}
			}
		}
	}
	return specs
}

func (p *probes) engineLayer() error {
	e := engine.New(engine.Workers(2))
	key := engine.ChimeraKey(8, 8, 0, schedule.Direct)
	if _, err := e.Schedule(key); err != nil {
		return err
	}
	p.out["engine.memo_hit_ns"] = perCall(9, 20000, func() { e.Schedule(key) })
	memo := engine.NewMemo[int, int]()
	next := 0
	p.out["engine.memo_miss_ns"] = perCall(9, 20000, func() {
		k := next
		next++
		memo.Do(k, func() int { return k })
	})
	const tasks = 64
	p.out["engine.foreach_dispatch_us"] = perCall(9, 300, func() { e.ForEach(tasks, func(int) {}) }) / 1e3 / tasks

	specs := sweepGrid()
	var coldS, warmS []float64
	for range 3 {
		fresh := engine.New(engine.Workers(2))
		start := time.Now()
		outs := fresh.Sweep(specs)
		coldS = append(coldS, time.Since(start).Seconds())
		for i, o := range outs {
			if o.Err != nil {
				return fmt.Errorf("sweep spec %d: %w", i, o.Err)
			}
		}
		start = time.Now()
		for range 20 {
			fresh.Sweep(specs)
		}
		warmS = append(warmS, time.Since(start).Seconds()/20)
	}
	p.out["engine.sweep_cold_configs_s"] = float64(len(specs)) / median(coldS)
	p.out["engine.sweep_warm_configs_s"] = float64(len(specs)) / median(warmS)
	return nil
}

func (p *probes) simLayer() error {
	sch, err := schedule.Chimera(schedule.ChimeraConfig{D: 8, N: 16})
	if err != nil {
		return err
	}
	cfg := sim.Config{Model: model.BERT48(), Schedule: sch, MicroBatch: 4, W: 4, Device: sim.PizDaintNode(), Network: sim.AriesNetwork()}
	if _, err := sim.Run(cfg); err != nil {
		return err
	}
	p.out["sim.run_us"] = perCall(9, 100, func() { sim.Run(cfg) }) / 1e3
	return nil
}

// recorder is the smallest http.ResponseWriter: the handler probes call
// ServeHTTP directly, with no socket in the way.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

func serveDirect(h http.Handler, path string, body []byte) (int, []byte) {
	req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := &recorder{header: make(http.Header), status: http.StatusOK}
	h.ServeHTTP(rec, req)
	return rec.status, rec.body.Bytes()
}

// serveLayer prices the serve tier's pieces: codec, the handler on a cache
// hit and on a miss, the same hit over loopback, and snapshot write/restore.
func (p *probes) serveLayer() error {
	bodies, err := tenantBodies()
	if err != nil {
		return err
	}
	k := 0
	p.out["serve.decode_us"] = perCall(9, 2000, func() {
		var req serve.PlanRequest
		if serve.DecodeStrict(bytes.NewReader(bodies[k%zipfTenants]), &req) == nil {
			req.Resolve()
		}
		k++
	}) / 1e3
	req0, err := tenantRequest(0).Resolve()
	if err != nil {
		return err
	}
	preds, err := perfmodel.PlanOn(engine.New(engine.Workers(1)), req0)
	if err != nil {
		return err
	}
	p.out["serve.encode_us"] = perCall(9, 2000, func() {
		json.Marshal(serve.NewPlanResponse(req0.Model.Name, req0.P, req0.MiniBatch, preds))
	}) / 1e3

	srv := serve.New(serve.Config{CacheCapacity: zipfTenants})
	h := srv.Handler()
	miss := make([]time.Duration, 0, zipfTenants)
	for k := range bodies {
		start := time.Now()
		status, _ := serveDirect(h, "/v1/plan", bodies[k])
		miss = append(miss, time.Since(start))
		if status != http.StatusOK {
			return fmt.Errorf("handler miss for tenant %d: status %d", k, status)
		}
	}
	// The first sight of each of the 18 shapes also compiles; the median
	// over 2048 misses is the replay-only miss.
	p.out["serve.handler_miss_us"] = median(durationsUS(miss))
	k = 0
	p.out["serve.handler_hit_us"] = perCall(9, 2000, func() { serveDirect(h, "/v1/plan", bodies[k%zipfTenants]); k++ }) / 1e3

	l, err := serveLoopback(h)
	if err != nil {
		return err
	}
	defer l.close()
	client := newHTTPClient()
	defer client.close()
	hit := make([]time.Duration, 0, 4000)
	for i := 0; i < cap(hit); i++ {
		start := time.Now()
		status, _, end, err := client.post("http://"+l.addr+"/v1/plan", bodies[i%zipfTenants], -1)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("loopback hit: status %d %v", status, err)
		}
		hit = append(hit, end.Sub(start))
	}
	p.out["serve.http_hit_us"] = median(durationsUS(hit))
	p.out["serve.transport_us"] = p.out["serve.http_hit_us"] - p.out["serve.handler_hit_us"]

	path := filepath.Join(p.outDir, "probe.snapshot")
	var writeMS, restoreMS []float64
	for range 5 {
		start := time.Now()
		if _, err := srv.WriteSnapshot(path); err != nil {
			return err
		}
		writeMS = append(writeMS, float64(time.Since(start))/1e6)
		into := serve.New(serve.Config{CacheCapacity: zipfTenants})
		start = time.Now()
		if n, err := into.RestoreSnapshot(path); err != nil || n != zipfTenants {
			return fmt.Errorf("snapshot restore: %d entries, %v", n, err)
		}
		restoreMS = append(restoreMS, float64(time.Since(start))/1e6)
	}
	p.out["serve.snapshot_write_ms"] = median(writeMS)
	p.out["serve.snapshot_restore_ms"] = median(restoreMS)
	return nil
}

// zipfMiniOps sizes the probe's copy of serve_zipf: same tenants, caches and
// clients, an eighth of the ops, flight recorders large enough to keep every
// request's own hit-or-miss verdict.
const (
	zipfMiniPrime = 1500
	zipfMiniTimed = 4500
)

// routerAndZipf runs the serve_zipf mix in miniature with spans on, asks
// each replica's flight recorder which requests missed, and prices the
// router: ring lookup, the hop it adds to a cached request, a 64-item batch
// scatter. It then sends the same schedule open-loop at the fixed rate.
func (p *probes) routerAndZipf() error {
	w, err := newZipfWorkload(1)
	if err != nil {
		return err
	}
	tr := newTracer(1<<16, 0)
	c, err := newCluster(zipfReplicas, serve.Config{CacheCapacity: zipfCacheCap, FlightRecorder: 2 * (zipfMiniPrime + zipfMiniTimed)}, spanHandlers(tr))
	if err != nil {
		return err
	}
	defer c.close()
	client := newHTTPClient()
	defer client.close()
	url := c.routerURL + "/v1/plan"
	lat := make([]time.Duration, zipfMiniTimed)
	for i := 0; i < zipfMiniPrime+zipfMiniTimed; i++ {
		k := w.sched[i]
		op := i - zipfMiniPrime // priming ops carry negative ids
		start := time.Now()
		status, reply, end, err := client.post(url, w.bodies[k], op)
		if err != nil || status != http.StatusOK || digest(reply) != w.golden[k] {
			return fmt.Errorf("zipf mini op %d: status %d %v", i, status, err)
		}
		if op >= 0 {
			lat[op] = end.Sub(start)
		}
	}
	missed := make(map[int]bool)
	var hits, misses, evictions, shed float64
	for i, srv := range c.replicas {
		st := srv.Snapshot()
		evictions += float64(st.PlanCache.Evictions + st.Engine.Schedules.Evictions + st.Engine.Criticals.Evictions)
		shed += float64(st.Shed)
		_, raw, _, err := client.get(c.replicaURL[i] + "/debug/requests")
		if err != nil {
			return err
		}
		var dbg serve.DebugRequestsResponse
		if err := json.Unmarshal(raw, &dbg); err != nil {
			return err
		}
		for _, rec := range dbg.Requests {
			id, ok := strings.CutPrefix(rec.ID, "op-")
			var op int
			if _, err := fmt.Sscanf(id, "%d", &op); !ok || err != nil || op < 0 || rec.Name != "plan" {
				continue
			}
			if rec.Attrs["cache"] == "miss" {
				missed[op] = true
				misses++
			} else {
				hits++
			}
		}
	}
	if hits+misses != zipfMiniTimed {
		return fmt.Errorf("flight recorders kept %v of %d timed requests", hits+misses, zipfMiniTimed)
	}
	var hitUS, missUS []float64
	for op, d := range lat {
		if missed[op] {
			missUS = append(missUS, float64(d)/1e3)
		} else {
			hitUS = append(hitUS, float64(d)/1e3)
		}
	}
	all := durationsUS(lat)
	sort.Float64s(hitUS)
	sort.Float64s(missUS)
	p50, p95 := percentile(all, 0.50), percentile(all, 0.95)
	logf("zipf shape: miss share %.3f; hit p50 %.1fµs p90 %.1fµs; miss p10 %.1fµs p50 %.1fµs; all p50 %.1fµs p95 %.1fµs → p50 in hit mode: %v, p95 in miss mode: %v",
		misses/zipfMiniTimed, percentile(hitUS, 0.5), percentile(hitUS, 0.9), percentile(missUS, 0.1), percentile(missUS, 0.5), p50, p95,
		p50 <= percentile(hitUS, 0.9), p95 >= percentile(missUS, 0.1))
	p.out["serve.plan_cache_hit_share"] = hits / zipfMiniTimed
	p.out["serve.shed_429"] = shed
	p.out["engine.evictions"] = evictions
	p.out["router.failovers"] = c.failovers()

	// The router's hop: the same cached request through the router and
	// straight to the replica that owns it.
	ring := c.router.Ring()
	preq, err := tenantRequest(0).Resolve()
	if err != nil {
		return err
	}
	rawKey, _ := json.Marshal(preq)
	key := "plan:" + string(rawKey)
	p.out["router.ring_owner_ns"] = perCall(9, 20000, func() { ring.Owner(key) })
	owner := 0
	for i := range c.replicas {
		if ring.Owner(key) == "http://"+replicaName(i) {
			owner = i
		}
	}
	timePosts := func(url string, body []byte, n int) (float64, error) {
		ds := make([]time.Duration, n)
		for i := range ds {
			start := time.Now()
			status, _, end, err := client.post(url, body, -1)
			if err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("%s: status %d %v", url, status, err)
			}
			ds[i] = end.Sub(start)
		}
		return median(durationsUS(ds)), nil
	}
	viaRouter, err := timePosts(url, w.bodies[0], 1000)
	if err != nil {
		return err
	}
	direct, err := timePosts(c.replicaURL[owner]+"/v1/plan", w.bodies[0], 1000)
	if err != nil {
		return err
	}
	p.out["router.hop_us"] = viaRouter - direct

	var batch serve.BatchPlanRequest
	for k := 0; k < 64; k++ {
		batch.Requests = append(batch.Requests, tenantRequest(k))
	}
	batchBody, _ := json.Marshal(batch)
	scatter, err := timePosts(c.routerURL+"/v1/plan:batch", batchBody, 40)
	if err != nil {
		return err
	}
	p.out["router.batch_scatter_ms"] = scatter / 1e3

	var render bytes.Buffer
	reg := c.replicas[0].Registry()
	p.out["obs.prometheus_render_ms"] = perCall(5, 10, func() { render.Reset(); reg.WritePrometheus(&render) }) / 1e6

	open, err := openLoop(c, w, zipfOpenOps)
	if err != nil {
		return err
	}
	p.out["bench.loadgen_late_share"] = open.lateShare
	p.out["bench.open_loop_p50_ms"] = open.p50ms
	p.out["bench.open_loop_p95_ms"] = open.p95ms
	return nil
}

// fleetAndController drives one committed storm episode three ways — through
// ElasticSim.Ingest in process, through a controller over loopback with a
// stream subscriber attached, and as a recorded trace through the batch
// simulators — and prices the static allocator on the scenario's jobs.
func (p *probes) fleetAndController() error {
	sc, err := loadStormScenario()
	if err != nil {
		return err
	}
	esc, err := sc.ResolveLive()
	if err != nil {
		return err
	}
	ep, err := buildEpisode(sc, 0)
	if err != nil {
		return err
	}
	prime := len(ep.prime)

	// In process: the fleet layer alone.
	alloc := fleet.NewAllocator(engine.New(engine.Workers(1)))
	live, err := alloc.NewElasticSim(esc)
	if err != nil {
		return err
	}
	var ingest, fork []time.Duration
	for b, batch := range ep.batches {
		start := time.Now()
		err := live.Ingest(batch)
		d := time.Since(start)
		if err != nil {
			return err
		}
		if b >= prime {
			ingest = append(ingest, d)
			start = time.Now()
			live.Fork()
			fork = append(fork, time.Since(start))
		}
	}
	ingestUS := durationsUS(ingest)
	p.out["fleet.ingest_us_p50"] = percentile(ingestUS, 0.50)
	p.out["fleet.ingest_us_p95"] = percentile(ingestUS, 0.95)
	p.out["fleet.fork_us"] = median(durationsUS(fork))
	hit, miss := alloc.PlanStats()
	p.out["fleet.plan_memo_hit_share"] = float64(hit) / float64(hit+miss)

	// The static allocator, cold (fresh engine and plan memo) and warm.
	req := fleet.Request{Cluster: esc.Cluster, Jobs: esc.Jobs, Policy: esc.Policy}
	var coldMS, warmMS []float64
	for range 2 {
		a := fleet.NewAllocator(engine.New(engine.Workers(1)))
		start := time.Now()
		if _, err := a.Allocate(req); err != nil {
			return err
		}
		coldMS = append(coldMS, float64(time.Since(start))/1e6)
		warmMS = append(warmMS, perCall(3, 3, func() { a.Allocate(req) })/1e6)
	}
	p.out["fleet.allocate_cold_ms"] = median(coldMS)
	p.out["fleet.allocate_warm_ms"] = median(warmMS)

	// The batch simulators on the same storm: the elastic trace as recorded,
	// and its arrivals alone as a classic trace.
	var trace []fleet.Event
	var arrivals []fleet.Arrival
	for _, batch := range ep.batches {
		for _, ev := range batch {
			trace = append(trace, ev)
			if ev.Kind == fleet.EvArrival {
				arrivals = append(arrivals, fleet.Arrival{At: ev.At, Job: ev.Job, Work: ev.Work})
			}
		}
	}
	esc.Events = trace
	simEng := engine.New(engine.Workers(1))
	if _, err := fleet.SimulateElasticOn(simEng, esc); err != nil {
		return err
	}
	p.out["fleet.simulate_elastic_ms"] = perCall(3, 1, func() { fleet.SimulateElasticOn(simEng, esc) }) / 1e6
	classic := fleet.Scenario{Cluster: esc.Cluster, Jobs: esc.Jobs, Policy: esc.Policy, Trace: arrivals}
	if _, err := fleet.SimulateOn(simEng, classic); err != nil {
		return err
	}
	p.out["fleet.simulate_classic_ms"] = perCall(3, 1, func() { fleet.SimulateOn(simEng, classic) }) / 1e6

	// Over loopback: the controller around the same batches.
	ctl, err := controller.New(controller.Config{Scenario: sc, Workers: 1})
	if err != nil {
		return err
	}
	srv, err := serveLoopback(ctl.Handler())
	if err != nil {
		return err
	}
	defer srv.close()
	lc := &liveController{ctl: ctl, base: "http://" + srv.addr}
	sse := &http.Client{Transport: &http.Transport{}}
	defer sse.CloseIdleConnections()
	if err := lc.subscribe(sse); err != nil {
		return err
	}
	defer lc.close()
	client := newHTTPClient()
	defer client.close()
	var whatIf, getAlloc []time.Duration
	var replanMS, overheadUS []float64
	for _, op := range append(append([]stormOp(nil), ep.prime...), ep.timed...) {
		path := "/v1/fleet/events"
		if op.whatIf {
			path = "/v1/fleet/whatif"
		}
		start := time.Now()
		status, reply, end, err := client.post(lc.base+path, op.body, -1)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("controller %s batch %d: status %d %v", path, op.batch, status, err)
		}
		switch {
		case op.whatIf:
			whatIf = append(whatIf, end.Sub(start))
		case op.batch > prime:
			var resp controller.EventsResponse
			if err := json.Unmarshal(reply, &resp); err != nil {
				return err
			}
			replanMS = append(replanMS, resp.ReplanMillis)
			overheadUS = append(overheadUS, float64(end.Sub(start))/1e3-resp.ReplanMillis*1e3)
			start = time.Now()
			_, _, end, err = client.get(lc.base + "/v1/fleet/allocation")
			if err != nil {
				return err
			}
			getAlloc = append(getAlloc, end.Sub(start))
		}
	}
	sort.Float64s(replanMS)
	p.out["controller.replan_ms_p50"] = percentile(replanMS, 0.50)
	p.out["controller.replan_ms_p95"] = percentile(replanMS, 0.95)
	p.out["controller.overhead_us"] = median(overheadUS)
	p.out["controller.whatif_ms_p50"] = median(durationsUS(whatIf)) / 1e3
	p.out["controller.allocation_get_us"] = median(durationsUS(getAlloc))
	var logMS []float64
	for range 5 {
		start := time.Now()
		status, reply, end, err := client.get(lc.base + "/v1/fleet/events/log")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("controller log: status %d %v", status, err)
		}
		logMS = append(logMS, float64(end.Sub(start))/1e6)
		p.out["controller.log_bytes"] = float64(len(reply))
	}
	p.out["controller.log_get_ms"] = median(logMS)
	p.out["controller.sse_dropped"] = float64(lc.dropped.Load())
	return nil
}

func (p *probes) obsLayer() error {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench_probe_seconds", "probe")
	d := 137 * time.Microsecond
	p.out["obs.histogram_observe_ns"] = perCall(9, 50000, func() { h.Observe(d) })
	p.out["obs.span_ns"] = perCall(9, 20000, func() {
		s := obs.NewSpan("probe", "id")
		s.StartPhase("a")
		s.StartPhase("b")
		s.Finish()
	})
	return nil
}
