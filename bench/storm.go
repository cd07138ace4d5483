package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"chimera/internal/controller"
	"chimera/internal/engine"
	"chimera/internal/fleet"
	"chimera/internal/obs"
	"chimera/internal/serve"
)

// Fixed sizes of fleet_storm. A round runs every committed episode once, in
// a seeded order; the goldens hold each episode's expected replies, so the
// seed chooses the order the episodes are met in, never their content.
const (
	stormEpisodes      = 7
	stormEpisodeEvents = 200  // per episode; arrivals stop at fleet.MaxResident, so longer storms end as pure churn
	stormMeanWork      = 1e6  // sequences per arrival: sized for a dozen or more residents
	stormWhatIfEvery   = 4    // a what-if fork after every fourth ingested batch
	stormPrimeShare    = 0.20 // of an episode's batches, ingested inside set-up
	stormInterval      = 30.0 // seconds between storm slots (GenerateStorm's default)
)

func loadStormScenario() (serve.FleetScenario, error) {
	raw, err := committed.ReadFile("scenarios/fleet_storm.json")
	if err != nil {
		return serve.FleetScenario{}, err
	}
	var sc serve.FleetScenario
	if err := serve.DecodeStrict(bytes.NewReader(raw), &sc); err != nil {
		return sc, fmt.Errorf("scenarios/fleet_storm.json: %w", err)
	}
	return sc, nil
}

// stormOp is one request of an episode with its body pre-encoded.
type stormOp struct {
	whatIf bool
	body   []byte
	// batch is the number of live batches ingested once this op is done.
	batch int
	// events are what an events op ingests, or a what-if's hypothesis.
	events []fleet.Event
}

// stormEpisode is one seeded storm cut into its priming and timed ops.
type stormEpisode struct {
	seed    int64
	batches [][]fleet.Event
	prime   []stormOp
	timed   []stormOp
}

func episodeSeed(i int) int64 { return int64(1000 + i) }

// stormConfig is episode i's generator setting. The weights balance node
// losses (a failure takes a six-node rack one time in five) against joins, so
// the pool hovers near its initial size for the whole episode instead of
// draining to a handful of nodes that starve every resident.
func stormConfig(sc serve.FleetScenario, i int) fleet.StormConfig {
	names := make([]string, len(sc.Jobs))
	for j, job := range sc.Jobs {
		names[j] = job.Name
	}
	return fleet.StormConfig{
		Seed: episodeSeed(i), Jobs: names, Nodes: sc.Cluster.Nodes, Racks: 16,
		Events: stormEpisodeEvents, Interval: stormInterval, Work: stormMeanWork,
		ArrivalWeight: 0.30, FailWeight: 0.17, DrainWeight: 0.08, JoinWeight: 0.45,
		RackFailure: 0.2, MinNodes: sc.Cluster.Nodes / 2,
	}
}

// buildEpisode generates episode i's storm and lays out its requests: every
// batch is a POST /v1/fleet/events; after every fourth timed batch a
// POST /v1/fleet/whatif asks what one more arrival would do to the fleet.
func buildEpisode(sc serve.FleetScenario, i int) (*stormEpisode, error) {
	cfg := stormConfig(sc, i)
	names := cfg.Jobs
	storm, err := fleet.GenerateStorm(cfg)
	if err != nil {
		return nil, err
	}
	ep := &stormEpisode{seed: episodeSeed(i), batches: fleet.StormBatches(storm)}
	prime := int(stormPrimeShare * float64(len(ep.batches)))
	for b, batch := range ep.batches {
		body, err := json.Marshal(controller.EventsRequest{Events: serve.NewFleetEventRefs(batch)})
		if err != nil {
			return nil, err
		}
		op := stormOp{body: body, batch: b + 1, events: batch}
		if b < prime {
			ep.prime = append(ep.prime, op)
			continue
		}
		ep.timed = append(ep.timed, op)
		if (b-prime+1)%stormWhatIfEvery == 0 {
			hyp := []fleet.Event{{
				At: batch[0].At + stormInterval/2, Kind: fleet.EvArrival,
				Job: names[b%len(names)], Work: stormMeanWork,
			}}
			body, err := json.Marshal(controller.WhatIfRequest{Events: serve.NewFleetEventRefs(hyp)})
			if err != nil {
				return nil, err
			}
			ep.timed = append(ep.timed, stormOp{whatIf: true, body: body, batch: b + 1, events: hyp})
		}
	}
	return ep, nil
}

// stripField removes `"name":<scalar>,` from a JSON object's bytes. The
// controller's replies carry a wall-clock reading (replan_ms) and a cost
// integral the trace replay anchors differently; neither belongs in a
// digest that must repeat.
func stripField(body []byte, name string) []byte {
	key := []byte(`"` + name + `":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return body
	}
	j := bytes.IndexByte(body[i:], ',')
	if j < 0 {
		return body
	}
	out := make([]byte, 0, len(body))
	out = append(out, body[:i]...)
	return append(out, body[i+j+1:]...)
}

func stormDigest(reply []byte) string {
	return digest(stripField(stripField(reply, "replan_ms"), "cost"))
}

type stormWorkload struct {
	scenario serve.FleetScenario
	episodes []*stormEpisode
	golden   [][]string // per episode, per timed op
	order    []int      // the round's episode order
	// at maps a round's op index to (position in order, op within episode).
	at     [][2]int
	opKeys []int
}

func newStormWorkload(seed int64) (*stormWorkload, error) {
	sc, err := loadStormScenario()
	if err != nil {
		return nil, err
	}
	var g stormGolden
	if err := readCommitted("golden/storm.json", &g); err != nil {
		return nil, err
	}
	if len(g.Episodes) != stormEpisodes {
		return nil, fmt.Errorf("golden/storm.json holds %d episodes, want %d; run -update-golden", len(g.Episodes), stormEpisodes)
	}
	w := &stormWorkload{scenario: sc, order: rand.New(rand.NewSource(seed)).Perm(stormEpisodes)}
	for i := 0; i < stormEpisodes; i++ {
		ep, err := buildEpisode(sc, i)
		if err != nil {
			return nil, err
		}
		if g.Episodes[i].Seed != ep.seed || len(g.Episodes[i].Digests) != len(ep.timed) {
			return nil, fmt.Errorf("golden/storm.json episode %d does not match the generated storm; run -update-golden", i)
		}
		w.episodes = append(w.episodes, ep)
		w.golden = append(w.golden, g.Episodes[i].Digests)
	}
	for pos, e := range w.order {
		for j := range w.episodes[e].timed {
			w.at = append(w.at, [2]int{pos, j})
		}
	}
	w.opKeys = positions(len(w.at))
	return w, nil
}

func (w *stormWorkload) name() string { return "fleet_storm" }

// keys: a controller's reply depends on the whole storm before it.
func (w *stormWorkload) keys() []int { return w.opKeys }

// liveController is one episode's controller with an SSE subscriber attached.
type liveController struct {
	ctl    *controller.Controller
	base   string // URL prefix of this controller on the round's server
	cancel context.CancelFunc
	// dropped counts allocation updates the subscriber never saw: gaps in
	// the version sequence of the updates it did read (the hub skips a
	// subscriber whose buffer is full).
	dropped atomic.Int64
	done    chan struct{}
}

// streamVersion reads the version out of one SSE data line.
func streamVersion(line string) (int64, bool) {
	_, rest, ok := strings.Cut(line, `"version":`)
	if !ok {
		return 0, false
	}
	var v int64
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		v = v*10 + int64(rest[n]-'0')
		n++
	}
	return v, n > 0
}

// subscribe opens the allocation stream and returns once the initial
// snapshot event has arrived, so every later batch publishes to a
// registered subscriber. The reader follows the stream until it ends.
func (lc *liveController) subscribe(hc *http.Client) error {
	ctx, cancel := context.WithCancel(context.Background())
	lc.cancel = cancel
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, lc.base+"/v1/fleet/stream", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	rd := bufio.NewReader(resp.Body)
	first := make(chan error, 1)
	lc.done = make(chan struct{})
	go func() {
		defer close(lc.done)
		defer resp.Body.Close()
		last := int64(-1)
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				if last < 0 {
					first <- err
				}
				return
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			v, ok := streamVersion(line)
			if !ok {
				continue
			}
			if last < 0 {
				first <- nil
			} else if v > last+1 {
				lc.dropped.Add(v - last - 1)
			}
			last = v
		}
	}()
	return <-first
}

func (lc *liveController) close() {
	if lc.cancel != nil {
		lc.cancel()
		<-lc.done
	}
}

type stormRound struct {
	w      *stormWorkload
	srv    *loopback
	live   []*liveController // in the round's episode order
	client *httpClient
	sse    *http.Client
	t      *tracer
	// replanNS is, per traced events op, the ingest time the controller
	// reported in its reply.
	replanNS []int64
}

// setup builds the round's engine and, for every episode, a fresh controller
// on it with a stream subscriber attached, and ingests the episode's first
// fifth. All controllers sit behind one loopback server, one URL prefix
// each, so the client keeps one connection for the whole round.
func (w *stormWorkload) setup(tr *tracer) (round, error) {
	eng := engine.New(engine.Workers(1), engine.Observe(obs.NewRegistry()))
	r := &stormRound{
		w:      w,
		client: newHTTPClient(), sse: &http.Client{Transport: &http.Transport{}}, t: tr,
		replanNS: make([]int64, len(w.at)),
	}
	mux := http.NewServeMux()
	wrap := spanHandlers(tr)
	for pos := range w.order {
		ctl, err := controller.New(controller.Config{Scenario: w.scenario, Engine: eng, Registry: obs.NewRegistry()})
		if err != nil {
			return nil, err
		}
		prefix := fmt.Sprintf("/ep%d", pos)
		h := http.Handler(ctl.Handler())
		if wrap != nil {
			h = wrap("controller.handle", h)
		}
		mux.Handle(prefix+"/", http.StripPrefix(prefix, h))
		r.live = append(r.live, &liveController{ctl: ctl})
	}
	srv, err := serveLoopback(mux)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	for pos, e := range w.order {
		lc := r.live[pos]
		lc.base = fmt.Sprintf("http://%s/ep%d", srv.addr, pos)
		if err := lc.subscribe(r.sse); err != nil {
			r.close()
			return nil, fmt.Errorf("episode %d: stream: %w", e, err)
		}
		for _, op := range w.episodes[e].prime {
			status, reply, _, err := r.client.post(lc.base+"/v1/fleet/events", op.body, -1)
			if err != nil || status != http.StatusOK {
				r.close()
				return nil, fmt.Errorf("episode %d: priming batch %d: status %d %s %v", e, op.batch, status, reply, err)
			}
		}
	}
	return r, nil
}

// replanNanos reads replan_ms out of an events reply.
func replanNanos(reply []byte) int64 {
	_, rest, ok := bytes.Cut(reply, []byte(`"replan_ms":`))
	if !ok {
		return 0
	}
	var ms float64
	if _, err := fmt.Sscanf(string(rest[:min(len(rest), 32)]), "%g", &ms); err != nil {
		return 0
	}
	return int64(ms * 1e6)
}

// synthesize adds a fleet.ingest span inside every controller.handle span
// whose reply reported an ingest time, centred in the handler's interval:
// the controller's own measure of ElasticSim.Ingest, which the harness
// cannot wrap from outside an HTTP handler.
func (r *stormRound) synthesize(tr *tracer) {
	for id, s := range tr.recorded() {
		if s.Name != "controller.handle" || s.Op < 0 || r.replanNS[s.Op] == 0 {
			continue
		}
		d := min(r.replanNS[s.Op], s.End-s.Start)
		start := s.Start + (s.End-s.Start-d)/2
		tr.add(span{Name: "fleet.ingest", Op: s.Op, Parent: int32(id), Start: start, End: start + d})
	}
}

func (r *stormRound) do(i int) (time.Time, time.Time, bool) {
	pos, j := r.w.at[i][0], r.w.at[i][1]
	e := r.w.order[pos]
	op := &r.w.episodes[e].timed[j]
	path := "/v1/fleet/events"
	if op.whatIf {
		path = "/v1/fleet/whatif"
	}
	t := r.t.forOp(i)
	begin := time.Now()
	sp := t.begin("bench.http_op", i, noParent)
	status, reply, end, err := r.client.post(r.live[pos].base+path, op.body, i)
	t.end(sp)
	if t != nil && !op.whatIf {
		r.replanNS[i] = replanNanos(reply)
	}
	return begin, end, err == nil && status == http.StatusOK && stormDigest(reply) == r.w.golden[e][j]
}

// counters reports the allocators' plan-memo hit share over the round (the
// fleet layer's own bid counters) and how many allocation updates the stream
// subscribers were skipped for.
func (r *stormRound) counters() map[string]float64 {
	var dropped, hit, miss float64
	for _, lc := range r.live {
		dropped += float64(lc.dropped.Load())
		for name, v := range lc.ctl.Registry().Snapshot().Counters {
			switch {
			case strings.HasPrefix(name, "fleet_allocator_bids_total") && strings.Contains(name, `"hit"`):
				hit += float64(v)
			case strings.HasPrefix(name, "fleet_allocator_bids_total") && strings.Contains(name, `"miss"`):
				miss += float64(v)
			}
		}
	}
	return map[string]float64{
		"controller.sse_dropped":    dropped,
		"fleet.plan_memo_hit_share": hit / (hit + miss),
	}
}

func (r *stormRound) close() {
	for _, lc := range r.live {
		lc.close()
	}
	if r.srv != nil {
		r.srv.close()
	}
	r.client.close()
	r.sse.CloseIdleConnections()
}
