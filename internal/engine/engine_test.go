package engine

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// testGrid builds a mixed-scheme (scheme, D, B) grid against one model and
// platform; infeasible points are skipped the way the experiment sweeps do.
func testGrid(m model.Config, p, bhat int, ds, bs []int) []Spec {
	dev, net := sim.PizDaintNode(), sim.AriesNetwork()
	var specs []Spec
	for _, scheme := range []string{"chimera", "gpipe", "dapple", "gems", "pipedream-2bw"} {
		for _, d := range ds {
			if p%d != 0 || m.Layers%d != 0 {
				continue
			}
			w := p / d
			for _, b := range bs {
				if bhat%(w*b) != 0 {
					continue
				}
				n := bhat / (w * b)
				if n < 1 || (scheme == "pipedream-2bw" && n < d) {
					continue
				}
				key := ScheduleKey{Scheme: scheme, D: d, N: n}
				if scheme == "chimera" {
					key = ChimeraKey(d, n, 0, schedule.Direct)
				}
				specs = append(specs, Spec{
					Sched: key, Model: m, MicroBatch: b, W: w,
					AutoRecompute: true, Device: dev, Network: net,
				})
			}
		}
	}
	return specs
}

func requireEqualOutcomes(t *testing.T, want, got []Outcome) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("outcome count: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if (w.Err == nil) != (g.Err == nil) {
			t.Fatalf("outcome %d: error mismatch: %v vs %v", i, w.Err, g.Err)
		}
		if w.Recompute != g.Recompute {
			t.Fatalf("outcome %d: recompute %v vs %v", i, w.Recompute, g.Recompute)
		}
		if w.Result == nil && g.Result == nil {
			continue
		}
		if !reflect.DeepEqual(w.Result, g.Result) {
			t.Fatalf("outcome %d: results differ:\nserial:   %+v\nparallel: %+v", i, w.Result, g.Result)
		}
	}
}

// TestSweepMatchesSerial: the worker-pool engine must return bit-identical
// results to the serial reference across grid shapes.
func TestSweepMatchesSerial(t *testing.T) {
	grids := [][]Spec{
		testGrid(model.BERT48(), 16, 128, []int{2, 4, 8}, []int{1, 2, 4, 8}),
		testGrid(model.GPT2Small32(), 16, 64, []int{4, 8, 16}, []int{1, 2}),
		testGrid(model.BERT48Seq512(), 8, 64, []int{2, 4}, []int{1, 4}),
	}
	for gi, specs := range grids {
		if len(specs) < 8 {
			t.Fatalf("grid %d too small (%d specs) to be a meaningful check", gi, len(specs))
		}
		serial := New(Workers(1)).Sweep(specs)
		parallel := New(Workers(8)).Sweep(specs)
		requireEqualOutcomes(t, serial, parallel)
	}
}

// TestSweepRepeatIdentical: re-sweeping the same grid (now fully cached)
// returns the same outcomes — cache-hit correctness.
func TestSweepRepeatIdentical(t *testing.T) {
	specs := testGrid(model.BERT48(), 16, 128, []int{2, 4, 8}, []int{1, 2, 4, 8})
	e := New(Workers(4))
	first := e.Sweep(specs)
	st := e.Stats()
	if st.OutcomeMisses != uint64(len(specs)) {
		t.Fatalf("first sweep: %d outcome misses, want %d", st.OutcomeMisses, len(specs))
	}
	second := e.Sweep(specs)
	st = e.Stats()
	if st.OutcomeHits < uint64(len(specs)) {
		t.Fatalf("second sweep: only %d outcome hits, want ≥ %d", st.OutcomeHits, len(specs))
	}
	requireEqualOutcomes(t, first, second)
	for i := range first {
		if first[i].Result != second[i].Result {
			t.Fatalf("outcome %d: cached result not shared (distinct pointers)", i)
		}
	}
	if st.HitRate() <= 0 {
		t.Fatal("hit rate not positive after repeat sweep")
	}
}

// TestConcurrentSweepCallers drives many goroutines through one engine on
// overlapping grids; run under -race this is the engine's stress test.
func TestConcurrentSweepCallers(t *testing.T) {
	e := New(Workers(4))
	specs := testGrid(model.BERT48(), 16, 128, []int{2, 4, 8}, []int{1, 2, 4, 8})
	want := New(Workers(1)).Sweep(specs)
	var wg sync.WaitGroup
	const callers = 8
	got := make([][]Outcome, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Overlapping slices: each caller sweeps a rotated view.
			rot := make([]Spec, len(specs))
			for i := range specs {
				rot[i] = specs[(i+c)%len(specs)]
			}
			outs := e.Sweep(rot)
			back := make([]Outcome, len(outs))
			for i := range outs {
				back[(i+c)%len(specs)] = outs[i]
			}
			got[c] = back
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		requireEqualOutcomes(t, want, got[c])
	}
}

// TestMemoSingleflight: concurrent Do calls for one key run the compute
// function exactly once and share its value.
func TestMemoSingleflight(t *testing.T) {
	m := NewMemo[int, int]()
	var calls atomic.Int32
	var wg sync.WaitGroup
	results := make([]int, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = m.Do(7, func() int {
				calls.Add(1)
				return 42
			})
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("caller %d got %d, want 42", i, r)
		}
	}
	hits, misses := m.Stats()
	if misses != 1 || hits != 31 {
		t.Fatalf("stats (hits=%d, misses=%d), want (31, 1)", hits, misses)
	}
	if m.Len() != 1 {
		t.Fatalf("len %d, want 1", m.Len())
	}
	m.Reset()
	if h, mi := m.Stats(); h != 0 || mi != 0 || m.Len() != 0 {
		t.Fatal("reset did not clear the memo")
	}
}

// keyOf returns the ScheduleKey describing an already-built schedule; it is
// the inverse of buildSchedule and guards the cache's canonical-key
// invariant in the tests below.
func keyOf(s *schedule.Schedule) ScheduleKey {
	k := ScheduleKey{
		Scheme:    s.Scheme,
		D:         s.D,
		N:         s.N,
		Scheduler: s.Scheduler,
		Speed:     sim.EncodeSpeedFactors(s.PlacementSpeed),
	}
	if s.Scheme == "chimera" {
		k.F = s.F
		// Backward halving reuses the doubled-forward op structure, so a
		// halved schedule may set both flags: check HalvedBackward first.
		switch {
		case s.HalvedBackward:
			k.Concat = schedule.BackwardHalving
		case s.DoubledForward:
			k.Concat = schedule.ForwardDoubling
		}
	}
	return k
}

// TestScheduleKeyCanonical: keys from configs and keys recovered from built
// schedules must coincide, so cache entries are shared.
func TestScheduleKeyCanonical(t *testing.T) {
	key := ChimeraKey(4, 8, 0, schedule.Direct)
	e := New()
	s, err := e.Schedule(key)
	if err != nil {
		t.Fatal(err)
	}
	if got := keyOf(s); got != key {
		t.Fatalf("Key(schedule) = %+v, want %+v", got, key)
	}
	for _, mode := range []schedule.ConcatMode{schedule.ForwardDoubling, schedule.BackwardHalving} {
		key := ChimeraKey(4, 8, 1, mode)
		s, err := e.Schedule(key)
		if err != nil {
			t.Fatal(err)
		}
		if got := keyOf(s); got != key {
			t.Fatalf("Key(schedule) = %+v, want %+v", got, key)
		}
	}
	bKey := ScheduleKey{Scheme: "dapple", D: 4, N: 8}
	s, err = e.Schedule(bKey)
	if err != nil {
		t.Fatal(err)
	}
	if got := keyOf(s); got != bKey {
		t.Fatalf("Key(baseline schedule) = %+v, want %+v", got, bKey)
	}
}

// TestScheduleSharedAndSingleflight: one construction per key under
// concurrent demand, and all callers see the same schedule.
func TestScheduleSharedAndSingleflight(t *testing.T) {
	e := New()
	key := ChimeraKey(8, 8, 0, schedule.Direct)
	const callers = 16
	out := make([]*schedule.Schedule, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := e.Schedule(key)
			if err != nil {
				t.Error(err)
				return
			}
			out[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if out[i] != out[0] {
			t.Fatal("schedule cache returned distinct instances for one key")
		}
	}
	st := e.Stats()
	if st.ScheduleMisses != 1 {
		t.Fatalf("%d schedule constructions, want 1", st.ScheduleMisses)
	}
}

// TestCriticalPathMemo: engine critical paths equal the direct computation
// and are cached.
func TestCriticalPathMemo(t *testing.T) {
	e := New()
	key := ChimeraKey(6, 6, 0, schedule.Direct)
	cf, cb, err := e.CriticalPath(key)
	if err != nil {
		t.Fatal(err)
	}
	if cf != 6 || cb != 10 {
		t.Fatalf("critical path (%d, %d), paper's Fig. 6 says (6, 10)", cf, cb)
	}
	if _, _, err := e.CriticalPath(key); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.CriticalMisses != 1 || st.CriticalHits != 1 {
		t.Fatalf("critical path memo (hits=%d, misses=%d), want (1, 1)", st.CriticalHits, st.CriticalMisses)
	}
}

// TestEvaluateErrorCached: schedule-construction failures surface as
// outcome errors and are cached like values.
func TestEvaluateErrorCached(t *testing.T) {
	e := New()
	bad := Spec{
		Sched: ScheduleKey{Scheme: "chimera", D: 5, N: 4}, // odd D: invalid
		Model: model.BERT48(), MicroBatch: 1, W: 1,
		Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
	}
	for i := 0; i < 2; i++ {
		if o := e.Evaluate(bad); o.Err == nil {
			t.Fatal("odd-D chimera must fail")
		}
	}
	st := e.Stats()
	if st.OutcomeMisses != 1 || st.OutcomeHits != 1 {
		t.Fatalf("error outcome not cached (hits=%d, misses=%d)", st.OutcomeHits, st.OutcomeMisses)
	}
}

// TestForEachCoversAllIndices: every index runs exactly once at any pool
// size, including the serial fallback.
func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		e := New(Workers(workers))
		const n = 100
		var hits [n]atomic.Int32
		e.ForEach(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestForEachActuallyConcurrent: with a pool of k workers, k tasks must be
// able to run simultaneously — each task blocks until all k have started.
// If the pool silently degenerated to a serial loop this deadlocks, caught
// by the timeout. (The bench JSON's uncached_speedup is the wall-clock
// counterpart of this check on multi-core machines.)
func TestForEachActuallyConcurrent(t *testing.T) {
	const k = 4
	e := New(Workers(k))
	var started atomic.Int32
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		e.ForEach(k, func(int) {
			if started.Add(1) == k {
				close(release)
			}
			<-release
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("pool of %d workers never ran %d tasks concurrently (started=%d)", k, k, started.Load())
	}
}

// TestKeyCanonicalizationSharesCache: equivalent keys — facade-style F=0
// vs ChimeraKey's F=1, and non-direct concat with N ≤ D — must land on one
// cache entry at every memo boundary.
func TestKeyCanonicalizationSharesCache(t *testing.T) {
	e := New()
	raw := ScheduleKey{Scheme: "chimera", D: 4, N: 8}
	s1, err := e.Schedule(raw)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Schedule(ChimeraKey(4, 8, 1, schedule.Direct))
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("F=0 and F=1 chimera keys built separate schedules")
	}
	// N ≤ D: every concat mode is the direct construction.
	for _, mode := range []schedule.ConcatMode{schedule.Direct, schedule.ForwardDoubling, schedule.BackwardHalving} {
		if _, err := e.Schedule(ChimeraKey(4, 4, 1, mode)); err != nil {
			t.Fatal(err)
		}
	}
	// Baselines ignore F/Concat.
	if _, err := e.Schedule(ScheduleKey{Scheme: "gpipe", D: 4, N: 8, F: 3, Concat: schedule.ForwardDoubling}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Schedule(ScheduleKey{Scheme: "gpipe", D: 4, N: 8}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ScheduleMisses != 3 { // chimera(4,8), chimera(4,4), gpipe(4,8)
		t.Fatalf("%d schedule constructions, want 3 (canonicalization failed)", st.ScheduleMisses)
	}

	// Outcome memo dedupes through Spec.Sched too.
	spec := Spec{
		Sched: raw, Model: model.BERT48(), MicroBatch: 2, W: 4,
		AutoRecompute: true, Device: sim.PizDaintNode(), Network: sim.AriesNetwork(),
	}
	alias := spec
	alias.Sched = ChimeraKey(4, 8, 0, schedule.Direct)
	o1, o2 := e.Evaluate(spec), e.Evaluate(alias)
	if o1.Err != nil || o2.Err != nil {
		t.Fatal(o1.Err, o2.Err)
	}
	if o1.Result != o2.Result {
		t.Fatal("aliased specs evaluated separately")
	}
}

// TestWorkersBoundEngineWide: concurrent ForEach callers on one engine are
// collectively limited to Workers(n) in-flight bodies.
func TestWorkersBoundEngineWide(t *testing.T) {
	const cap = 3
	e := New(Workers(cap))
	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.ForEach(20, func(int) {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				inFlight.Add(-1)
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > cap {
		t.Fatalf("observed %d concurrent bodies, Workers(%d) should bound engine-wide", got, cap)
	}
}

// TestEngineReset clears caches so evaluations recompute.
func TestEngineReset(t *testing.T) {
	e := New(Workers(2))
	specs := testGrid(model.BERT48(), 16, 64, []int{4}, []int{1, 2})
	first := e.Sweep(specs)
	e.Reset()
	if st := e.Stats(); st.OutcomeMisses != 0 {
		t.Fatal("reset did not clear stats")
	}
	second := e.Sweep(specs)
	requireEqualOutcomes(t, first, second)
	if st := e.Stats(); st.OutcomeMisses != uint64(len(specs)) {
		t.Fatalf("after reset: %d misses, want %d", st.OutcomeMisses, len(specs))
	}
}
