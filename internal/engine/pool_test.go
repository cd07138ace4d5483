package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/sim"
)

// TestForEachNestedNoDeadlock: a ForEach body may itself evaluate through
// the engine (the fleet allocator's per-job evaluations call PlanOn, whose
// grid fans out on the same engine). The old fixed fan-out pool deadlocked
// here under saturation: the outer bodies held every worker slot and the
// inner ForEach blocked forever waiting for one. The pool detects re-entry
// and runs nested task sets on the slot the enclosing body already holds.
func TestForEachNestedNoDeadlock(t *testing.T) {
	e := New(Workers(2))
	done := make(chan struct{})
	var total atomic.Int64
	go func() {
		defer close(done)
		e.ForEach(8, func(i int) {
			e.ForEach(8, func(j int) {
				e.ForEach(2, func(k int) {
					total.Add(int64(i*16 + j*2 + k + 1))
				})
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested ForEach deadlocked under saturation")
	}
	// Σ (i·16 + j·2 + k + 1) over i,j ∈ [0,8), k ∈ [0,2).
	want := int64(0)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			for k := 0; k < 2; k++ {
				want += int64(i*16 + j*2 + k + 1)
			}
		}
	}
	if got := total.Load(); got != want {
		t.Fatalf("nested ForEach ran wrong body set: sum %d, want %d", got, want)
	}
}

// awaitForEach fails the test unless done closes within the timeout: the
// pool tests below turn a hang (a leaked token, a nested call waiting for
// one) into a failure with a name.
func awaitForEach(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s: ForEach did not return", what)
	}
}

// requireAllTokensHome asserts token conservation on a quiescent engine:
// every slot token is back in the channel (helpers return theirs as they
// wind down, hence the wait).
func requireAllTokensHome(t *testing.T, e *Engine) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(e.slots) != e.workers {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d slot tokens home on a quiescent engine", len(e.slots), e.workers)
		}
		time.Sleep(time.Millisecond)
	}
}

// down calls f from depth extra stack frames below its caller.
//
//go:noinline
func down(depth int, f func()) {
	if depth == 0 {
		f()
		return
	}
	down(depth-1, f)
}

// TestForEachAdmissionAllocFree: admission on an idle engine takes a token
// and runs — no goroutine identity, no registry entry, no allocation — and
// the depth of the caller's stack is not an input.
func TestForEachAdmissionAllocFree(t *testing.T) {
	e := New(Workers(1))
	noop := func(int) {}
	measure := func() float64 {
		return testing.AllocsPerRun(200, func() { e.ForEach(1, noop) })
	}
	if got := measure(); got != 0 {
		t.Errorf("idle ForEach(1, noop): %v allocs/op, want 0", got)
	}
	down(30, func() {
		if got := measure(); got != 0 {
			t.Errorf("idle ForEach(1, noop) from 30 frames down: %v allocs/op, want 0", got)
		}
	})
	requireAllTokensHome(t, e)
}

// TestForEachPanicReleasesSlot: a body that panics on the calling goroutine
// (a plan body under net/http's recover, say) must not take the slot token
// with it — on a Workers(1) engine that would block every later call.
func TestForEachPanicReleasesSlot(t *testing.T) {
	e := New(Workers(1))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("body panic did not propagate to the ForEach caller")
			}
		}()
		e.ForEach(1, func(int) { panic("boom") })
	}()
	done := make(chan struct{})
	ran := false
	go func() {
		defer close(done)
		e.ForEach(1, func(int) { ran = true })
	}()
	awaitForEach(t, done, "after a recovered body panic")
	if !ran {
		t.Fatal("ForEach after a recovered body panic ran no body")
	}
	requireAllTokensHome(t, e)
}

// TestHelperBodyNestsOnSaturatedPool: four bodies meet at a barrier, so the
// owner and three helpers hold all four tokens at once; each then nests
// three deep while the pool is still saturated. The helpers' goroutines were
// never admitted through ForEach — only their stacks say they are inside a
// body — and every nested call must run in place rather than wait.
func TestHelperBodyNestsOnSaturatedPool(t *testing.T) {
	const workers = 4
	e := New(Workers(workers))
	var arrived, nested sync.WaitGroup
	arrived.Add(workers)
	nested.Add(workers)
	var leaves atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.ForEach(workers, func(int) {
			arrived.Done()
			arrived.Wait() // all four tokens are out from here …
			e.ForEach(3, func(int) {
				e.ForEach(3, func(int) {
					e.ForEach(3, func(int) { leaves.Add(1) })
				})
			})
			nested.Done()
			nested.Wait() // … to here
		})
	}()
	awaitForEach(t, done, "bodies nesting on a saturated pool")
	if got, want := leaves.Load(), int64(workers*27); got != want {
		t.Fatalf("nested bodies ran %d leaves, want %d", got, want)
	}
	requireAllTokensHome(t, e)
}

// TestWorkersBoundNestedBodies is TestWorkersBoundEngineWide with the
// counter moved into nested bodies: four top-level callers whose bodies
// call back in, some finding a spare token and some running in place, never
// have more than Workers(n) leaf bodies executing at once.
func TestWorkersBoundNestedBodies(t *testing.T) {
	const cap = 3
	e := New(Workers(cap))
	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.ForEach(6, func(int) {
				e.ForEach(4, func(int) {
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
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > cap {
		t.Fatalf("observed %d concurrent nested bodies, Workers(%d) should bound engine-wide", got, cap)
	}
	requireAllTokensHome(t, e)
}

// TestSaturatedTopLevelCallerBlocks: running in place is for calls already
// inside a body. A fresh goroutine calling a saturated pool waits for a
// token — its body must not start while the only token's holder is still
// running — and gives the token back when it is done.
func TestSaturatedTopLevelCallerBlocks(t *testing.T) {
	e := New(Workers(1))
	var holding atomic.Bool
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan struct{})
	go func() {
		defer close(first)
		e.ForEach(1, func(int) {
			holding.Store(true)
			close(started)
			<-release
			holding.Store(false)
		})
	}()
	<-started
	var overlapped atomic.Bool
	second := make(chan struct{})
	go func() {
		defer close(second)
		e.ForEach(1, func(int) { overlapped.Store(holding.Load()) })
	}()
	// No event marks "the second caller has had its chance to misbehave";
	// give it a moment. A slow machine can only make this test pass.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-second:
		t.Fatal("top-level ForEach returned while the pool's only token was held")
	default:
	}
	close(release)
	awaitForEach(t, first, "token holder")
	awaitForEach(t, second, "blocked top-level caller after the token returned")
	if overlapped.Load() {
		t.Fatal("top-level caller's body ran beside the token holder's on a Workers(1) engine")
	}
	third := make(chan struct{})
	go func() {
		defer close(third)
		e.ForEach(1, func(int) {})
	}()
	awaitForEach(t, third, "after a caller that had to wait for its token")
	requireAllTokensHome(t, e)
}

// TestWorkerBusyBoundedByWall: engine_worker_busy_nanoseconds_total is time
// a slot spent inside bodies, so it cannot exceed the wall time it is read
// over. Bodies a nested call runs in place sit inside the enclosing body's
// interval and must not be charged a second time.
func TestWorkerBusyBoundedByWall(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Workers(1), Observe(reg))
	start := time.Now()
	e.ForEach(4, func(int) {
		e.ForEach(4, func(int) { time.Sleep(time.Millisecond) })
	})
	elapsed := time.Since(start)
	busy := time.Duration(reg.Snapshot().Counters[`engine_worker_busy_nanoseconds_total{worker="0"}`])
	if busy > elapsed {
		t.Fatalf("slot 0 busy %v over %v of wall time: nested bodies double-counted", busy, elapsed)
	}
	if busy < 16*time.Millisecond {
		t.Fatalf("slot 0 busy %v, want at least the 16 ms its bodies slept", busy)
	}
}

// outcomeBytes folds a sweep's outcomes into one comparable string so the
// determinism stress below asserts byte-identity, not just value equality.
func outcomeBytes(outs []Outcome) string {
	var b strings.Builder
	for i, o := range outs {
		fmt.Fprintf(&b, "%d:%v:%+v\n", i, o.Err, o.Result)
	}
	return b.String()
}

// TestSweepDeterministicAcrossPoolSizes: the same irregular task set must
// produce byte-identical Sweep results and identical memo hit/miss counters
// at every pool size — who claims which index may reorder execution, never
// results or cache population. Run under -race in CI, this is the shared
// counter's stress test.
func TestSweepDeterministicAcrossPoolSizes(t *testing.T) {
	// Two models' grids concatenated: per-task cost varies widely (D from
	// 2 to 16, five schemes), the irregular shape claiming one index at a
	// time exists for.
	specs := testGrid(model.BERT48(), 16, 128, []int{2, 4, 8}, []int{1, 2, 4, 8})
	specs = append(specs, testGrid(model.GPT2Small32(), 16, 64, []int{4, 8, 16}, []int{1, 2})...)
	if len(specs) < 24 {
		t.Fatalf("grid too small (%d specs) to stress the scheduler", len(specs))
	}
	var refOut string
	var refStats Stats
	for _, w := range []int{1, 4, 16} {
		e := New(Workers(w))
		got := outcomeBytes(e.Sweep(specs))
		stats := e.Stats()
		if w == 1 {
			refOut, refStats = got, stats
			continue
		}
		if got != refOut {
			t.Errorf("workers=%d: sweep outcomes not byte-identical to workers=1", w)
		}
		if stats != refStats {
			t.Errorf("workers=%d: memo stats diverged: %+v, want %+v", w, stats, refStats)
		}
	}
}

// TestReferenceCoreIdenticalOutcomes: the ReferenceCore engine option swaps
// graph replay for the retained map interpreter; outcomes must stay
// bit-identical — it is the benchmark's honest baseline only if the two
// cores compute the same function.
func TestReferenceCoreIdenticalOutcomes(t *testing.T) {
	specs := testGrid(model.BERT48(), 16, 128, []int{2, 4, 8}, []int{1, 2, 4, 8})
	opt := New(Workers(1)).Sweep(specs)
	ref := New(Workers(1), ReferenceCore()).Sweep(specs)
	if got, want := outcomeBytes(ref), outcomeBytes(opt); got != want {
		t.Fatal("reference-core outcomes diverged from optimized core")
	}
}

// BenchmarkMemoKeyAllocs measures a warm Evaluate — canonicalisation, memo
// lookup and outcome return. The zero-alloc hit path (Memo.Cached plus
// interned speed-factor decoding) keeps this at 0 allocs/op;
// TestMemoHitAllocFree gates it.
func BenchmarkMemoKeyAllocs(b *testing.B) {
	e := New()
	specs := testGrid(model.BERT48(), 16, 128, []int{4}, []int{2})
	if len(specs) == 0 {
		b.Fatal("empty grid")
	}
	spec := specs[0]
	if o := e.Evaluate(spec); o.Err != nil {
		b.Fatal(o.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Evaluate(spec)
	}
}

// TestMemoHitAllocFree: a warm Evaluate of a cached spec — what a primed
// daemon does per sweep point — allocates nothing, on a fixed placement and
// on a list-scheduled one whose key canonicalisation decodes (interned)
// speed factors.
func TestMemoHitAllocFree(t *testing.T) {
	e := New()
	fixed := testGrid(model.BERT48(), 16, 128, []int{4}, []int{2})[0]
	hetero := fixed
	hetero.SpeedFactors = sim.EncodeSpeedFactors([]float64{1, 1, 2, 1})
	hetero.Sched.Scheduler, hetero.Sched.Speed = "heft", hetero.SpeedFactors
	for _, spec := range []Spec{fixed, hetero} {
		if o := e.Evaluate(spec); o.Err != nil {
			t.Fatal(o.Err)
		}
		if allocs := testing.AllocsPerRun(100, func() { e.Evaluate(spec) }); allocs != 0 {
			t.Fatalf("warm Evaluate (scheduler %q) allocates %v times per op, want 0", spec.Sched.Scheduler, allocs)
		}
	}
}

// BenchmarkForEachAdmission is what a small plan pays the pool before any
// body runs: idle (token free, shallow stack), the same from 30 frames down
// (a net/http handler's depth), and a nested call on a saturated pool (stack
// scan, then its body in place).
func BenchmarkForEachAdmission(b *testing.B) {
	noop := func(int) {}
	b.Run("idle", func(b *testing.B) {
		e := New(Workers(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.ForEach(1, noop)
		}
	})
	b.Run("deep30", func(b *testing.B) {
		e := New(Workers(1))
		b.ReportAllocs()
		down(30, func() {
			for i := 0; i < b.N; i++ {
				e.ForEach(1, noop)
			}
		})
	})
	b.Run("nested", func(b *testing.B) {
		e := New(Workers(1))
		b.ReportAllocs()
		e.ForEach(1, func(int) {
			for i := 0; i < b.N; i++ {
				e.ForEach(1, noop)
			}
		})
	})
}
