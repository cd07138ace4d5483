package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/model"
	"chimera/internal/obs"
	"chimera/internal/sim"
)

// awaitForEach fails the test unless done closes within the timeout: the
// pool tests below turn a hang (a leaked token, a helper never joined) into
// a failure with a name.
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
// over, and it covers every body the slot ran.
func TestWorkerBusyBoundedByWall(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(Workers(1), Observe(reg))
	start := time.Now()
	e.ForEach(16, func(int) { time.Sleep(time.Millisecond) })
	elapsed := time.Since(start)
	busy := time.Duration(reg.Snapshot().Counters[`engine_worker_busy_nanoseconds_total{worker="0"}`])
	if busy > elapsed {
		t.Fatalf("slot 0 busy %v over %v of wall time: bodies double-counted", busy, elapsed)
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

// TestSpeedMemoBoundedByCapacity: speed-factor strings are client-supplied
// (/v1/simulate, a heterogeneous /v1/plan), so a bounded engine keeps no more
// decoded strings than its capacity, however many distinct ones it is sent.
func TestSpeedMemoBoundedByCapacity(t *testing.T) {
	const capacity, distinct = 4, 500
	e := New(Workers(1), Capacity(capacity))
	spec := testGrid(model.BERT48(), 16, 128, []int{4}, []int{2})[0]
	spec.Sched.Scheduler = "heft"
	for i := 1; i <= distinct; i++ {
		spec.SpeedFactors = sim.EncodeSpeedFactors([]float64{1, 1, 1 + float64(i)/1000, 1})
		spec.Sched.Speed = spec.SpeedFactors
		if o := e.Evaluate(spec); o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	if n := e.Stats().OutcomeEntries; n > capacity {
		t.Fatalf("%d outcomes resident on a Capacity(%d) engine", n, capacity)
	}
	if n := e.speeds.Len(); n > capacity {
		t.Fatalf("%d distinct speed strings left %d decoded entries on a Capacity(%d) engine", distinct, n, capacity)
	}
}

// BenchmarkForEachAdmission is what a small plan pays the pool before any
// body runs: idle (token free, shallow stack), and the same from 30 frames
// down (a net/http handler's depth).
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
}
