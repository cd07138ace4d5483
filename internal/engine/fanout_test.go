package engine

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/model"
	"chimera/internal/schedule"
	"chimera/internal/sim"
)

// asCaller runs f beneath a frame that onCaller can find, so a pool body can
// tell whether it is running on the goroutine that called ForEach or on a
// helper's — the same trick the pool plays with runBody.
//
//go:noinline
func asCaller(f func()) { f() }

func onCaller() bool {
	var pcs [64]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, ".asCaller") {
			return true
		}
		if !more {
			return false
		}
	}
}

// pairOnTwoGoroutines returns a ForEach(2, …) body whose two indices meet at a
// barrier — so the caller and exactly one helper are each inside one — and
// then run onHelper on whichever of them is not the caller.
func pairOnTwoGoroutines(onHelper func()) func(int) {
	var met sync.WaitGroup
	met.Add(2)
	return func(int) {
		met.Done()
		met.Wait()
		if !onCaller() {
			onHelper()
		}
	}
}

// TestForEachHelperPanicReachesCaller: a body that panics on a helper's
// goroutine has no recover above it — net/http's covers the handler's
// goroutine only — so the pool must carry the panic to the ForEach caller,
// whose stack is where Memo.Do's unwound-entry drop and the daemon's recover
// live. The engine is whole afterwards.
func TestForEachHelperPanicReachesCaller(t *testing.T) {
	e := New(Workers(2))
	var got any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { got = recover() }()
		asCaller(func() {
			e.ForEach(2, pairOnTwoGoroutines(func() { panic("boom on a helper") }))
		})
	}()
	awaitForEach(t, done, "a body panicking on a helper")
	if got != "boom on a helper" {
		t.Fatalf("ForEach caller recovered %v, want the helper body's panic value", got)
	}
	requireAllTokensHome(t, e)
	var ran atomic.Int64
	e.ForEach(8, func(int) { ran.Add(1) })
	if ran.Load() != 8 {
		t.Fatalf("ForEach after a helper's panic ran %d of 8 bodies", ran.Load())
	}
	requireAllTokensHome(t, e)
}

// TestForEachJoinsHelpers: ForEach returns when every body has, including the
// one a helper is still inside after the caller ran out of indices to claim.
// The helper's body gives the caller 50 ms to return too early.
func TestForEachJoinsHelpers(t *testing.T) {
	e := New(Workers(2))
	returned := make(chan struct{})
	early := make(chan bool, 1)
	asCaller(func() {
		e.ForEach(2, pairOnTwoGoroutines(func() {
			select {
			case <-returned:
				early <- true
			case <-time.After(50 * time.Millisecond):
				early <- false
			}
		}))
	})
	close(returned)
	if <-early {
		t.Fatal("ForEach returned while a helper was still inside a body")
	}
	requireAllTokensHome(t, e)
}

// TestForEachTailIsShared: indices are claimed one at a time, not dealt out
// in chunks. Body 0 blocks until the other 63 have run, so whoever claimed it
// is stuck and the other participant must get through all the rest — under
// static chunking half of them belong to the stuck one and this hangs.
func TestForEachTailIsShared(t *testing.T) {
	const n = 64
	e := New(Workers(2))
	var others sync.WaitGroup
	others.Add(n - 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.ForEach(n, func(i int) {
			if i == 0 {
				others.Wait()
				return
			}
			others.Done()
		})
	}()
	awaitForEach(t, done, "body 0 waiting for the other 63")
	requireAllTokensHome(t, e)
}

// TestForEachLendsFreedToken: lending is not a one-off at call start. The
// call below is admitted on the pool's last token, so it starts alone; its
// body 0 lets the other holder go and waits for that token to be home. Bodies
// 1 and 2 then meet at a barrier, which takes two goroutines: the caller must
// have lent the freed token to a helper between bodies.
func TestForEachLendsFreedToken(t *testing.T) {
	e := New(Workers(2))
	started, release, holderDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(holderDone) // after ForEach returned: its token is home
		e.ForEach(1, func(int) {
			close(started)
			<-release
		})
	}()
	<-started
	var pair sync.WaitGroup
	pair.Add(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.ForEach(3, func(i int) {
			if i == 0 {
				close(release)
				<-holderDone
				return
			}
			pair.Done()
			pair.Wait()
		})
	}()
	awaitForEach(t, done, "a call that needs the token freed mid-call")
	requireAllTokensHome(t, e)
}

// irregularSpecs is a mixed-depth Chimera grid on the 64-layer GPT-2: per-body
// cost spans two orders of magnitude (D = 2, N = 2 up to D = 32, N = 128) and
// the expensive points are not sorted to one end.
func irregularSpecs() []Spec {
	m, dev, net := model.GPT2(), sim.PizDaintNode(), sim.AriesNetwork()
	var specs []Spec
	for _, d := range []int{2, 4, 8, 16, 32, 16, 8, 4, 2, 32} {
		for _, n := range []int{d, 2 * d, 4 * d} {
			specs = append(specs, Spec{
				Sched: ChimeraKey(d, n, 0, schedule.Direct), Model: m, MicroBatch: 1, W: 1,
				AutoRecompute: true, Device: dev, Network: net,
			})
		}
	}
	return specs
}

// BenchmarkSweepColdIrregular is the number to quote for any claim about the
// pool's balance: a cold sweep of irregularSpecs on a fresh GOMAXPROCS-sized
// engine per iteration. Run it at -cpu 1,2,4.
func BenchmarkSweepColdIrregular(b *testing.B) {
	specs := irregularSpecs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, o := range New().Sweep(specs) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
}

// BenchmarkForEachEmpty64 is the pool's own cost: 64 empty bodies on a
// GOMAXPROCS-sized engine (the in-module twin of bench/'s
// engine.foreach_dispatch_us). Run it at -cpu 1,2,4.
func BenchmarkForEachEmpty64(b *testing.B) {
	e := New()
	noop := func(int) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ForEach(64, noop)
	}
}
