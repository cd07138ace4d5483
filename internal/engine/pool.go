package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// The pool is a counter. A ForEach call takes a slot token and publishes one
// call record — the body function, its n, and the next unclaimed index. Every
// participant (the caller, and the helpers it lends idle tokens to) claims an
// index with next.Add(1)-1 and runs it, until the counter reaches n; the
// caller then joins its helpers. Nothing is queued, so nothing can be taken
// from a queue: a participant only ever runs indices of the call it joined.
// Indices are claimed one at a time, so a grid of irregular bodies balances
// itself — whoever finishes early claims the next index, and the tail is
// shared rather than chunked.
//
// Lending is non-blocking and happens before every claim the caller makes,
// not only the first: a token another caller returns mid-call is put to work
// at the caller's next body boundary. One lend never starts more helpers than
// the call has indices left beyond the caller's own next one.
//
// Determinism: a body's identity is its index and results are written into
// per-index slots, so who claims what only permutes execution order — Sweep
// output is bit-identical at any pool size.
//
// The Workers(n) bound is engine-wide and token-based: every goroutine
// executing bodies (ForEach caller or helper) holds one of n slot tokens,
// so concurrent ForEach/Sweep/Plan callers collectively run at most n
// bodies at a time.
//
// Admission is a blocking receive of one token; the pool asks nothing about
// who is calling. A body therefore must not call ForEach on the engine that
// runs it: the bodies of a saturated pool hold every token, and a nested call
// would wait for one forever. No body in this repository fans out again —
// Sweep's evaluate one spec and the planner's search one candidate.
type call struct {
	fn      func(int)
	n       int64
	next    atomic.Int64   // next unclaimed index; ≥ n once the call is spent
	helpers sync.WaitGroup // helper goroutines the caller has yet to join
	// panicked holds the first value a body of this call panicked with, on
	// whichever participant; the caller re-panics with it after the join.
	panicked atomic.Pointer[any]
}

// ForEach runs fn(i) for every i in [0, n) on the engine's worker pool and
// returns when all calls have completed. fn must write results into
// per-index slots (not append to shared state) so that the output is
// deterministic regardless of execution order. fn must not call ForEach on
// the same engine, directly or through Sweep or a planner entry point: the
// caller waits for a free slot token, and on a saturated pool the bodies
// hold them all. A single body, or a one-slot pool, runs inline on the
// caller. If fn panics — on the calling goroutine or on a helper's — no
// further index is claimed, ForEach panics with the first such value once
// every body already running has returned, and every slot is released on
// the way, so a recovered panic costs the engine nothing.
func (e *Engine) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	slot := <-e.slots // blocks: enforces the engine-wide Workers bound
	defer func() { e.slots <- slot }()
	if n == 1 || e.workers == 1 {
		for i := 0; i < n; i++ {
			e.runTimed(slot, fn, i)
		}
		return
	}
	c := &call{fn: fn, n: int64(n)}
	e.work(slot, c, true)
	c.helpers.Wait()
	if p := c.panicked.Load(); p != nil {
		panic(*p)
	}
}

// work claims indices of c and runs them on slot until none are left. The
// caller's loop (lender) offers idle tokens to new helpers before each claim.
// A body's panic is kept on the call — the first one wins — and spends the
// call, so every participant stops at its next claim: a helper's goroutine
// has no recover above it, and the caller must join before it may unwind.
func (e *Engine) work(slot int, c *call, lender bool) {
	defer func() {
		if p := recover(); p != nil {
			c.fail(p)
		}
	}()
	for {
		if lender {
			e.lend(c)
		}
		i := c.next.Add(1) - 1
		if i >= c.n {
			return
		}
		e.runTimed(slot, c.fn, int(i))
	}
}

// fail records p as the call's panic unless one is already kept, and spends
// the call. (Out of work's deferred func so that p escapes only on a panic.)
func (c *call) fail(p any) {
	c.panicked.CompareAndSwap(nil, &p)
	c.next.Store(c.n)
}

// lend starts one helper per idle slot token, up to the indices of c left
// unclaimed beyond the one the caller takes next. Acquisition is
// non-blocking: a saturated engine lends nothing and the caller works alone.
func (e *Engine) lend(c *call) {
	for want := c.n - 1 - c.next.Load(); want > 0; want-- {
		select {
		case slot := <-e.slots:
			c.helpers.Add(1)
			go e.help(slot, c)
		default:
			return
		}
	}
}

// help is a lent worker: it works c on slot and hands the token back.
func (e *Engine) help(slot int, c *call) {
	defer c.helpers.Done()
	defer func() { e.slots <- slot }()
	e.work(slot, c, false)
}

// runTimed runs one body on slot, charging its wall time to the slot's busy
// counter when a registry is attached. A slot is held by one goroutine at a
// time, so its intervals never overlap.
func (e *Engine) runTimed(slot int, fn func(int), i int) {
	m := e.met
	if m == nil {
		fn(i)
		return
	}
	start := time.Now()
	fn(i)
	m.workerBusy[slot].Add(uint64(time.Since(start)))
}
