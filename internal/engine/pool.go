package engine

import (
	"runtime"
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
// Admission asks nothing about who is calling. ForEach takes a token with a
// non-blocking receive and runs; the pool keeps no record of which goroutine
// holds which slot. Only when every token is out does it ask the one
// question that matters — "is this call already inside a pool body?" — and
// answers it from the caller's own stack: every body, on every path, is
// entered through runBody, so a goroutine with runBody's call site among its
// return addresses is executing a body and already occupies a token (its
// own, or the one under which an enclosing in-place call runs). Such a
// nested call runs its children in place, serially, on that token; it never
// waits, so nested evaluation cannot deadlock under saturation. Any other
// caller on a saturated pool blocks until a token returns. A nested call
// that does find a spare token simply takes it and is a caller like any
// other: it may be lent helpers, and it joins them before it returns.
//
// The stack carries function addresses, not engines: a body of engine A that
// calls into a saturated engine B is also "inside a body" and runs in place
// on B, one body over B's bound. No path in this repository nests across
// engines.
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
// deterministic regardless of execution order. fn may call ForEach (or
// Sweep/Plan helpers that do) on the same engine: the nested call takes a
// spare worker slot if there is one and otherwise runs in place on the slot
// its enclosing body occupies. If fn panics — on the calling goroutine or on
// a helper's — no further index is claimed, ForEach panics with the first
// such value once every body already running has returned, and every slot is
// released on the way, so a recovered panic costs the engine nothing.
func (e *Engine) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var slot int
	select {
	case slot = <-e.slots:
	default:
		if insideBody() {
			// Nested call on a saturated pool. The enclosing body's interval
			// already covers these, so they are not timed again.
			for i := 0; i < n; i++ {
				fn(i)
			}
			return
		}
		slot = <-e.slots // blocks: enforces the engine-wide Workers bound
	}
	defer func() { e.slots <- slot }()
	e.forEachOn(slot, n, fn)
}

// runBody is the one call site through which every pool body is entered. It
// is kept out of line so that site's return address is on the stack of any
// goroutine executing a body; insideBody looks for it.
//
//go:noinline
func runBody(fn func(int), i int) { fn(i) }

// bodyPC is the return address of runBody's call to fn, read once off a
// probe body's own stack.
var bodyPC = func() (pc uintptr) {
	runBody(func(int) {
		var pcs [2]uintptr // this closure, then its caller: runBody
		runtime.Callers(1, pcs[:])
		pc = pcs[1]
	}, 0)
	return pc
}()

// insideBody reports whether the calling goroutine is executing a pool
// body, by scanning its return addresses for bodyPC. It runs only when the
// pool is saturated; the buffer lives on the stack, and a stack deeper than
// the buffer is read in windows.
func insideBody() bool {
	var pcs [64]uintptr
	for skip := 0; ; skip += len(pcs) {
		n := runtime.Callers(skip, pcs[:])
		for _, pc := range pcs[:n] {
			if pc == bodyPC {
				return true
			}
		}
		if n < len(pcs) {
			return false
		}
	}
}

// forEachOn runs the call on the calling goroutine, which holds slot, and on
// whatever helpers it can lend idle tokens to. One body, or a one-slot pool,
// has nobody to share with and runs inline.
func (e *Engine) forEachOn(slot, n int, fn func(int)) {
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
// counter when a registry is attached. A slot is held by one goroutine and
// each nesting level holds its own, so a slot's intervals never overlap.
func (e *Engine) runTimed(slot int, fn func(int), i int) {
	m := e.met
	if m == nil {
		runBody(fn, i)
		return
	}
	start := time.Now()
	runBody(fn, i)
	m.workerBusy[slot].Add(uint64(time.Since(start)))
}
