package engine

import (
	"runtime"
	"sync/atomic"
	"time"
)

// The pool is a work-stealing scheduler. Each of the engine's `workers`
// slots owns a Chase–Lev deque (deque.go); a ForEach call acquires a slot
// token, tags its n bodies with a task-group slot, pushes them onto its own
// deque, lends any idle slots to helper goroutines, and then works — pop
// from its own deque first, steal from random victims when it drains —
// until its group's remaining-task count reaches zero.
//
// Tasks are packed words: (groupSlot+1)<<32 | index. The group-slot table
// resolves a word to its taskGroup (body function + completion counter)
// only after the task has been claimed from a deque, so a group slot is
// never recycled while a claimable word still references it.
//
// Determinism: a body's identity is its submission index and results are
// written into per-index slots, so stealing only permutes execution order —
// Sweep output is bit-identical at any pool size.
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
// that does find a spare token simply takes it: its children land on that
// slot's deque and stay stealable.
//
// The stack carries function addresses, not engines: a body of engine A that
// calls into a saturated engine B is also "inside a body" and runs in place
// on B, one body over B's bound. No path in this repository nests across
// engines.
type taskGroup struct {
	fn        func(int)
	remaining atomic.Int64
	done      chan struct{}
}

// groupSlots is the size of the in-flight task-group table. Each live
// ForEach holds one slot for its duration; if (absurdly) more groups than
// this are in flight at once, the excess calls degrade to an inline serial
// loop, which is always correct.
const groupSlots = 256

// helperMaxMisses is how many consecutive empty pop+steal sweeps a lent
// helper tolerates before returning its slot token to the engine.
const helperMaxMisses = 16

// ForEach runs fn(i) for every i in [0, n) on the engine's worker pool and
// returns when all calls have completed. fn must write results into
// per-index slots (not append to shared state) so that the output is
// deterministic regardless of execution order. fn may call ForEach (or
// Sweep/Plan helpers that do) on the same engine: the nested call takes a
// spare worker slot if there is one and otherwise runs in place on the slot
// its enclosing body occupies. The slot is released even if fn panics on
// the calling goroutine, so a recovered panic costs the engine nothing.
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

// forEachOn runs the group on the calling goroutine, which holds slot.
func (e *Engine) forEachOn(slot, n int, fn func(int)) {
	if n == 1 || e.workers == 1 {
		e.runInline(slot, n, fn)
		return
	}
	var gslot uint32
	select {
	case gslot = <-e.groupFree:
	default:
		e.runInline(slot, n, fn)
		return
	}
	g := &taskGroup{fn: fn, done: make(chan struct{})}
	g.remaining.Store(int64(n))
	e.groups[gslot].Store(g)
	d := e.deques[slot]
	base := (uint64(gslot) + 1) << 32
	for i := 0; i < n; i++ {
		d.push(base | uint64(i))
	}
	if spare := min(e.workers-1, n-1); spare > 0 {
		e.spawnHelpers(g, spare)
	}
	for {
		select {
		case <-g.done:
			e.groups[gslot].Store(nil)
			e.groupFree <- gslot
			return
		default:
		}
		v, ok := d.pop()
		if !ok {
			v, ok = e.steal(slot)
		}
		if ok {
			e.runTask(slot, v)
			continue
		}
		// Nothing runnable anywhere. Every task of g still pending is
		// in flight on another worker (g's tasks live only in this deque
		// until claimed), so block until the group completes.
		<-g.done
	}
}

// runInline executes the group serially on the held slot — the Workers(1)
// reference path and the group-table-exhaustion fallback.
func (e *Engine) runInline(slot, n int, fn func(int)) {
	for i := 0; i < n; i++ {
		e.runTimed(slot, fn, i)
	}
}

// runTask resolves a claimed packed word and executes its body on slot.
func (e *Engine) runTask(slot int, v uint64) {
	g := e.groups[uint32(v>>32)-1].Load()
	e.runTimed(slot, g.fn, int(uint32(v)))
	if g.remaining.Add(-1) == 0 {
		close(g.done)
	}
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

// spawnHelpers lends up to want idle slot tokens to helper goroutines that
// steal on behalf of group g. Acquisition is non-blocking: a saturated
// engine spawns none and the owner simply works alone.
func (e *Engine) spawnHelpers(g *taskGroup, want int) {
	for i := 0; i < want; i++ {
		select {
		case slot := <-e.slots:
			go e.helper(slot, g)
		default:
			return
		}
	}
}

// helper is a lent worker: it drains its own deque (nested bodies it runs
// may push children there), steals from victims, and returns its slot when
// the group that spawned it completes or no work surfaces for a while.
func (e *Engine) helper(slot int, g *taskGroup) {
	defer func() { e.slots <- slot }()
	d := e.deques[slot]
	misses := 0
	for {
		v, ok := d.pop()
		if !ok {
			v, ok = e.steal(slot)
		}
		if ok {
			e.runTask(slot, v)
			misses = 0
			continue
		}
		select {
		case <-g.done:
			return
		default:
		}
		misses++
		if misses >= helperMaxMisses {
			return
		}
		runtime.Gosched()
	}
}

// steal sweeps the other workers' deques once, starting at a pseudo-random
// victim, and returns the first task claimed.
func (e *Engine) steal(self int) (uint64, bool) {
	n := len(e.deques)
	if n < 2 {
		return 0, false
	}
	d := e.deques[self]
	off := d.nextVictim(n)
	for i := 0; i < n; i++ {
		w := off + i
		if w >= n {
			w -= n
		}
		if w == self {
			continue
		}
		if v, ok := e.deques[w].steal(); ok {
			if m := e.met; m != nil && self < len(m.workerSteals) {
				m.workerSteals[self].Add(1)
			}
			return v, true
		}
	}
	return 0, false
}
