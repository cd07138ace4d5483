package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/model"
)

// TestMemoCapEvictsLRU: a bounded table holds at most capacity entries and
// drops the least recently used key first.
func TestMemoCapEvictsLRU(t *testing.T) {
	m := NewMemoCap[int, int](2)
	calls := 0
	get := func(k int) int { return m.Do(k, func() int { calls++; return 10 * k }) }

	get(1)
	get(2)
	get(1) // touch 1 so 2 becomes the LRU victim
	get(3) // evicts 2
	if n := m.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	if ev := m.Evictions(); ev != 1 {
		t.Fatalf("Evictions = %d, want 1", ev)
	}
	before := calls
	get(1) // still resident — no recompute
	if calls != before {
		t.Fatal("recently-used key was evicted")
	}
	get(2) // evicted — must recompute
	if calls != before+1 {
		t.Fatal("evicted key was not recomputed")
	}
	if v := get(2); v != 20 {
		t.Fatalf("recomputed value = %d, want 20", v)
	}
}

// TestMemoCapUnboundedByDefault: NewMemo and NewMemoCap(0) never evict.
func TestMemoCapUnboundedByDefault(t *testing.T) {
	for _, m := range []*Memo[int, int]{NewMemo[int, int](), NewMemoCap[int, int](0)} {
		for k := 0; k < 1000; k++ {
			m.Do(k, func() int { return k })
		}
		if n := m.Len(); n != 1000 {
			t.Fatalf("unbounded table Len = %d, want 1000", n)
		}
		if ev := m.Evictions(); ev != 0 {
			t.Fatalf("unbounded table evicted %d entries", ev)
		}
		if c := m.Capacity(); c != 0 {
			t.Fatalf("Capacity = %d, want 0", c)
		}
	}
}

// TestMemoCapSingleFlightUnderEviction: goroutines that joined an in-flight
// computation before its entry was evicted still share that one computation's
// value; a requester arriving after the eviction recomputes. No call may ever
// observe a zero (unset) value.
func TestMemoCapSingleFlightUnderEviction(t *testing.T) {
	m := NewMemoCap[int, int](1)
	started := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int32

	var wg sync.WaitGroup
	const waiters = 8
	results := make([]int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = m.Do(0, func() int {
				computes.Add(1)
				close(started)
				<-release
				return 42
			})
		}(i)
	}
	<-started
	// Wait until every other waiter has joined the in-flight entry: each
	// join is recorded as a hit before the waiter blocks on the entry's
	// once, so hits == waiters-1 means all of them hold the original entry.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if h, _ := m.Stats(); h == waiters-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never joined the in-flight entry")
		}
		time.Sleep(time.Millisecond)
	}
	// Evict key 0 while its computation is still in flight: inserting two
	// other keys into a capacity-1 table forces it out.
	m.Do(1, func() int { return 1 })
	m.Do(2, func() int { return 2 })
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != 42 {
			t.Fatalf("waiter %d got %d, want 42 (single-flight broken by eviction)", i, v)
		}
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("in-flight computation ran %d times, want 1", got)
	}
	// Post-eviction requester recomputes and gets the fresh value.
	v := m.Do(0, func() int { computes.Add(1); return 43 })
	if v != 43 {
		t.Fatalf("post-eviction Do = %d, want recomputed 43", v)
	}
	if got := computes.Load(); got != 2 {
		t.Fatalf("post-eviction compute count = %d, want 2", got)
	}
}

// TestMemoCapRaceStress: hammer a small bounded table from many goroutines
// with overlapping keys under -race; every returned value must match its key.
func TestMemoCapRaceStress(t *testing.T) {
	m := NewMemoCap[int, int](4)
	const (
		goroutines = 16
		iters      = 500
		keys       = 16
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % keys
				if v := m.Do(k, func() int { return 100 + k }); v != 100+k {
					panic(fmt.Sprintf("key %d returned %d", k, v))
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n > 4 {
		t.Fatalf("capacity 4 table holds %d entries", n)
	}
	hits, misses := m.Stats()
	if hits+misses != goroutines*iters {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, goroutines*iters)
	}
	if m.Evictions() == 0 {
		t.Fatal("stress with 16 keys over capacity 4 evicted nothing")
	}
	m.Reset()
	if m.Len() != 0 || m.Evictions() != 0 {
		t.Fatal("Reset did not clear the bounded table")
	}
}

// TestMemoCapacityOneThrash: the degenerate Capacity(1) table survives
// pure thrash — two keys alternating so every access after the first two
// misses, with exact counter accounting and never more than one resident
// entry.
func TestMemoCapacityOneThrash(t *testing.T) {
	m := NewMemoCap[int, int](1)
	const rounds = 100
	computes := 0
	for i := 0; i < rounds; i++ {
		k := i % 2
		if v := m.Do(k, func() int { computes++; return 10 + k }); v != 10+k {
			t.Fatalf("round %d: Do(%d) = %d", i, k, v)
		}
		if n := m.Len(); n != 1 {
			t.Fatalf("round %d: Len = %d, want 1", i, n)
		}
	}
	// Alternating keys through capacity 1: every access misses (the other
	// key always evicted it), so every access recomputes.
	if computes != rounds {
		t.Fatalf("computes = %d, want %d (every access must recompute under thrash)", computes, rounds)
	}
	hits, misses := m.Stats()
	if hits != 0 || misses != rounds {
		t.Fatalf("hits/misses = %d/%d, want 0/%d", hits, misses, rounds)
	}
	if ev := m.Evictions(); ev != rounds-1 {
		t.Fatalf("evictions = %d, want %d (every insert but the last evicts)", ev, rounds-1)
	}
}

// TestMemoEvictInFlightRaceStress: many goroutines churn a Capacity(1)
// table with slow computations so entries are constantly evicted while
// still in flight; under -race this doubles as a data-race probe on the
// evict-while-computing path. Every caller must still observe its own
// key's value.
func TestMemoEvictInFlightRaceStress(t *testing.T) {
	m := NewMemoCap[int, int](1)
	const (
		goroutines = 8
		iters      = 200
		keys       = 4
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*13 + i) % keys
				v := m.Do(k, func() int {
					time.Sleep(time.Microsecond) // widen the in-flight window
					return 1000 + k
				})
				if v != 1000+k {
					panic(fmt.Sprintf("key %d returned %d", k, v))
				}
			}
		}(g)
	}
	wg.Wait()
	if n := m.Len(); n != 1 {
		t.Fatalf("capacity 1 table holds %d entries", n)
	}
	if m.Evictions() == 0 {
		t.Fatal("churning 4 keys through capacity 1 evicted nothing")
	}
}

// TestMemoStatsExact: a scripted access sequence yields exactly the
// documented counters — a hit is a Do that found an entry, a miss one that
// created it, an eviction one dropped by the bound — and Reset zeroes
// everything.
func TestMemoStatsExact(t *testing.T) {
	m := NewMemoCap[string, int](2)
	seq := []struct {
		key                   string
		hits, misses, evicted uint64
		entries               int
	}{
		{"a", 0, 1, 0, 1}, // miss: create a
		{"a", 1, 1, 0, 1}, // hit
		{"b", 1, 2, 0, 2}, // miss: create b
		{"a", 2, 2, 0, 2}, // hit (a now MRU)
		{"c", 2, 3, 1, 2}, // miss: create c, evict LRU b
		{"b", 2, 4, 2, 2}, // miss: b was evicted; evicts a
		{"c", 3, 4, 2, 2}, // hit: c survived
	}
	for i, step := range seq {
		m.Do(step.key, func() int { return i })
		hits, misses := m.Stats()
		if hits != step.hits || misses != step.misses {
			t.Fatalf("step %d (%s): hits/misses = %d/%d, want %d/%d",
				i, step.key, hits, misses, step.hits, step.misses)
		}
		if ev := m.Evictions(); ev != step.evicted {
			t.Fatalf("step %d (%s): evictions = %d, want %d", i, step.key, ev, step.evicted)
		}
		if n := m.Len(); n != step.entries {
			t.Fatalf("step %d (%s): entries = %d, want %d", i, step.key, n, step.entries)
		}
	}
	m.Reset()
	hits, misses := m.Stats()
	if hits != 0 || misses != 0 || m.Evictions() != 0 || m.Len() != 0 {
		t.Fatalf("Reset left counters: hits=%d misses=%d evictions=%d len=%d",
			hits, misses, m.Evictions(), m.Len())
	}
}

// TestEngineCapacityOption: a capacity-bounded engine evaluates correctly,
// reports evictions through Stats, and stays within its entry bound, while
// the default engine reports Capacity 0.
func TestEngineCapacityOption(t *testing.T) {
	bounded := New(Workers(2), Capacity(8))
	specs := testGrid(model.BERT48(), 16, 128, []int{2, 4, 8}, []int{1, 2, 4, 8})
	if len(specs) < 16 {
		t.Fatalf("grid too small: %d", len(specs))
	}
	want := New(Workers(1), NoCache()).Sweep(specs)
	got := bounded.Sweep(specs)
	requireEqualOutcomes(t, want, got)

	st := bounded.Stats()
	if st.Capacity != 8 {
		t.Fatalf("Stats.Capacity = %d, want 8", st.Capacity)
	}
	if st.OutcomeEntries > 8 {
		t.Fatalf("outcome entries %d exceed capacity 8", st.OutcomeEntries)
	}
	if st.OutcomeEvictions == 0 {
		t.Fatalf("sweeping %d specs through capacity 8 evicted nothing", len(specs))
	}
	if def := New().Stats(); def.Capacity != 0 {
		t.Fatalf("default engine Capacity = %d, want 0", def.Capacity)
	}
}

// TestMemoDoPanicNotCached: sync.Once treats a panicking call as done, so a
// computation that unwinds used to leave an entry answering every later Do
// with the zero value (for the serve tier's response cache, an empty 200).
// The entry must vanish instead: invisible to Len, Range and Cached, and the
// next Do computes.
func TestMemoDoPanicNotCached(t *testing.T) {
	for _, capacity := range []int{0, 2} {
		m := NewMemoCap[string, int](capacity)
		m.Do("other", func() int { return 7 })
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("capacity %d: recovered %v, want the computation's panic", capacity, r)
				}
			}()
			m.Do("k", func() int { panic("boom") })
		}()
		if got := m.Len(); got != 1 {
			t.Fatalf("capacity %d: Len = %d after a panicked Do, want 1 (the other key)", capacity, got)
		}
		if v, ok := m.Cached("k"); ok {
			t.Fatalf("capacity %d: Cached exposes the dead entry (%d)", capacity, v)
		}
		m.Range(func(k string, _ int) bool {
			if k == "k" {
				t.Fatalf("capacity %d: Range exposes the dead entry", capacity)
			}
			return true
		})
		calls := 0
		for i := 0; i < 2; i++ {
			if got := m.Do("k", func() int { calls++; return 42 }); got != 42 {
				t.Fatalf("capacity %d: Do after a panicked Do = %d, want 42", capacity, got)
			}
		}
		if calls != 1 {
			t.Fatalf("capacity %d: fn ran %d times after the panic, want 1 (recomputed once, then cached)", capacity, calls)
		}
		// The recency list survived the unlink: both keys, oldest first.
		var order []string
		m.Range(func(k string, _ int) bool { order = append(order, k); return true })
		if len(order) != 2 || order[0] != "other" || order[1] != "k" {
			t.Fatalf("capacity %d: Range order %v, want [other k]", capacity, order)
		}
	}
}

// TestMemoDoPanicWaiterRetries: a Do that was waiting on the computation
// that panicked must not return the zero value either — it retries through
// a fresh entry and computes.
func TestMemoDoPanicWaiterRetries(t *testing.T) {
	m := NewMemo[string, int]()
	entered, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		m.Do("k", func() int {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	got := make(chan int)
	go func() { got <- m.Do("k", func() int { return 42 }) }()
	// Let the waiter reach the entry's Once if it is going to; either way
	// (waiting there, or arriving after the drop) it must compute 42.
	time.Sleep(5 * time.Millisecond)
	close(release)
	select {
	case v := <-got:
		if v != 42 {
			t.Fatalf("waiter got %d from a panicked computation, want its own 42", v)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter never returned")
	}
}
