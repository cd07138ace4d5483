package engine

import (
	"sync"
	"sync/atomic"
)

// Memo is a concurrency-safe memoization table with single-flight
// semantics: for each key, the compute function runs exactly once no matter
// how many goroutines ask concurrently; late callers block until the first
// computation finishes and then share its value. Values must be treated as
// immutable by callers — they are handed out to every requester.
//
// By default the table retains every entry forever — the right policy for
// batch sweeps, where reuse is the point and the key population is bounded
// by the grid. NewMemoCap instead bounds the table to a fixed capacity with
// least-recently-used eviction, the policy a long-running daemon needs so an
// unbounded stream of distinct requests cannot grow memory without limit.
// Eviction drops an entry from the table only: goroutines already holding
// the entry still complete (or reuse) its single computation and share its
// value; the next request for the evicted key simply recomputes.
//
// A nil *Memo is valid and disables caching (every Do call computes).
type Memo[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int // 0 = unbounded
	entries  map[K]*memoEntry[K, V]
	// lru is the sentinel of the circular recency list threaded through the
	// entries: lru.next is the most recently used entry, lru.prev the least.
	// Every table keeps it (Range order is recency order, bounded or not);
	// only a bounded table evicts from it.
	lru       memoEntry[K, V]
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type memoEntry[K comparable, V any] struct {
	once sync.Once
	v    V
	// done publishes v: set (after v is written) by the goroutine that ran
	// the computation, so Cached can hand out v without arming once.
	done atomic.Bool
	// key and the recency links live in the entry itself, so a miss costs
	// one allocation and a hit none. prev/next are guarded by Memo.mu and
	// nil once the entry has been evicted.
	key        K
	prev, next *memoEntry[K, V]
}

// NewMemo returns an empty, unbounded memoization table.
func NewMemo[K comparable, V any]() *Memo[K, V] {
	return NewMemoCap[K, V](0)
}

// NewMemoCap returns an empty memoization table bounded to capacity entries
// with LRU eviction; capacity <= 0 means unbounded (same as NewMemo).
func NewMemoCap[K comparable, V any](capacity int) *Memo[K, V] {
	if capacity < 0 {
		capacity = 0
	}
	m := &Memo[K, V]{
		capacity: capacity,
		entries:  make(map[K]*memoEntry[K, V]),
	}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

// touch makes e the most recently used entry. m.mu must be held.
func (m *Memo[K, V]) touch(e *memoEntry[K, V]) {
	if m.lru.next == e {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	m.pushFront(e)
}

// pushFront links an unlinked entry in as the most recently used. m.mu must
// be held.
func (m *Memo[K, V]) pushFront(e *memoEntry[K, V]) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

// insert adds a new entry at the recency front and, on a bounded table,
// evicts from the back until the bound holds. The new entry sits at the
// front, so with capacity ≥ 1 it is never its own victim. m.mu must be held.
func (m *Memo[K, V]) insert(e *memoEntry[K, V]) {
	m.entries[e.key] = e
	m.pushFront(e)
	for m.capacity > 0 && len(m.entries) > m.capacity {
		victim := m.lru.prev
		victim.prev.next, m.lru.prev = &m.lru, victim.prev
		victim.prev, victim.next = nil, nil
		delete(m.entries, victim.key)
		m.evictions.Add(1)
	}
}

// Do returns the memoized value for key, computing it with fn on first use.
// If fn unwinds instead of returning (a panic, which propagates to the Do
// caller that ran it), nothing is cached: the entry is dropped from the
// table, a caller that was waiting on it retries through a fresh entry, and
// the next Do for the key runs fn again.
func (m *Memo[K, V]) Do(key K, fn func() V) V {
	if m == nil {
		return fn()
	}
	for {
		m.mu.Lock()
		e, ok := m.entries[key]
		if ok {
			m.touch(e)
		} else {
			e = &memoEntry[K, V]{key: key}
			m.insert(e)
		}
		m.mu.Unlock()
		if ok {
			m.hits.Add(1)
		} else {
			m.misses.Add(1)
		}
		e.once.Do(func() {
			// sync.Once counts an unwound call as done; the entry would answer
			// every later Do with the zero value.
			defer func() {
				if !e.done.Load() {
					m.drop(e)
				}
			}()
			e.v = fn()
			e.done.Store(true)
		})
		if e.done.Load() {
			return e.v
		}
	}
}

// drop removes e from the table if it is still the resident entry for its
// key (it may have been evicted, or the table reset, meanwhile).
func (m *Memo[K, V]) drop(e *memoEntry[K, V]) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[e.key] != e {
		return
	}
	delete(m.entries, e.key)
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Cached returns the completed value for key, if any. It is the allocation-
// free hit path: no closure is needed at the call site, so a warm lookup
// costs one map probe and zero allocations. A key whose computation is
// still in flight reports !ok — the caller falls back to Do and waits there
// (counted as a hit by Do, preserving the stats semantics).
func (m *Memo[K, V]) Cached(key K) (v V, ok bool) {
	if m == nil {
		return v, false
	}
	m.mu.Lock()
	e, found := m.entries[key]
	if found && e.done.Load() {
		m.touch(e)
		m.mu.Unlock()
		m.hits.Add(1)
		return e.v, true
	}
	m.mu.Unlock()
	return v, false
}

// Stats returns the cumulative hit and miss counts. A "hit" is a Do call
// that found an existing entry (it may still have waited for the in-flight
// computation); a "miss" is a call that created the entry.
func (m *Memo[K, V]) Stats() (hits, misses uint64) {
	if m == nil {
		return 0, 0
	}
	return m.hits.Load(), m.misses.Load()
}

// Evictions returns how many entries the LRU bound has dropped (always zero
// for an unbounded table).
func (m *Memo[K, V]) Evictions() uint64 {
	if m == nil {
		return 0
	}
	return m.evictions.Load()
}

// Capacity returns the configured entry bound (0 = unbounded).
func (m *Memo[K, V]) Capacity() int {
	if m == nil {
		return 0
	}
	return m.capacity
}

// Range calls fn for every completed entry, least-recently used first —
// on every table, bounded or not — so a table restored in Range order
// reproduces the recency of the source. In-flight computations are skipped —
// only published values are visited. fn runs outside the table lock (the
// pairs are collected under it first), so it may call back into the Memo;
// returning false stops the iteration. This is the export half of the serve
// tier's cache snapshot.
func (m *Memo[K, V]) Range(fn func(key K, value V) bool) {
	if m == nil {
		return
	}
	type kv struct {
		k K
		v V
	}
	m.mu.Lock()
	pairs := make([]kv, 0, len(m.entries))
	for e := m.lru.prev; e != &m.lru; e = e.prev {
		if e.done.Load() {
			pairs = append(pairs, kv{e.key, e.v})
		}
	}
	m.mu.Unlock()
	for _, p := range pairs {
		if !fn(p.k, p.v) {
			return
		}
	}
}

// Put inserts a completed entry, as if Do had computed value for key, and
// reports whether it inserted: false means an existing entry (completed or
// in flight) won — Put never overwrites, so a snapshot restored into a live
// table cannot clobber fresher computations. Respects the capacity bound
// (inserting may evict the least-recently used entry) and counts neither a
// hit nor a miss. This is the import half of the serve tier's cache
// snapshot.
//
// Restoring a snapshot larger than the capacity therefore *truncates*, and
// does so correctly whatever the source's bound was: entries arrive in Range
// order (least recently used first), each insert lands at the recency
// front, and eviction always claims the back — an earlier-restored (older)
// entry, never the entry just inserted. The surviving entries are exactly
// the source's most-recently-used `capacity` entries with their relative
// recency preserved. Put returns true for an insert even if a later insert
// evicts it.
func (m *Memo[K, V]) Put(key K, value V) bool {
	if m == nil {
		return false
	}
	e := &memoEntry[K, V]{key: key, v: value}
	e.once.Do(func() {}) // burn the once so a later Do never recomputes
	e.done.Store(true)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[key]; ok {
		return false
	}
	m.insert(e)
	return true
}

// Len returns the number of distinct keys computed or in flight.
func (m *Memo[K, V]) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Reset drops all entries and zeroes the statistics.
func (m *Memo[K, V]) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.entries = make(map[K]*memoEntry[K, V])
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	m.mu.Unlock()
	m.hits.Store(0)
	m.misses.Store(0)
	m.evictions.Store(0)
}
