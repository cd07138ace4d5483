package httpd

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
)

// A body memo has as many slots as the capacity it is built for, rounded up
// to a power of two; at most bodyMemoMax, so a huge bound does not allocate
// a huge table at once, and bodyMemoDefault for capacity 0 (an unbounded
// cache, or a router that has no bound of its own).
const (
	bodyMemoDefault = 1 << 11
	bodyMemoMax     = 1 << 16
)

// BodyMemo remembers what a recent request body derived to, so a
// byte-identical body skips the derivation: the router's ring position, a
// replica's cache key. It is direct-mapped: the low bits of the first eight
// bytes (little-endian) of the body's SHA-256 pick one slot, which holds the
// whole digest and the value. A miss derives the value and overwrites the
// slot; a derivation that fails is never stored. No body is kept, and the
// table, allocated on the first store, never grows.
//
// The tag is the whole digest, so two bodies share a value only if their
// SHA-256 sums are equal: a replica that answered one body with another
// body's reply would be wrong, not slow.
type BodyMemo[V any] struct {
	n            int        // slot count, a power of two
	mu           sync.Mutex // guards slots
	slots        []bodySlot[V]
	hits, misses atomic.Uint64
}

type bodySlot[V any] struct {
	sum [sha256.Size]byte
	val V
}

// NewBodyMemo returns an empty memo sized for capacity (0 = 2,048 slots).
func NewBodyMemo[V any](capacity int) *BodyMemo[V] {
	n := bodyMemoDefault
	if capacity > 0 {
		n = 1 << bits.Len(uint(min(capacity, bodyMemoMax)-1))
	}
	return &BodyMemo[V]{n: n}
}

// tag is body's digest with the last bit set, so no body matches a slot
// that was never written.
func tag(body []byte) [sha256.Size]byte {
	sum := sha256.Sum256(body)
	sum[sha256.Size-1] |= 1
	return sum
}

// slot is the index of the one slot sum may occupy.
func (m *BodyMemo[V]) slot(sum *[sha256.Size]byte) int {
	return int(binary.LittleEndian.Uint64(sum[:8]) & uint64(m.n-1))
}

// Get returns the value stored for body, or else derive's, which it stores
// unless derive fails.
func (m *BodyMemo[V]) Get(body []byte, derive func() (V, error)) (V, error) {
	sum := tag(body)
	i := m.slot(&sum)
	m.mu.Lock()
	if m.slots != nil && m.slots[i].sum == sum {
		v := m.slots[i].val
		m.mu.Unlock()
		m.hits.Add(1)
		return v, nil
	}
	m.mu.Unlock()
	m.misses.Add(1)
	v, err := derive()
	if err != nil {
		return v, err
	}
	m.mu.Lock()
	if m.slots == nil {
		m.slots = make([]bodySlot[V], m.n)
	}
	m.slots[i] = bodySlot[V]{sum, v}
	m.mu.Unlock()
	return v, nil
}

// Hits counts the Get calls that found their body.
func (m *BodyMemo[V]) Hits() uint64 { return m.hits.Load() }

// Misses counts the Get calls that derived.
func (m *BodyMemo[V]) Misses() uint64 { return m.misses.Load() }
