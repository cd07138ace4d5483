package router

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// routeMemoBits sizes the route memo: 2,048 slots of two words, 32 KiB.
const routeMemoBits = 11

// routeMemo remembers where recent bodies of the cached endpoints land on
// the ring, so a repeated body routes without serve.CanonicalKey's decode,
// resolve and re-marshal. It is direct-mapped: a seeded hash of (path, body)
// picks one slot, which holds that hash and keyPos(cacheKey(path, body)). A
// miss derives the position as an unmemoized request would and overwrites
// the slot. No body is kept, and the table never grows.
//
// Two bodies whose 64-bit sums collide share a position, which sends one of
// them to the other's owner. That costs the owner a cache miss, never a
// wrong answer: every replica answers from the body it receives. The seed is
// drawn per router, so a client cannot aim collisions.
type routeMemo struct {
	seed         maphash.Seed
	mu           sync.Mutex // guards slots
	slots        [1 << routeMemoBits]routeSlot
	hits, misses atomic.Uint64
}

type routeSlot struct{ sum, pos uint64 }

func newRouteMemo() *routeMemo { return &routeMemo{seed: maphash.MakeSeed()} }

// sum hashes (path, body) under the memo's seed. It is odd, so no sum
// matches a slot that was never written.
func (m *routeMemo) sum(path string, body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(m.seed)
	h.WriteString(path)
	h.WriteByte(0)
	h.Write(body)
	return h.Sum64() | 1
}

// slot is the one slot a sum may occupy: its high bits, since the low bit
// is always set.
func (m *routeMemo) slot(sum uint64) *routeSlot { return &m.slots[sum>>(64-routeMemoBits)] }

// pos returns cacheKey(path, body)'s ring position.
func (m *routeMemo) pos(path string, body []byte) uint64 {
	sum := m.sum(path, body)
	s := m.slot(sum)
	m.mu.Lock()
	held := *s
	m.mu.Unlock()
	if held.sum == sum {
		m.hits.Add(1)
		return held.pos
	}
	m.misses.Add(1)
	pos := keyPos(cacheKey(path, body))
	m.mu.Lock()
	*s = routeSlot{sum, pos}
	m.mu.Unlock()
	return pos
}
