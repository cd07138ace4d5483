// Package router fronts a fleet of chimera-serve replicas with a
// consistent-hash request router: requests with the same canonical cache key
// always land on the same replica, so each replica's response and engine
// caches concentrate on a stable shard of the key space instead of every
// replica cold-missing the whole population. Replica health is tracked via
// each replica's /readyz (draining replicas are routed around without
// remapping the ring), and failed forwards retry on the key's next distinct
// ring owner.
package router

import (
	"slices"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per replica. 128 points per
// replica keeps the max/mean key-load ratio within a few percent for small
// fleets (the ring test pins a ≤1.25 bound at 100k keys) while the ring
// stays small enough that building it is microseconds.
const DefaultVNodes = 128

// Ring is an immutable consistent-hash ring over a replica set. Build with
// NewRing; methods are safe for concurrent use. Ownership is a pure function
// of the replica *set* — the order replicas were listed in does not matter —
// so independently configured routers agree on every key's owner.
type Ring struct {
	replicas []string
	points   []ringPoint
}

// ringPoint is one virtual node: a position on the 64-bit hash circle and
// the replica it maps to.
type ringPoint struct {
	hash    uint64
	replica string
}

// NewRing builds a ring with vnodes virtual nodes per replica
// (<= 0 selects DefaultVNodes). Duplicate replicas are collapsed.
func NewRing(replicas []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	uniq := make([]string, 0, len(replicas))
	seen := make(map[string]bool, len(replicas))
	for _, rep := range replicas {
		if rep == "" || seen[rep] {
			continue
		}
		seen[rep] = true
		uniq = append(uniq, rep)
	}
	sort.Strings(uniq)
	r := &Ring{
		replicas: uniq,
		points:   make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for _, rep := range uniq {
		for v := 0; v < vnodes; v++ {
			h := mix64(fnv64a(rep + "#" + strconv.Itoa(v)))
			r.points = append(r.points, ringPoint{hash: h, replica: rep})
		}
	}
	// Ties (two virtual nodes hashing identically) are broken by replica
	// name so the walk order is deterministic regardless of input order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// Replicas returns the ring's member set, sorted. The slice is shared — do
// not mutate.
func (r *Ring) Replicas() []string { return r.replicas }

// Owner returns the replica owning key ("" on an empty ring).
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct replicas in failover order: the key's
// owner first, then successive distinct replicas walking the circle
// clockwise. This is the retry sequence — when the owner is down or
// draining, the next entry inherits the key, and only that key's shard
// moves (consistent hashing's minimal-disruption property).
func (r *Ring) Owners(key string, n int) []string { return r.ownersAt(keyPos(key), n) }

// keyPos is a key's position on the circle.
func keyPos(key string) uint64 { return mix64(fnv64a(key)) }

// ownersAt is Owners for a key already placed on the circle at pos.
func (r *Ring) ownersAt(pos uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	// First point at or clockwise-after pos (wrapping to 0).
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= pos })
	// n is at most the replica count, so the owners picked so far are
	// scanned rather than kept in a set, which would allocate past eight:
	// the result is the walk's one allocation.
	owners := make([]string, 0, n)
	for range r.points {
		if i == len(r.points) {
			i = 0
		}
		rep := r.points[i].replica
		if !slices.Contains(owners, rep) {
			owners = append(owners, rep)
			if len(owners) == n {
				break
			}
		}
		i++
	}
	return owners
}

// mix64 is murmur3's 64-bit finalizer. FNV-1a alone avalanches poorly on
// near-identical inputs (vnode labels differ by one digit), which clusters
// ring points and skews key load; the finalizer spreads them uniformly over
// the circle. Applied to both point and key hashes.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// fnv64a is the 64-bit FNV-1a hash of a key or a request body; inlined
// (rather than hash/fnv) so key lookup allocates nothing.
func fnv64a[T string | []byte](s T) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
