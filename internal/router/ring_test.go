package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func ringReplicas(n int) []string {
	reps := make([]string, n)
	for i := range reps {
		reps[i] = fmt.Sprintf("http://10.0.0.%d:8642", i+1)
	}
	return reps
}

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("plan:tenant-%04d/request-%06d", i%257, i)
	}
	return keys
}

// TestRingBalance: with DefaultVNodes, 100k keys over 5 replicas must land
// within a 1.25 max/mean load ratio — the bound DefaultVNodes documents.
func TestRingBalance(t *testing.T) {
	const nKeys = 100_000
	ring := NewRing(ringReplicas(5), 0)
	load := map[string]int{}
	for _, k := range ringKeys(nKeys) {
		load[ring.Owner(k)]++
	}
	if len(load) != 5 {
		t.Fatalf("keys landed on %d replicas, want 5", len(load))
	}
	mean := float64(nKeys) / 5
	for rep, n := range load {
		if ratio := float64(n) / mean; ratio > 1.25 {
			t.Errorf("replica %s owns %d keys (%.3f× mean), want ≤ 1.25×", rep, n, ratio)
		}
	}
}

// TestRingJoinDisruption: adding a replica may only move keys TO the new
// replica; every key that stays on an old replica keeps its old owner.
func TestRingJoinDisruption(t *testing.T) {
	const nKeys = 100_000
	before := NewRing(ringReplicas(5), 0)
	after := NewRing(ringReplicas(6), 0)
	newRep := ringReplicas(6)[5]
	moved := 0
	for _, k := range ringKeys(nKeys) {
		oldOwner, newOwner := before.Owner(k), after.Owner(k)
		if oldOwner == newOwner {
			continue
		}
		if newOwner != newRep {
			t.Fatalf("key %q moved %s -> %s, but only moves to the joining replica %s are allowed",
				k, oldOwner, newOwner, newRep)
		}
		moved++
	}
	// The joiner should take roughly its fair share (1/6) — and nothing
	// like a full reshuffle. Allow generous slack around the expectation.
	if lo, hi := nKeys/12, nKeys/3; moved < lo || moved > hi {
		t.Fatalf("join moved %d of %d keys, want roughly 1/6 (between %d and %d)", moved, nKeys, lo, hi)
	}
}

// TestRingLeaveDisruption: removing a replica may only move the departed
// replica's keys; everyone else's shard is untouched.
func TestRingLeaveDisruption(t *testing.T) {
	reps := ringReplicas(5)
	before := NewRing(reps, 0)
	gone := reps[2]
	after := NewRing(append(append([]string{}, reps[:2]...), reps[3:]...), 0)
	for _, k := range ringKeys(100_000) {
		oldOwner, newOwner := before.Owner(k), after.Owner(k)
		if oldOwner == gone {
			if newOwner == gone {
				t.Fatalf("key %q still owned by departed replica", k)
			}
			continue
		}
		if newOwner != oldOwner {
			t.Fatalf("key %q moved %s -> %s although its owner did not leave", k, oldOwner, newOwner)
		}
	}
}

// TestRingOrderIndependence: ownership is a function of the replica set —
// shuffled or duplicated input must produce identical Owner and Owners
// results for every key.
func TestRingOrderIndependence(t *testing.T) {
	reps := ringReplicas(7)
	canonical := NewRing(reps, 0)
	rng := rand.New(rand.NewSource(42))
	keys := ringKeys(2_000)
	for trial := 0; trial < 5; trial++ {
		shuffled := append([]string{}, reps...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		shuffled = append(shuffled, shuffled[0], "") // duplicates and blanks collapse
		ring := NewRing(shuffled, 0)
		if !reflect.DeepEqual(ring.Replicas(), canonical.Replicas()) {
			t.Fatalf("trial %d: replica set %v != %v", trial, ring.Replicas(), canonical.Replicas())
		}
		for _, k := range keys {
			if got, want := ring.Owners(k, 3), canonical.Owners(k, 3); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d key %q: Owners %v != %v", trial, k, got, want)
			}
		}
	}
}

// TestRingOwnersDistinct: the failover sequence never repeats a replica and
// is capped by the fleet size.
func TestRingOwnersDistinct(t *testing.T) {
	ring := NewRing(ringReplicas(4), 0)
	for _, k := range ringKeys(1_000) {
		owners := ring.Owners(k, 10)
		if len(owners) != 4 {
			t.Fatalf("key %q: Owners returned %d replicas, want all 4", k, len(owners))
		}
		seen := map[string]bool{}
		for _, rep := range owners {
			if seen[rep] {
				t.Fatalf("key %q: replica %s repeated in failover order %v", k, rep, owners)
			}
			seen[rep] = true
		}
		if owners[0] != ring.Owner(k) {
			t.Fatalf("key %q: Owners[0] %s != Owner %s", k, owners[0], ring.Owner(k))
		}
	}
}

// TestRingOwnersAllocatesOnlyItsResult: a forward's owner walk allocates
// the slice it returns and nothing else, at every failover depth. Sixteen
// replicas: a set of more than eight owners would not fit on the stack.
func TestRingOwnersAllocatesOnlyItsResult(t *testing.T) {
	ring := NewRing(ringReplicas(16), 0)
	keys := ringKeys(64)
	for _, n := range []int{1, 4, 16} {
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			ring.Owners(keys[i%len(keys)], n)
			i++
		})
		if allocs != 1 {
			t.Fatalf("Owners(key, %d) made %.1f allocations, want 1 (the result slice)", n, allocs)
		}
	}
}

// TestRingEmpty: the empty ring degrades to no owners, not a panic.
func TestRingEmpty(t *testing.T) {
	ring := NewRing(nil, 0)
	if owner := ring.Owner("k"); owner != "" {
		t.Fatalf("empty ring owner %q, want empty", owner)
	}
	if owners := ring.Owners("k", 3); owners != nil {
		t.Fatalf("empty ring owners %v, want nil", owners)
	}
}
