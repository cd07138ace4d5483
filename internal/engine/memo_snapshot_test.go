package engine

import (
	"reflect"
	"testing"
)

// TestMemoRangeLRUOrder: on every table — bounded or the default unbounded
// one — Range must visit completed entries least-recently used first, so an
// export/import round trip reproduces the source's recency.
func TestMemoRangeLRUOrder(t *testing.T) {
	for _, capacity := range []int{3, 0} {
		m := NewMemoCap[string, int](capacity)
		m.Do("a", func() int { return 1 })
		m.Do("b", func() int { return 2 })
		m.Do("c", func() int { return 3 })
		if _, ok := m.Cached("a"); !ok { // refresh a: recency becomes b, c, a
			t.Fatal("a should be cached")
		}
		var keys []string
		m.Range(func(k string, v int) bool {
			keys = append(keys, k)
			return true
		})
		if want := []string{"b", "c", "a"}; !reflect.DeepEqual(keys, want) {
			t.Fatalf("capacity %d: Range order %v, want %v", capacity, keys, want)
		}
	}
}

// TestMemoRangeSkipsInFlight: an entry whose computation has not finished
// must not be exported — a snapshot can only carry published values.
func TestMemoRangeSkipsInFlight(t *testing.T) {
	m := NewMemo[string, int]()
	m.Do("done", func() int { return 1 })
	release := make(chan struct{})
	started := make(chan struct{})
	go m.Do("inflight", func() int { close(started); <-release; return 2 })
	<-started
	n := 0
	m.Range(func(k string, v int) bool {
		if k != "done" {
			t.Errorf("Range visited in-flight key %q", k)
		}
		n++
		return true
	})
	close(release)
	if n != 1 {
		t.Fatalf("Range visited %d entries, want 1", n)
	}
}

// TestMemoRangeEarlyStop: returning false stops the walk.
func TestMemoRangeEarlyStop(t *testing.T) {
	m := NewMemoCap[int, int](8)
	for i := 0; i < 5; i++ {
		m.Do(i, func() int { return i })
	}
	n := 0
	m.Range(func(int, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range visited %d entries after early stop, want 1", n)
	}
}

// TestMemoPutNeverOverwrites: an existing entry wins over Put, so a
// snapshot restored into a live table cannot clobber fresher computations.
func TestMemoPutNeverOverwrites(t *testing.T) {
	m := NewMemoCap[string, int](4)
	m.Do("k", func() int { return 42 })
	m.Put("k", 99)
	if v, ok := m.Cached("k"); !ok || v != 42 {
		t.Fatalf("Put overwrote a computed entry: got %d (ok=%v), want 42", v, ok)
	}
}

// TestMemoPutEntryNeverRecomputes: Do on a Put entry must return the put
// value without running fn (the once is already burnt).
func TestMemoPutEntryNeverRecomputes(t *testing.T) {
	m := NewMemo[string, int]()
	m.Put("warm", 7)
	v := m.Do("warm", func() int {
		t.Error("Do recomputed a Put entry")
		return -1
	})
	if v != 7 {
		t.Fatalf("Do returned %d for a Put entry, want 7", v)
	}
	if v, ok := m.Cached("warm"); !ok || v != 7 {
		t.Fatalf("Cached returned %d (ok=%v), want 7", v, ok)
	}
}

// TestMemoPutRespectsCapacity: Put inserts participate in the LRU bound
// like computed entries, evicting the oldest.
func TestMemoPutRespectsCapacity(t *testing.T) {
	m := NewMemoCap[int, int](2)
	m.Put(1, 1)
	m.Put(2, 2)
	m.Put(3, 3) // evicts 1
	if m.Len() != 2 {
		t.Fatalf("Len=%d, want 2", m.Len())
	}
	if m.Evictions() != 1 {
		t.Fatalf("Evictions=%d, want 1", m.Evictions())
	}
	if _, ok := m.Cached(1); ok {
		t.Fatal("oldest Put entry should have been evicted")
	}
	for _, k := range []int{2, 3} {
		if v, ok := m.Cached(k); !ok || v != k {
			t.Fatalf("key %d: got %d (ok=%v)", k, v, ok)
		}
	}
}

// TestMemoRangePutRoundTrip: exporting via Range and importing via Put in
// that order reproduces both the values and the recency order — the
// restored table then evicts the same victim the source would have.
func TestMemoRangePutRoundTrip(t *testing.T) {
	src := NewMemoCap[string, int](3)
	src.Do("a", func() int { return 1 })
	src.Do("b", func() int { return 2 })
	src.Do("c", func() int { return 3 })
	src.Cached("a") // recency: b oldest, then c, then a

	dst := NewMemoCap[string, int](3)
	srcPairs := map[string]int{}
	src.Range(func(k string, v int) bool {
		srcPairs[k] = v
		dst.Put(k, v)
		return true
	})
	// Range reads without refreshing recency, so the orders must agree.
	var srcOrder, dstOrder []string
	src.Range(func(k string, _ int) bool { srcOrder = append(srcOrder, k); return true })
	dst.Range(func(k string, v int) bool {
		dstOrder = append(dstOrder, k)
		if v != srcPairs[k] {
			t.Errorf("key %q: restored %d, want %d", k, v, srcPairs[k])
		}
		return true
	})
	if !reflect.DeepEqual(srcOrder, dstOrder) {
		t.Fatalf("restored recency order %v, want %v", dstOrder, srcOrder)
	}
	// Inserting a fresh key must evict b — the same victim src would pick.
	dst.Do("d", func() int { return 4 })
	if _, ok := dst.Cached("b"); ok {
		t.Fatal("restored table evicted the wrong victim (b survived)")
	}
	if _, ok := dst.Cached("c"); !ok {
		t.Fatal("restored table evicted c, want b")
	}
}

// TestMemoPutReportsInsert: Put returns true only when it actually
// inserted — the signal RestoreSnapshot counts, so a warm restore does not
// report duplicates as restored entries.
func TestMemoPutReportsInsert(t *testing.T) {
	m := NewMemoCap[string, int](4)
	if !m.Put("a", 1) {
		t.Fatal("first Put reported no insert")
	}
	if m.Put("a", 2) {
		t.Fatal("duplicate Put reported an insert")
	}
	m.Do("b", func() int { return 2 })
	if m.Put("b", 3) {
		t.Fatal("Put over a computed entry reported an insert")
	}
}

// TestMemoRestoreIntoSmallerCapacity: restoring a snapshot into a table
// with a smaller capacity than the snapshot's entry count must truncate to
// the source's most-recently-*used* entries with their relative recency
// preserved — each insert lands at the recency front and eviction claims the
// back, so restore can never evict the entry it just inserted, only older
// ones. The unbounded source is the regression: it used to Range in map
// order, so the survivors were a random subset.
func TestMemoRestoreIntoSmallerCapacity(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}
	for _, srcCap := range []int{len(keys), 0} {
		src := NewMemoCap[string, int](srcCap)
		for _, k := range keys { // recency: a oldest … l newest
			k := k
			src.Do(k, func() int { return int(k[0]) })
		}
		// Use, not insertion, decides: a hit and a Do on old entries make
		// the recency tail …, k, l, c, a.
		if _, ok := src.Cached("c"); !ok {
			t.Fatal("c should be cached")
		}
		src.Do("a", func() int { t.Error("a recomputed"); return 0 })

		dst := NewMemoCap[string, int](3)
		inserted := 0
		src.Range(func(k string, v int) bool {
			if dst.Put(k, v) {
				inserted++
			}
			return true
		})
		// Every Put inserted (no duplicates), even though only 3 survive.
		if inserted != len(keys) {
			t.Fatalf("source capacity %d: inserted=%d, want %d", srcCap, inserted, len(keys))
		}
		if dst.Len() != 3 {
			t.Fatalf("source capacity %d: Len=%d, want the capacity 3", srcCap, dst.Len())
		}
		if got, want := dst.Evictions(), uint64(len(keys)-3); got != want {
			t.Fatalf("source capacity %d: Evictions=%d, want %d", srcCap, got, want)
		}
		// Survivors are exactly the source's three most-recently-used
		// entries, oldest-first in Range order.
		var order []string
		dst.Range(func(k string, _ int) bool { order = append(order, k); return true })
		if want := []string{"l", "c", "a"}; !reflect.DeepEqual(order, want) {
			t.Fatalf("source capacity %d: restored order %v, want %v (most recently used survive, recency preserved)", srcCap, order, want)
		}
		if v, ok := dst.Cached("a"); !ok || v != int('a') {
			t.Fatalf("source capacity %d: newest entry lost: got %d (ok=%v)", srcCap, v, ok)
		}
	}
}
