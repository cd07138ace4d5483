package schedule

import (
	"sync"
	"sync/atomic"
)

// The generators intern the Micros slices their ops carry. Every op covers
// a run of consecutive micro-batch ids ([m], or [m, m+1] under forward
// doubling), so all ops can share subslices of one identity table
// (table[i] == i) instead of allocating a private slice per op — schedule
// construction is the uncached sweep's hot path, and per-op Micros
// allocations were a large share of its heap traffic. The table grows
// geometrically; backing arrays already handed out stay valid because
// their contents never change.
var (
	microIdents atomic.Pointer[[]int]
	microGrow   sync.Mutex
)

func microTable(need int) []int {
	if p := microIdents.Load(); p != nil && len(*p) >= need {
		return *p
	}
	microGrow.Lock()
	defer microGrow.Unlock()
	size := 1024
	if p := microIdents.Load(); p != nil {
		if len(*p) >= need {
			return *p
		}
		size = len(*p)
	}
	for size < need {
		size *= 2
	}
	t := make([]int, size)
	for i := range t {
		t[i] = i
	}
	microIdents.Store(&t)
	return t
}

// microRun returns the shared identity slice [m, m+1, ..., m+n-1].
func microRun(m, n int) []int {
	t := microTable(m + n)
	return t[m : m+n : m+n]
}
