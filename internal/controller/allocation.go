package controller

import (
	"encoding/json"
	"fmt"
	"math"

	"chimera/internal/fleet"
)

// encodedAllocation is one version's allocation with its encoding: raw is
// json.Marshal(shares), and share i's object is raw[start(i):ends[i]]. It is
// immutable once built, so a reply, a stream frame or a what-if fork reads
// it without the state lock while the next batch builds its successor.
type encodedAllocation struct {
	version uint64 // the batch count it encodes
	shares  []fleet.FinalShare
	ends    []int
	raw     []byte
}

// start is the offset of share i's object in raw: just past the '[' or the
// ',' before it.
func (a *encodedAllocation) start(i int) int {
	if i == 0 {
		return 1
	}
	return a.ends[i-1] + 1
}

// encode builds version's encoding of next against base (nil encodes every
// share): a share identical to base's share of the same trace reuses base's
// bytes, any other is json.Marshal of the share. Shares arrive in ascending
// trace order (residents in arrival order), so one merge walk finds each
// match; a share out of that order is only a miss, never a wrong body.
// json.Marshal's error (a NaN or infinite float) comes back naming the
// share's trace.
func (base *encodedAllocation) encode(version uint64, next []fleet.FinalShare) (*encodedAllocation, error) {
	a := &encodedAllocation{version: version, shares: next}
	if next == nil {
		a.raw = []byte("null")
		return a, nil
	}
	var old []fleet.FinalShare
	size := 2 + 160*len(next)
	if base != nil && len(base.shares) > 0 {
		old = base.shares
		size = 2 + (len(base.raw)/len(old)+8)*len(next)
	}
	a.ends = make([]int, len(next))
	raw := append(make([]byte, 0, size), '[')
	j := 0
	for i, s := range next {
		if i > 0 {
			raw = append(raw, ',')
		}
		for j < len(old) && old[j].Trace < s.Trace {
			j++
		}
		if j < len(old) && sameShare(old[j], s) {
			raw = append(raw, base.raw[base.start(j):base.ends[j]]...)
			j++
		} else {
			one, err := json.Marshal(s)
			if err != nil {
				return nil, fmt.Errorf("controller: share of trace %d: %w", s.Trace, err)
			}
			raw = append(raw, one...)
		}
		a.ends[i] = len(raw)
	}
	a.raw = append(raw, ']')
	return a, nil
}

// sameShare reports whether a and b encode to the same bytes: floats are
// compared by their bits, since 0 and -0 are == but encode apart.
func sameShare(a, b fleet.FinalShare) bool {
	return a.Job == b.Job && a.Trace == b.Trace && a.Nodes == b.Nodes &&
		a.W == b.W && a.D == b.D && a.B == b.B &&
		math.Float64bits(a.Throughput) == math.Float64bits(b.Throughput) &&
		math.Float64bits(a.Weighted) == math.Float64bits(b.Weighted)
}
