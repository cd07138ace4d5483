// Package collective implements collective communication operations over the
// in-process communicator of package comm. It provides the gradient
// synchronization primitives Chimera relies on: a ring allreduce across
// stage replicas, asynchronous (nonblocking) allreduce handles used for the
// eager synchronization scheme of §3.2 of the paper, and a ring allgather.
// The cost model prices allreduce as Rabenseifner's algorithm (package sim);
// the runtime only needs a correct sum, which the ring delivers at any group
// size.
//
// Collectives operate on a Group: an ordered subset of world ranks. All
// members must call the collective with their own communicator; the group
// index of each member is its position in the rank list.
package collective

import (
	"fmt"

	"chimera/internal/comm"
)

// Group identifies an ordered set of world ranks participating in a
// collective. All members share the same slice contents.
type Group struct {
	Ranks []int
}

// NewGroup builds a group from the given world ranks.
func NewGroup(ranks ...int) Group {
	cp := make([]int, len(ranks))
	copy(cp, ranks)
	return Group{Ranks: cp}
}

// Size returns the number of members.
func (g Group) Size() int { return len(g.Ranks) }

// Index returns the position of rank within the group, or -1.
func (g Group) Index(rank int) int {
	for i, r := range g.Ranks {
		if r == rank {
			return i
		}
	}
	return -1
}

// tag space layout: collectives use tags well above pipeline traffic.
const (
	tagRing   = 1 << 24
	tagGather = 1 << 28
)

// AllReduce sums data elementwise across all group members, in place, with
// the ring algorithm: reduce-scatter then allgather, 2(r-1) steps. opTag
// distinguishes concurrent allreduces on the same group (e.g. one per
// pipeline stage); all members must pass the same opTag.
func AllReduce(c *comm.Communicator, g Group, opTag int, data []float32) {
	r := g.Size()
	if r == 1 {
		return
	}
	me := g.Index(c.Rank())
	if me < 0 {
		panic(fmt.Sprintf("collective: rank %d not in group %v", c.Rank(), g.Ranks))
	}
	chunks := splitChunks(len(data), r)
	next := g.Ranks[(me+1)%r]
	prev := g.Ranks[(me-1+r)%r]
	// Reduce-scatter: after step k, each member holds the partial sum of
	// chunk (me-k) accumulated over k+1 members.
	for step := 0; step < r-1; step++ {
		sendIdx := (me - step + r) % r
		recvIdx := (me - step - 1 + 2*r) % r
		sc := chunks[sendIdx]
		c.Send(next, tagRing+opTag*64+step, data[sc.lo:sc.hi])
		in := c.Recv(prev, tagRing+opTag*64+step)
		rc := chunks[recvIdx]
		addInto(data[rc.lo:rc.hi], in)
	}
	// Allgather: circulate the completed chunks.
	for step := 0; step < r-1; step++ {
		sendIdx := (me + 1 - step + 2*r) % r
		recvIdx := (me - step + 2*r) % r
		sc := chunks[sendIdx]
		c.Send(next, tagRing+opTag*64+32+step, data[sc.lo:sc.hi])
		in := c.Recv(prev, tagRing+opTag*64+32+step)
		rc := chunks[recvIdx]
		copy(data[rc.lo:rc.hi], in)
	}
}

// Handle is an outstanding nonblocking allreduce started with IAllReduce.
type Handle struct {
	done chan struct{}
}

// Wait blocks until the allreduce has completed. After Wait returns, the
// buffer passed to IAllReduce holds the reduced result.
func (h *Handle) Wait() { <-h.done }

// IAllReduce starts an allreduce on a dedicated progression goroutine,
// emulating a nonblocking collective (cf. Hoefler et al., the mechanism
// behind the eager gradient synchronization of §3.2). The caller must not
// touch data until Wait returns. Each member must use a private communicator
// clone obtained from the same world (the pipeline executor allocates
// per-purpose communicators so progression does not race worker traffic).
func IAllReduce(c *comm.Communicator, g Group, opTag int, data []float32) *Handle {
	h := &Handle{done: make(chan struct{})}
	go func() {
		AllReduce(c, g, opTag, data)
		close(h.done)
	}()
	return h
}

// AllGather concatenates each member's equally sized contribution into out
// (len(out) = group size × len(contrib)), ordered by group index.
func AllGather(c *comm.Communicator, g Group, opTag int, contrib []float32, out []float32) {
	r := g.Size()
	me := g.Index(c.Rank())
	k := len(contrib)
	if len(out) != r*k {
		panic(fmt.Sprintf("collective: allgather out length %d != %d", len(out), r*k))
	}
	copy(out[me*k:(me+1)*k], contrib)
	// Simple ring allgather: r-1 steps.
	next := g.Ranks[(me+1)%r]
	prev := g.Ranks[(me-1+r)%r]
	for step := 0; step < r-1; step++ {
		sendIdx := (me - step + r) % r
		c.Send(next, tagGather+opTag*64+step, out[sendIdx*k:(sendIdx+1)*k])
		in := c.Recv(prev, tagGather+opTag*64+step)
		recvIdx := (me - step - 1 + 2*r) % r
		copy(out[recvIdx*k:(recvIdx+1)*k], in)
	}
}

type span struct{ lo, hi int }

func splitChunks(n, parts int) []span {
	out := make([]span, parts)
	base, rem := n/parts, n%parts
	off := 0
	for i := 0; i < parts; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out[i] = span{off, off + sz}
		off += sz
	}
	return out
}

func addInto(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("collective: length mismatch %d != %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}
