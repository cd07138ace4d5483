// Package comm provides an in-process message-passing substrate modelled on
// MPI. A World of P ranks communicates through Go channels; each rank obtains
// a Communicator handle that supports blocking point-to-point transfers and
// barriers.
//
// The package stands in for GLOO/MPI in the original Chimera implementation:
// pipeline stages exchange activations and boundary gradients over Send/Recv,
// and gradient synchronization is built on top in package collective.
package comm

import (
	"errors"
	"fmt"
	"sync"
)

// ErrAborted is the value Send, Recv and Barrier panic with once their
// World has been aborted.
var ErrAborted = errors.New("comm: world aborted")

// Message is the unit of transfer between ranks. Payloads are float32 slices
// (activations, gradients) accompanied by an integer tag that disambiguates
// concurrent streams (e.g. micro-batch id × stage id).
type Message struct {
	Source int
	Tag    int
	Data   []float32
}

// World owns the mailboxes for a fixed set of ranks. It must be created once
// and shared by all participating goroutines.
type World struct {
	size   int
	inbox  []chan Message
	barier *barrier
	// aborted is closed by Abort; every blocking call selects on it.
	aborted   chan struct{}
	abortOnce sync.Once
}

// DefaultQueueDepth is the per-rank mailbox capacity. It is sized generously
// so that senders in a correctly ordered pipeline schedule never block on
// mailbox capacity (they may still block on matching).
const DefaultQueueDepth = 1024

// NewWorld creates a communication world with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("comm: world size must be positive, got %d", size))
	}
	w := &World{size: size, inbox: make([]chan Message, size), barier: newBarrier(size), aborted: make(chan struct{})}
	for i := range w.inbox {
		w.inbox[i] = make(chan Message, DefaultQueueDepth)
	}
	return w
}

// Abort ends the world: every Send, Recv and Barrier on it, waiting or
// later, panics with ErrAborted. A rank that fails calls it so that its
// peers stop waiting for messages it will never send. Abort is idempotent
// and safe for concurrent use.
func (w *World) Abort() {
	w.abortOnce.Do(func() {
		close(w.aborted)
		w.barier.abort()
	})
}

// checkAborted panics with ErrAborted once the world has been aborted.
func (w *World) checkAborted() {
	select {
	case <-w.aborted:
		panic(ErrAborted)
	default:
	}
}

// Rank returns the communicator handle for the given rank.
func (w *World) Rank(rank int) *Communicator {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("comm: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Communicator{world: w, rank: rank, pending: make(map[matchKey][]Message)}
}

// Communicator is the per-rank endpoint. It is not safe for concurrent use by
// multiple goroutines: like an MPI rank, each communicator belongs to exactly
// one worker goroutine.
type Communicator struct {
	world *World
	rank  int
	// pending holds messages that arrived before a matching Recv was posted
	// (out-of-order arrival across tags/sources).
	pending map[matchKey][]Message
}

type matchKey struct {
	source int
	tag    int
}

// Rank returns this endpoint's rank.
func (c *Communicator) Rank() int { return c.rank }

// Send delivers data to dst with the given tag. The payload is copied so the
// caller may reuse the buffer immediately (MPI buffered-send semantics).
func (c *Communicator) Send(dst, tag int, data []float32) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", dst))
	}
	c.world.checkAborted()
	buf := make([]float32, len(data))
	copy(buf, data)
	select {
	case c.world.inbox[dst] <- Message{Source: c.rank, Tag: tag, Data: buf}:
	case <-c.world.aborted:
		panic(ErrAborted)
	}
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload. Messages from other (source, tag) pairs that arrive in
// the meantime are queued for later Recv calls.
func (c *Communicator) Recv(src, tag int) []float32 {
	c.world.checkAborted()
	key := matchKey{source: src, tag: tag}
	if q := c.pending[key]; len(q) > 0 {
		msg := q[0]
		c.pending[key] = q[1:]
		return msg.Data
	}
	for {
		var msg Message
		select {
		case msg = <-c.world.inbox[c.rank]:
		case <-c.world.aborted:
			panic(ErrAborted)
		}
		if msg.Source == src && msg.Tag == tag {
			return msg.Data
		}
		k := matchKey{source: msg.Source, tag: msg.Tag}
		c.pending[k] = append(c.pending[k], msg)
	}
}

// Barrier blocks until all ranks in the world have entered it.
func (c *Communicator) Barrier() { c.world.barier.await() }

// barrier is a reusable counting barrier. Once aborted, it releases its
// waiters and refuses new ones, each with a panic of ErrAborted.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	count   int
	phase   int
	aborted bool
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		panic(ErrAborted)
	}
	phase := b.phase
	b.count++
	if b.count == b.size {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for phase == b.phase {
		if b.aborted {
			panic(ErrAborted)
		}
		b.cond.Wait()
	}
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
