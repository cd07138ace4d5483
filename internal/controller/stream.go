package controller

import "sync"

// hub fans allocation updates out to the SSE subscribers. Publishing never
// blocks: a subscriber whose buffer is full skips that update — each update
// carries the full current allocation, so a skipped one is superseded by
// the next, and a stalled client can never back-pressure ingestion.
type hub struct {
	mu     sync.Mutex
	subs   map[chan []byte]struct{}
	closed bool
}

func newHub() *hub {
	return &hub{subs: make(map[chan []byte]struct{})}
}

// subscribe registers a new subscriber channel.
func (h *hub) subscribe() chan []byte {
	ch := make(chan []byte, 8)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(ch)
		return ch
	}
	h.subs[ch] = struct{}{}
	return ch
}

// unsubscribe removes a subscriber; safe to call after closeAll.
func (h *hub) unsubscribe(ch chan []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, ch)
}

// subscribed reports whether anyone is attached — whether an update is
// worth encoding at all.
func (h *hub) subscribed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs) > 0
}

// publish delivers msg to every subscriber that has buffer room.
func (h *hub) publish(msg []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- msg:
		default:
		}
	}
}

// closeAll ends every stream (graceful shutdown): subscribers see their
// channel close and return, letting the HTTP server's Shutdown complete.
func (h *hub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}
