package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one request's causal record: a name (the endpoint), a request id,
// and an ordered list of phases (decode → cache → schedule → replay →
// encode, or whatever the handler marks). Phases are sequential — starting
// one ends the previous — matching a request's single-goroutine handler
// flow; a mutex still guards mutation so attrs set from helper goroutines
// cannot race. All methods are nil-safe, so code can thread spans
// unconditionally and pay nothing when tracing is off.
type Span struct {
	mu     sync.Mutex
	name   string
	id     string
	start  time.Time
	attrs  []Label
	phases []Phase
	open   bool
}

// Phase is one named interval within a span, as offsets from the span
// start.
type Phase struct {
	Name  string
	Start time.Duration
	End   time.Duration // zero while the phase is open
}

// NewSpan starts a span now.
func NewSpan(name, id string) *Span {
	return &Span{name: name, id: id, start: time.Now()}
}

// StartPhase ends any open phase and opens a new one.
func (s *Span) StartPhase(name string) {
	if s == nil {
		return
	}
	now := time.Since(s.start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeOpen(now)
	s.phases = append(s.phases, Phase{Name: name, Start: now})
	s.open = true
}

// EndPhase ends the open phase (no-op when none is open).
func (s *Span) EndPhase() {
	if s == nil {
		return
	}
	now := time.Since(s.start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeOpen(now)
}

// closeOpen stamps the open phase's end. Callers hold s.mu.
func (s *Span) closeOpen(now time.Duration) {
	if s.open {
		s.phases[len(s.phases)-1].End = now
		s.open = false
	}
}

// SetAttr attaches (or overwrites) a key=value annotation.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.attrs {
		if a.Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Label{Key: key, Value: value})
}

// Attr reads an annotation ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Finish ends the span (closing any open phase) and returns its immutable
// record. A nil span finishes to a zero record.
func (s *Span) Finish() SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeOpen(dur)
	rec := SpanRecord{
		ID:         s.id,
		Name:       s.name,
		Start:      s.start,
		DurationMS: float64(dur) / float64(time.Millisecond),
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	for _, p := range s.phases {
		rec.Phases = append(rec.Phases, PhaseRecord{
			Name:  p.Name,
			AtMS:  float64(p.Start) / float64(time.Millisecond),
			DurMS: float64(p.End-p.Start) / float64(time.Millisecond),
		})
	}
	return rec
}

// SpanRecord is a finished span: the flight recorder's (and
// /debug/requests') wire shape.
type SpanRecord struct {
	ID         string            `json:"id"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Phases     []PhaseRecord     `json:"phases,omitempty"`
}

// PhaseRecord is one phase on the wire: offset and duration in
// milliseconds.
type PhaseRecord struct {
	Name  string  `json:"name"`
	AtMS  float64 `json:"at_ms"`
	DurMS float64 `json:"dur_ms"`
}

type spanCtxKey struct{}

// ContextWithSpan attaches a span to a context.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom extracts the context's span (nil when absent — and every Span
// method is nil-safe, so callers use the result unconditionally).
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// Recorder is the flight recorder: a fixed-size ring of the most recently
// finished spans. Record replaces the oldest entry once full; Snapshot
// returns newest-first. Nil receivers no-op. Construct with NewRecorder.
type Recorder struct {
	mu    sync.Mutex
	ring  []SpanRecord
	next  int
	total uint64
}

// NewRecorder builds a recorder holding the last n spans (n < 1 selects 1).
func NewRecorder(n int) *Recorder {
	if n < 1 {
		n = 1
	}
	return &Recorder{ring: make([]SpanRecord, 0, n)}
}

// Record stores one finished span, evicting the oldest when full.
func (r *Recorder) Record(rec SpanRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
		r.next = len(r.ring) % cap(r.ring)
		return
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % cap(r.ring)
}

// Snapshot returns the recorded spans, newest first.
func (r *Recorder) Snapshot() []SpanRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.ring))
	// The newest entry sits just before next; walk backwards.
	for i := 0; i < len(r.ring); i++ {
		idx := (r.next - 1 - i + len(r.ring)) % len(r.ring)
		out = append(out, r.ring[idx])
	}
	return out
}

// Total returns how many spans have ever been recorded (including evicted
// ones).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap returns the ring capacity.
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return cap(r.ring)
}
