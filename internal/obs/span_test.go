package obs

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestSpanPhases: phases are sequential (starting one closes the previous),
// offsets are ordered, and Finish closes the open phase.
func TestSpanPhases(t *testing.T) {
	s := NewSpan("plan", "req-1")
	s.StartPhase("decode")
	s.StartPhase("cache")
	s.SetAttr("cache", "miss")
	s.StartPhase("encode")
	rec := s.Finish()

	if rec.ID != "req-1" || rec.Name != "plan" {
		t.Fatalf("identity lost: %+v", rec)
	}
	if len(rec.Phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(rec.Phases))
	}
	want := []string{"decode", "cache", "encode"}
	var prevEnd float64
	for i, p := range rec.Phases {
		if p.Name != want[i] {
			t.Fatalf("phase %d = %q, want %q", i, p.Name, want[i])
		}
		// prevEnd sums two independently-rounded ms quotients, so it can
		// exceed the exactly-converted AtMS by an ulp; compare with slack.
		if p.AtMS < prevEnd-1e-9 {
			t.Fatalf("phase %q starts at %v before previous end %v", p.Name, p.AtMS, prevEnd)
		}
		if p.DurMS < 0 {
			t.Fatalf("phase %q has negative duration", p.Name)
		}
		prevEnd = p.AtMS + p.DurMS
	}
	if rec.Attrs["cache"] != "miss" {
		t.Fatalf("attrs = %v, want cache=miss", rec.Attrs)
	}
	if rec.DurationMS < 0 {
		t.Fatal("negative span duration")
	}
}

// TestSpanNil: every span method on nil is a no-op, and SpanFrom on a bare
// context returns nil.
func TestSpanNil(t *testing.T) {
	var s *Span
	s.StartPhase("x")
	s.EndPhase()
	s.SetAttr("k", "v")
	if s.Attr("k") != "" {
		t.Fatal("nil span not inert")
	}
	if rec := s.Finish(); rec.Name != "" || rec.ID != "" {
		t.Fatal("nil span finish not zero")
	}
	if got := SpanFrom(context.Background()); got != nil {
		t.Fatalf("SpanFrom(empty ctx) = %v, want nil", got)
	}
}

// TestSpanContext round-trips a span through a context.
func TestSpanContext(t *testing.T) {
	s := NewSpan("simulate", "id-9")
	ctx := ContextWithSpan(context.Background(), s)
	if got := SpanFrom(ctx); got != s {
		t.Fatal("span did not round-trip through context")
	}
}

// TestRecorderEviction: the flight recorder keeps exactly the last N spans,
// newest first, and counts every record it ever saw.
func TestRecorderEviction(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 7; i++ {
		sp := NewSpan("ep", fmt.Sprintf("req-%d", i))
		r.Record(sp.Finish())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap))
	}
	for i, rec := range snap {
		want := fmt.Sprintf("req-%d", 6-i) // newest first
		if rec.ID != want {
			t.Fatalf("snapshot[%d] = %s, want %s", i, rec.ID, want)
		}
	}
	if r.Total() != 7 {
		t.Fatalf("total = %d, want 7", r.Total())
	}
	if r.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", r.Cap())
	}
}

// TestRecorderPartial: before the ring fills, snapshot returns what exists
// (newest first).
func TestRecorderPartial(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 3; i++ {
		r.Record(SpanRecord{ID: fmt.Sprintf("r%d", i)})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	if snap[0].ID != "r2" || snap[2].ID != "r0" {
		t.Fatalf("order wrong: %v", []string{snap[0].ID, snap[1].ID, snap[2].ID})
	}
	// Nil recorder is inert.
	var nr *Recorder
	nr.Record(SpanRecord{})
	if nr.Snapshot() != nil || nr.Total() != 0 || nr.Cap() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

// TestRecorderConcurrent floods the recorder from many goroutines under
// -race; the total must be exact and the ring intact.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(16)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				r.Record(SpanRecord{ID: fmt.Sprintf("g%d-%d", g, i), DurationMS: 1})
			}
		}(g)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		<-done
	}
	close(stop)
	if r.Total() != 2000 {
		t.Fatalf("total = %d, want 2000", r.Total())
	}
	if len(r.Snapshot()) != 16 {
		t.Fatalf("ring holds %d, want 16", len(r.Snapshot()))
	}
}

// TestSpanAttrOverwrite: SetAttr replaces an existing key.
func TestSpanAttrOverwrite(t *testing.T) {
	s := NewSpan("x", "1")
	s.SetAttr("cache", "miss")
	s.SetAttr("cache", "hit")
	if got := s.Attr("cache"); got != "hit" {
		t.Fatalf("attr = %q, want hit", got)
	}
	rec := s.Finish()
	if rec.Attrs["cache"] != "hit" {
		t.Fatalf("record attrs = %v", rec.Attrs)
	}
}

// TestSpanEndPhase: EndPhase closes without starting a new one, and a
// phase's duration is measured, not zero, when time passes.
func TestSpanEndPhase(t *testing.T) {
	s := NewSpan("x", "1")
	s.StartPhase("work")
	time.Sleep(2 * time.Millisecond)
	s.EndPhase()
	rec := s.Finish()
	if len(rec.Phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(rec.Phases))
	}
	if rec.Phases[0].DurMS < 1 {
		t.Fatalf("phase duration %.3f ms, want >= 1", rec.Phases[0].DurMS)
	}
}
