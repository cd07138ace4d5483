// Package obs is the zero-dependency observability core behind the engine,
// the serving tier and the fleet layer: a named registry of atomic counters
// and gauges, log-bucket histograms whose record path is two atomic adds
// (no locks, no allocation), and lightweight request-scoped spans kept in
// a ring-buffered "flight recorder" of the most recent requests.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments, and
// every instrument method on a nil receiver is a no-op. Code can therefore
// thread metric handles unconditionally through its hot paths and pay
// nothing when observability is disabled — the property the CI overhead
// gate (instrumented uncached sweep within 5% of uninstrumented) relies on.
//
// Rendering is deterministic: families sort by name, series by label
// signature, so the Prometheus text endpoint and the /v1/stats snapshot
// are stable byte-for-byte for equal metric states (golden-testable).
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value metric dimension. Series identity is the metric
// name plus the sorted label set.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. The zero value is usable;
// nil receivers no-op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. The zero value is usable; nil
// receivers no-op.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc and Dec move the gauge by ±1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricKind tags a registered series for rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

// series is one registered instrument: a (name, labels) identity plus
// exactly one live instrument matching kind.
type series struct {
	name   string
	labels []Label // sorted by key
	sig    string  // rendered label signature, the intern key
	help   string
	kind   metricKind

	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
	counterF func() uint64
	gaugeF   func() float64
}

// Registry is a named collection of instruments. Instruments intern: asking
// twice for the same (name, labels) returns the same handle, so packages
// can resolve their metrics independently and still share series. A nil
// *Registry hands out nil instruments (whose methods no-op), making
// "observability off" a nil check away. Construct with NewRegistry.
type Registry struct {
	mu     sync.Mutex
	byKey  map[string]*series
	sorted bool
	all    []*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*series)}
}

// seriesKey is the intern key: name plus the sorted label signature.
func seriesKey(name, sig string) string { return name + sig }

// labelSig renders sorted labels as {k="v",...} ("" when empty). The label
// slice must already be sorted.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sortedLabels returns a sorted copy of labels.
func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// intern returns the series for (name, labels), creating it with mk on
// first use. Asking for an existing series with a different kind replaces
// nothing — the existing instrument wins (and mismatched asks return nil
// instruments rather than panicking a hot path).
func (r *Registry) intern(name, help string, labels []Label, kind metricKind, mk func(*series)) *series {
	ls := sortedLabels(labels)
	sig := labelSig(ls)
	key := seriesKey(name, sig)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byKey[key]; ok {
		return s
	}
	s := &series{name: name, labels: ls, sig: sig, help: help, kind: kind}
	mk(s)
	r.byKey[key] = s
	r.all = append(r.all, s)
	r.sorted = false
	return s
}

// Counter returns (or creates) the counter for (name, labels).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	s := r.intern(name, help, labels, kindCounter, func(s *series) { s.counter = &Counter{} })
	return s.counter
}

// Gauge returns (or creates) the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	s := r.intern(name, help, labels, kindGauge, func(s *series) { s.gauge = &Gauge{} })
	return s.gauge
}

// Histogram returns (or creates) the duration histogram for (name, labels).
// Histogram metric names should end in "_seconds" — values render in
// seconds on the Prometheus endpoint.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.intern(name, help, labels, kindHistogram, func(s *series) { s.hist = &Histogram{} })
	return s.hist
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time — zero hot-path cost for sources that already maintain their own
// atomics (e.g. the engine's memo hit counters). Re-registering the same
// series replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.intern(name, help, labels, kindCounterFunc, func(s *series) {})
	r.mu.Lock()
	s.kind = kindCounterFunc
	s.counterF = fn
	r.mu.Unlock()
}

// GaugeFunc is CounterFunc for float-valued instantaneous readings.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.intern(name, help, labels, kindGaugeFunc, func(s *series) {})
	r.mu.Lock()
	s.kind = kindGaugeFunc
	s.gaugeF = fn
	r.mu.Unlock()
}

// snapshotSeries returns every series sorted by (name, label signature).
func (r *Registry) snapshotSeries() []*series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.sorted {
		sort.Slice(r.all, func(i, j int) bool {
			if r.all[i].name != r.all[j].name {
				return r.all[i].name < r.all[j].name
			}
			return r.all[i].sig < r.all[j].sig
		})
		r.sorted = true
	}
	return append([]*series(nil), r.all...)
}
