// Package telemetry is the stdlib-only observability kit for the
// QueryVis service: an atomic metrics registry with a Prometheus
// text-format exposition writer, a per-request stage tracer carried via
// context.Context, and request-ID helpers for structured logging.
//
// Every type tolerates a nil receiver as an explicit no-op: a nil
// *Registry hands out nil instruments whose methods do nothing, and a
// nil *Tracer records nothing, so an instrumented code path pays one
// nil check — no allocation, no clock read — when telemetry is off.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is the default histogram layout for request and stage
// durations in seconds: 50µs through 5s, roughly geometric. The pipeline
// serves paper queries in fractions of a millisecond and the service
// deadline defaults to 5s, so the range brackets everything observable.
var LatencyBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// Registry interns metric instruments by family name and label set and
// renders them in Prometheus text exposition format. All instruments are
// safe for concurrent use; registration is idempotent — asking twice for
// the same (name, labels) returns the same instrument.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one metric family: a name, a type, and its label series.
type family struct {
	name, help, kind string

	mu     sync.RWMutex
	series map[string]*series
}

// series is one labeled instrument inside a family. Exactly one of the
// value fields is set, matching the family kind.
type series struct {
	labels string // rendered `{k="v",...}`, or "" for an unlabeled series
	ctr    *Counter
	gauge  *Gauge
	fn     func() float64
	hist   *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the counter for (name, labels), creating it on first
// use. labels are alternating key/value pairs. A nil registry returns a
// nil counter, whose methods are no-ops.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	s := r.intern(name, help, "counter", labels)
	if s.ctr == nil {
		panic("telemetry: " + name + " is not a counter")
	}
	return s.ctr
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	s := r.intern(name, help, "gauge", labels)
	if s.gauge == nil {
		panic("telemetry: " + name + " is not a gauge")
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — the single-source-of-truth shape for state that already lives
// elsewhere (the quarantine store, a trace ring). Re-registering the same
// (name, labels) replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	if r == nil {
		return
	}
	s := r.intern(name, help, "gauge", labels)
	fam := r.familyOf(name)
	fam.mu.Lock()
	s.gauge, s.fn = nil, fn
	fam.mu.Unlock()
}

// Histogram returns the fixed-bucket histogram for (name, labels),
// creating it on first use with the given upper bounds (ascending,
// +Inf implicit). Later calls may pass nil buckets to fetch the
// existing instrument.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	s := r.internHist(name, help, labels, buckets)
	return s.hist
}

// Value reports the current value of the named series: a counter or
// gauge value, a gauge func's result, or a histogram's observation
// count. Missing series read 0 — convenient for tests and for callers
// (healthz) re-sourcing their fields from the registry.
func (r *Registry) Value(name string, labels ...string) float64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	fam := r.families[name]
	r.mu.RUnlock()
	if fam == nil {
		return 0
	}
	key := labelString(labels)
	fam.mu.RLock()
	s := fam.series[key]
	fam.mu.RUnlock()
	if s == nil {
		return 0
	}
	switch {
	case s.ctr != nil:
		return float64(s.ctr.Value())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	case s.fn != nil:
		return s.fn()
	case s.hist != nil:
		return float64(s.hist.Count())
	}
	return 0
}

// familyOf returns the existing family (nil when absent).
func (r *Registry) familyOf(name string) *family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.families[name]
}

// intern finds or creates the series for (name, labels).
func (r *Registry) intern(name, help, kind string, labels []string) *series {
	return r.internWith(name, help, kind, labels, func() *series {
		switch kind {
		case "counter":
			return &series{ctr: &Counter{}}
		default:
			return &series{gauge: &Gauge{}}
		}
	})
}

func (r *Registry) internHist(name, help string, labels []string, buckets []float64) *series {
	return r.internWith(name, help, "histogram", labels, func() *series {
		if len(buckets) == 0 {
			buckets = LatencyBuckets
		}
		return &series{hist: newHistogram(buckets)}
	})
}

func (r *Registry) internWith(name, help, kind string, labels []string, mk func() *series) *series {
	key := labelString(labels)

	r.mu.RLock()
	fam := r.families[name]
	r.mu.RUnlock()
	if fam == nil {
		r.mu.Lock()
		if fam = r.families[name]; fam == nil {
			fam = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
			r.families[name] = fam
		}
		r.mu.Unlock()
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, fam.kind, kind))
	}

	fam.mu.RLock()
	s := fam.series[key]
	fam.mu.RUnlock()
	if s != nil {
		return s
	}
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if s = fam.series[key]; s == nil {
		s = mk()
		s.labels = key
		fam.series[key] = s
	}
	return s
}

// labelString renders alternating key/value pairs as a canonical
// `{k="v",...}` string with keys sorted, so equal label sets intern to
// the same series regardless of argument order.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: odd label list (want key/value pairs)")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus text-format label escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Counter is a monotonically increasing integer metric. The nil counter
// is a no-op.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value reads the current count; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer metric that can go up and down. The nil gauge is a
// no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge; 0 on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Observe is lock-free
// (per-bucket atomic adds plus a CAS loop for the float sum), so
// concurrent request paths never serialize on it.
type Histogram struct {
	bounds  []float64       // ascending upper bounds; +Inf implicit
	counts  []atomic.Uint64 // len(bounds)+1, last is the +Inf bucket
	sumBits atomic.Uint64   // math.Float64bits of the running sum
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. The nil histogram is a no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Count reads the total number of observations; 0 on nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observed values; 0 on nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4). Output is deterministic: families and series
// are sorted, so the exposition is golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)

	for _, name := range names {
		fam := r.familyOf(name)
		fam.mu.RLock()
		keys := make([]string, 0, len(fam.series))
		for k := range fam.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.kind)
		for _, k := range keys {
			writeSeries(w, fam.name, fam.series[k])
		}
		fam.mu.RUnlock()
	}
}

func writeSeries(w io.Writer, name string, s *series) {
	switch {
	case s.ctr != nil:
		fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.ctr.Value())
	case s.gauge != nil:
		fmt.Fprintf(w, "%s%s %d\n", name, s.labels, s.gauge.Value())
	case s.fn != nil:
		fmt.Fprintf(w, "%s%s %s\n", name, s.labels, formatFloat(s.fn()))
	case s.hist != nil:
		h := s.hist
		cum := uint64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(s.labels, formatFloat(bound)), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(s.labels, "+Inf"), cum)
		fmt.Fprintf(w, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count%s %d\n", name, s.labels, h.Count())
	}
}

// withLE merges the `le` bucket label into an existing label string.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
