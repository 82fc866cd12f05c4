package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds the run's metrics. Handles returned by Counter, Gauge
// and Histogram are stable: look them up once, update them with a single
// atomic operation from any goroutine. A nil *Registry hands out nil
// handles, which are themselves safe no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]any // canonical key → *Counter | *Gauge | *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// labelPairs canonicalizes a variadic k1,v1,k2,v2 label list: sorted by
// key, panicking on an odd count (an instrumentation bug, not a runtime
// condition).
func labelPairs(labels []string) []Attr {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", labels))
	}
	out := make([]Attr, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		out = append(out, Attr{Key: labels[i], Value: labels[i+1]})
	}
	slices.SortFunc(out, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
	return out
}

func metricKey(name string, pairs []Attr) string {
	if len(pairs) == 0 {
		return name
	}
	n := len(name)
	for _, p := range pairs {
		n += 2 + len(p.Key) + len(p.Value)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	for _, p := range pairs {
		b.WriteByte(0xff)
		b.WriteString(p.Key)
		b.WriteByte(0xfe)
		b.WriteString(p.Value)
	}
	return b.String()
}

// Counter is a monotonically increasing int64 metric.
type Counter struct {
	name   string
	labels []Attr
	v      atomic.Int64
}

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored — counters only go up). Safe
// on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (current allocation, queue depth).
type Gauge struct {
	name   string
	labels []Attr
	v      atomic.Int64
}

// Set stores v. Safe on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by n (may be negative). Safe on a nil gauge.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// SetMax raises the gauge to v if v is larger (a high-water mark).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution metric. Buckets hold counts
// of observations ≤ the bound (cumulated at export, Prometheus-style);
// observations above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	name    string
	labels  []Attr
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-added
}

// Observe records one sample. Safe on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		newv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, newv) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LinearBuckets returns n bounds starting at start, spaced by width.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n bounds starting at start, each factor× the last.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefSecondsBuckets covers 1µs..~67s exponentially — a sensible default
// for the latency histograms the substrates record.
func DefSecondsBuckets() []float64 { return ExpBuckets(1e-6, 4, 13) }

// Counter returns (registering on first use) the counter with the given
// name and label pairs (k1, v1, k2, v2, ...).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	pairs := labelPairs(labels)
	key := metricKey(name, pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %q registered as %T, requested as counter", name, m))
		}
		return c
	}
	c := &Counter{name: name, labels: pairs}
	r.metrics[key] = c
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	pairs := labelPairs(labels)
	key := metricKey(name, pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %q registered as %T, requested as gauge", name, m))
		}
		return g
	}
	g := &Gauge{name: name, labels: pairs}
	r.metrics[key] = g
	return g
}

// Histogram returns (registering on first use) the named histogram.
// buckets are the upper bounds, ascending; nil uses DefSecondsBuckets.
// The bounds are fixed by the first registration.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	pairs := labelPairs(labels)
	key := metricKey(name, pairs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %q registered as %T, requested as histogram", name, m))
		}
		return h
	}
	if buckets == nil {
		buckets = DefSecondsBuckets()
	}
	bounds := append([]float64(nil), buckets...)
	h := &Histogram{name: name, labels: pairs, bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	r.metrics[key] = h
	return h
}

// MetricValue is one exported metric sample (counters and gauges) or
// distribution (histograms).
type MetricValue struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"` // "counter" | "gauge" | "histogram"
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value,omitempty"`
	// Histogram fields.
	Count   int64     `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"` // non-cumulative, len(Bounds)+1
}

func attrsToMap(pairs []Attr) map[string]string {
	if len(pairs) == 0 {
		return nil
	}
	m := make(map[string]string, len(pairs))
	for _, p := range pairs {
		m[p.Key] = p.Value
	}
	return m
}

// Snapshot returns every registered metric, sorted by name then labels —
// the stable order the exporters and golden tests rely on.
func (r *Registry) Snapshot() []MetricValue {
	if r == nil {
		return nil
	}
	type row struct {
		key string
		m   any
	}
	r.mu.Lock()
	rows := make([]row, 0, len(r.metrics))
	for k, m := range r.metrics {
		rows = append(rows, row{k, m})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	out := make([]MetricValue, 0, len(rows))
	for _, rw := range rows {
		switch m := rw.m.(type) {
		case *Counter:
			out = append(out, MetricValue{Name: m.name, Type: "counter", Labels: attrsToMap(m.labels), Value: m.Value()})
		case *Gauge:
			out = append(out, MetricValue{Name: m.name, Type: "gauge", Labels: attrsToMap(m.labels), Value: m.Value()})
		case *Histogram:
			buckets := make([]int64, len(m.buckets))
			for i := range m.buckets {
				buckets[i] = m.buckets[i].Load()
			}
			out = append(out, MetricValue{
				Name: m.name, Type: "histogram", Labels: attrsToMap(m.labels),
				Count: m.Count(), Sum: m.Sum(),
				Bounds: append([]float64(nil), m.bounds...), Buckets: buckets,
			})
		}
	}
	return out
}
