// Package telemetry is the pipeline's unified observability substrate:
// a metrics registry, a span-based tracer, and exporters for the formats
// the evaluation consumes.
//
// The paper's headline claims are performance breakdowns — per-phase
// times (§5.1.1, Figures 8–10), MRNet tree overheads (§3.3.2, Table 1)
// and GPU host-interaction counts (§3.2.2) — so every substrate
// simulator reports through this package:
//
//   - the Registry holds labeled counters, gauges and histograms,
//     race-safe and cheap enough to update from concurrent kernel
//     workers (one atomic add per increment once the handle is held);
//   - the Tracer records spans carrying BOTH wall-clock time (what
//     really ran on this host) and simulated time (what the modeled
//     Titan hardware would have spent, read from the shared
//     simclock.Clock), nested phases → partitions → kernel launches →
//     overlay hops;
//   - exporters render the collected data as a Chrome trace_event file
//     (loadable in chrome://tracing or Perfetto), Prometheus text
//     exposition, and a structured per-run JSON report reproducing the
//     paper's phase-breakdown table.
//
// A Hub bundles one Registry and one Tracer; every method on a nil Hub
// (and on the nil metric/span handles it then returns) is a no-op, so
// instrumentation points never need to be conditional — exactly the
// pattern faultinject.Plan established.
package telemetry

import (
	"strconv"
	"time"

	"repro/internal/simclock"
)

// Attr is one key/value annotation on a span, event or metric. Values
// are strings: attributes exist for humans reading traces, not for
// arithmetic (metrics cover that).
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds an int64 attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Duration builds a duration attribute (human-readable form).
func Duration(k string, v time.Duration) Attr { return Attr{Key: k, Value: v.String()} }

// Hub bundles the run's metrics registry and tracer. All substrates in
// a run share one Hub so counters aggregate and spans interleave on a
// single timeline. A nil *Hub is valid and records nothing.
type Hub struct {
	Metrics *Registry
	Trace   *Tracer
}

// New returns a Hub whose tracer reads simulated time from clock (nil
// disables sim timestamps — they read as zero).
func New(clock *simclock.Clock) *Hub {
	return &Hub{Metrics: NewRegistry(), Trace: NewTracer(clock)}
}

// Counter returns the named counter handle (nil on a nil hub).
func (h *Hub) Counter(name string, labels ...string) *Counter {
	if h == nil {
		return nil
	}
	return h.Metrics.Counter(name, labels...)
}

// Gauge returns the named gauge handle (nil on a nil hub).
func (h *Hub) Gauge(name string, labels ...string) *Gauge {
	if h == nil {
		return nil
	}
	return h.Metrics.Gauge(name, labels...)
}

// Histogram returns the named histogram handle (nil on a nil hub).
// Buckets are fixed at first registration; later calls reuse them.
func (h *Hub) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if h == nil {
		return nil
	}
	return h.Metrics.Histogram(name, buckets, labels...)
}

// Start opens a span under parent (nil parent = root span). Returns nil
// on a nil hub; a nil *Span is safe to End and annotate.
func (h *Hub) Start(parent *Span, name string, attrs ...Attr) *Span {
	if h == nil {
		return nil
	}
	return h.Trace.Start(parent, name, attrs...)
}

// Event records an instant event attached to parent's timeline.
func (h *Hub) Event(parent *Span, name string, attrs ...Attr) {
	if h == nil {
		return
	}
	h.Trace.Event(parent, name, attrs...)
}

// RecordWall records a completed span that someone else timed on the
// wall clock: it ran from start for d.
func (h *Hub) RecordWall(parent *Span, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if h == nil {
		return
	}
	h.Trace.RecordWall(parent, name, start, d, attrs...)
}

// RecordSim records a completed span whose cost lives on the simulated
// clock: wall duration is an instant, sim duration is cost. This is how
// substrates report modeled hardware charges (a PCIe transfer, a Lustre
// stripe write, an overlay hop) as visible trace intervals.
func (h *Hub) RecordSim(parent *Span, name string, cost time.Duration, attrs ...Attr) {
	if h == nil {
		return
	}
	h.Trace.RecordSim(parent, name, cost, attrs...)
}
