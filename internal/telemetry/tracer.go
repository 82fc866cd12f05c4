package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// DefaultMaxSpans bounds how many finished spans a tracer retains.
// High-frequency instrumentation points (per-write Lustre spans on a
// large partition phase) can exceed any bound; past it spans are
// dropped and counted rather than growing without limit.
const DefaultMaxSpans = 250_000

// SpanData is one finished span. Times are offsets: wall times from the
// tracer's epoch (its construction instant), sim times from the
// simulated clock's zero.
type SpanData struct {
	ID        int64
	Parent    int64 // 0 = root
	Name      string
	StartWall time.Duration
	EndWall   time.Duration
	StartSim  time.Duration
	EndSim    time.Duration
	Attrs     []Attr
}

// WallDuration returns the span's wall-clock duration.
func (s SpanData) WallDuration() time.Duration { return s.EndWall - s.StartWall }

// SimDuration returns the span's simulated-time duration.
func (s SpanData) SimDuration() time.Duration { return s.EndSim - s.StartSim }

// EventData is one instant event, attached to the span it occurred
// under (Span 0 = top level).
type EventData struct {
	Span  int64
	Name  string
	Wall  time.Duration
	Sim   time.Duration
	Attrs []Attr
}

// Tracer records spans and events. Safe for concurrent use. A nil
// *Tracer records nothing and hands out nil spans.
type Tracer struct {
	clock    *simclock.Clock
	epoch    time.Time
	now      func() time.Time // test hook
	maxSpans int

	nextID atomic.Int64

	mu      sync.Mutex
	spans   chunks[SpanData]
	events  chunks[EventData]
	dropped int64
}

// chunks is an append-only record list kept in chunks that are never
// copied: each new chunk doubles the last, up to maxChunk records, so a
// tracer's records cost about what they hold where one slice regrown by
// append costs several times that.
type chunks[T any] struct {
	parts [][]T
	n     int
}

const maxChunk = 256

func (c *chunks[T]) add(v T) {
	if k := len(c.parts); k == 0 || len(c.parts[k-1]) == cap(c.parts[k-1]) {
		size := 16
		if k > 0 {
			size = min(2*cap(c.parts[k-1]), maxChunk)
		}
		c.parts = append(c.parts, make([]T, 0, size))
	}
	last := &c.parts[len(c.parts)-1]
	*last = append(*last, v)
	c.n++
}

// all returns a copy of the records in order (nil when there are none).
func (c *chunks[T]) all() []T {
	if c.n == 0 {
		return nil
	}
	out := make([]T, 0, c.n)
	for _, p := range c.parts {
		out = append(out, p...)
	}
	return out
}

// NewTracer returns a tracer whose sim timestamps read from clock (nil
// disables them). The wall epoch is the construction instant.
func NewTracer(clock *simclock.Clock) *Tracer {
	return &Tracer{clock: clock, epoch: time.Now(), now: time.Now, maxSpans: DefaultMaxSpans}
}

// SetMaxSpans adjusts the retained-span bound (≤ 0 restores the
// default). Call before recording.
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	t.mu.Lock()
	t.maxSpans = n
	t.mu.Unlock()
}

func (t *Tracer) wallNow() time.Duration { return t.now().Sub(t.epoch) }

func (t *Tracer) simNow() time.Duration {
	if t.clock == nil {
		return 0
	}
	return t.clock.Now()
}

// Span is an in-flight span. End it exactly once; a nil *Span is a
// valid no-op handle.
type Span struct {
	t     *Tracer
	data  SpanData
	mu    sync.Mutex
	ended bool
}

// Start opens a span under parent (nil = root).
func (t *Tracer) Start(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t}
	s.data.ID = t.nextID.Add(1)
	s.data.Parent = parent.ID()
	s.data.Name = name
	s.data.StartWall = t.wallNow()
	s.data.StartSim = t.simNow()
	s.data.Attrs = attrs
	return s
}

// ID returns the span's identifier (0 on nil — the root parent id).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.data.ID
}

// Annotate appends attributes to the span (before or after End has no
// effect once the span is recorded — call before End).
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Attrs = append(s.data.Attrs, attrs...)
	}
	s.mu.Unlock()
}

// End closes the span and records it. Repeated calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.EndWall = s.t.wallNow()
	s.data.EndSim = s.t.simNow()
	if s.data.EndSim < s.data.StartSim {
		s.data.EndSim = s.data.StartSim
	}
	data := s.data
	s.mu.Unlock()
	s.t.record(data)
}

// WallDuration returns an ended span's wall-clock duration — the number
// its recorded SpanData carries, without looking the span up by name on a
// tracer that other runs share or that has started dropping spans. Zero
// on a nil or still-open span.
func (s *Span) WallDuration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.data.WallDuration()
}

func (t *Tracer) record(d SpanData) {
	t.mu.Lock()
	if t.spans.n >= t.maxSpans {
		t.dropped++
	} else {
		t.spans.add(d)
	}
	t.mu.Unlock()
}

// RecordSim records a completed span that is an instant in wall time
// but spans cost on the simulated clock, starting at the clock's
// current reading — how modeled hardware charges (PCIe transfers,
// stripe writes, overlay hops) appear as trace intervals.
func (t *Tracer) RecordSim(parent *Span, name string, cost time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	if cost < 0 {
		cost = 0
	}
	w := t.wallNow()
	sim := t.simNow()
	t.record(SpanData{
		ID:        t.nextID.Add(1),
		Parent:    parent.ID(),
		Name:      name,
		StartWall: w,
		EndWall:   w,
		StartSim:  sim,
		EndSim:    sim + cost,
		Attrs:     attrs,
	})
}

// RecordWall records a completed span that ran from start for d on the
// wall clock, measured by someone else — a remote worker's stage reported
// over the wire. Sim time is an instant at the clock's current reading.
func (t *Tracer) RecordWall(parent *Span, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	w, sim := start.Sub(t.epoch), t.simNow()
	t.record(SpanData{
		ID: t.nextID.Add(1), Parent: parent.ID(), Name: name,
		StartWall: w, EndWall: w + max(d, 0), StartSim: sim, EndSim: sim, Attrs: attrs,
	})
}

// Event records an instant event under parent's timeline.
func (t *Tracer) Event(parent *Span, name string, attrs ...Attr) {
	if t == nil {
		return
	}
	e := EventData{
		Span:  parent.ID(),
		Name:  name,
		Wall:  t.wallNow(),
		Sim:   t.simNow(),
		Attrs: attrs,
	}
	t.mu.Lock()
	if t.events.n >= t.maxSpans {
		t.dropped++
	} else {
		t.events.add(e)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the finished spans, in end order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.all()
}

// Events returns a copy of the recorded events, in record order.
func (t *Tracer) Events() []EventData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.all()
}

// Dropped returns how many spans/events the retention bound discarded.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// FindSpans returns the finished spans with the given name, in end
// order — a convenience for tests and report construction.
func (t *Tracer) FindSpans(name string) []SpanData {
	var out []SpanData
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// FindEvents returns the recorded events with the given name.
func (t *Tracer) FindEvents(name string) []EventData {
	var out []EventData
	for _, e := range t.Events() {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}
