package telemetry

import (
	"testing"
	"time"

	"repro/internal/simclock"
)

// fakeTracer returns a tracer whose wall clock is driven by the test:
// each call to tick advances it by step.
func fakeTracer(clock *simclock.Clock, step time.Duration) (*Tracer, func()) {
	tr := NewTracer(clock)
	now := tr.epoch
	tr.now = func() time.Time { return now }
	return tr, func() { now = now.Add(step) }
}

func TestSpanNesting(t *testing.T) {
	clock := simclock.New()
	tr, tick := fakeTracer(clock, time.Millisecond)
	root := tr.Start(nil, "run")
	tick()
	child := tr.Start(root, "phase", String(AttrKind, KindPhase))
	clock.Charge("gpu", 5*time.Second)
	tick()
	child.End()
	tick()
	// A span reports its own wall duration once ended — zero while open
	// (and on a nil span).
	if got := root.WallDuration(); got != 0 {
		t.Fatalf("open root reports wall %v, want 0", got)
	}
	root.End()
	if got := (*Span)(nil).WallDuration(); got != 0 {
		t.Fatalf("nil span reports wall %v, want 0", got)
	}
	if child.WallDuration() != time.Millisecond || root.WallDuration() != 3*time.Millisecond {
		t.Fatalf("ended spans report wall %v / %v, want 1ms / 3ms", child.WallDuration(), root.WallDuration())
	}

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// End order: child first.
	c, r := spans[0], spans[1]
	if c.Name != "phase" || r.Name != "run" {
		t.Fatalf("unexpected order: %q, %q", c.Name, r.Name)
	}
	if c.Parent != r.ID {
		t.Fatalf("child.Parent = %d, want %d", c.Parent, r.ID)
	}
	if c.WallDuration() != time.Millisecond {
		t.Fatalf("child wall = %v, want 1ms", c.WallDuration())
	}
	if r.WallDuration() != 3*time.Millisecond {
		t.Fatalf("root wall = %v, want 3ms", r.WallDuration())
	}
	if c.SimDuration() != 5*time.Second {
		t.Fatalf("child sim = %v, want 5s", c.SimDuration())
	}
}

func TestRecordSimAndEvents(t *testing.T) {
	clock := simclock.New()
	tr, _ := fakeTracer(clock, 0)
	root := tr.Start(nil, "run")
	tr.RecordSim(root, "lustre.write", 7*time.Millisecond, Int64("bytes", 4096))
	tr.Event(root, "fault.injected", String("site", "lustre.write"))
	root.End()

	ws := tr.FindSpans("lustre.write")
	if len(ws) != 1 {
		t.Fatalf("got %d lustre.write spans, want 1", len(ws))
	}
	if ws[0].SimDuration() != 7*time.Millisecond || ws[0].WallDuration() != 0 {
		t.Fatalf("sim span durations wrong: %+v", ws[0])
	}
	if ws[0].Parent != root.ID() {
		t.Fatal("RecordSim span should nest under parent")
	}
	evs := tr.FindEvents("fault.injected")
	if len(evs) != 1 || evs[0].Span != root.ID() {
		t.Fatalf("events = %+v", evs)
	}
}

func TestDoubleEndAndAnnotate(t *testing.T) {
	tr := NewTracer(nil)
	s := tr.Start(nil, "x")
	s.Annotate(Int("leaf", 3))
	s.End()
	s.End()
	s.Annotate(Int("late", 1)) // after End: dropped
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("double End recorded %d spans", len(spans))
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0].Key != "leaf" {
		t.Fatalf("attrs = %+v", spans[0].Attrs)
	}
}

func TestSpanCap(t *testing.T) {
	tr, tick := fakeTracer(nil, time.Millisecond)
	tr.SetMaxSpans(3)
	var last *Span
	for i := 0; i < 5; i++ {
		last = tr.Start(nil, "s")
		tick()
		last.End()
	}
	// A dropped span still knows its own duration.
	if got := last.WallDuration(); got != time.Millisecond {
		t.Fatalf("dropped span reports wall %v, want 1ms", got)
	}
	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("retained %d spans, want 3", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Fatalf("dropped = %d, want 2", got)
	}
}
