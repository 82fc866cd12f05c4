package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// recorder is the benchmark's own span recorder. The program under test
// is not touched: spans are opened and closed here, around the calls
// into each layer's public functions. Spans are kept in memory and
// written out in Chrome trace_event form when the run ends. A nil
// *recorder records nothing, which is what "tracing off" means for the
// end-to-end runs.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []spanData
}

type spanData struct {
	ID     int
	Parent int // 0 = root
	Op     int // spans of one op share this identifier
	Name   string
	Start  time.Duration
	End    time.Duration
}

// span is an open span. A nil *span is a valid no-op handle.
type span struct {
	r  *recorder
	id int
	op int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span named name under parent (nil = root) for op.
func (r *recorder) start(parent *span, name string, op int) *span {
	if r == nil {
		return nil
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	r.spans = append(r.spans, spanData{ID: id, Parent: pid, Op: op, Name: name, Start: now, End: -1})
	return &span{r: r, id: id, op: op}
}

// child opens a span under s with s's op identifier.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.r.start(s, name, s.op)
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Since(s.r.epoch)
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	d := &s.r.spans[s.id-1]
	d.End = now
	return d.End - d.Start
}

// timed runs fn under a child span of parent and returns fn's wall time
// whether or not a recorder is attached.
func timed(r *recorder, parent *span, name string, op int, fn func() error) (time.Duration, error) {
	sp := r.start(parent, name, op)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	return d, err
}

// finished returns a copy of the closed spans.
func (r *recorder) finished() []spanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]spanData, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of its interval its child spans cover
// (overlapping children — concurrent leaves — are counted once).
func selfTimes(spans []spanData) map[string]time.Duration {
	children := make(map[int][]spanData)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// [lo, hi].
func covered(kids []spanData, lo, hi time.Duration) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] <= curHi:
			if x[1] > curHi {
				curHi = x[1]
			}
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// writeChrome writes the spans as a Chrome trace_event document
// (chrome://tracing, Perfetto). Each op is a "process"; "threads" are
// lanes assigned so that overlapping siblings render side by side.
func (r *recorder) writeChrome(path string) error {
	spans := r.finished()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	// A span shares its parent's lane unless it starts while an earlier
	// sibling is still running; then it opens a lane of its own, which its
	// subtree inherits. Sequential stages stack, concurrent leaves fan out.
	children := make(map[int][]spanData)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	lanes := make(map[int]int, len(spans))
	var assign func(s spanData, lane int)
	assign = func(s spanData, lane int) {
		lanes[s.ID] = lane
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var busyUntil time.Duration
		for _, k := range kids {
			if k.Start < busyUntil {
				assign(k, k.ID)
				continue
			}
			busyUntil = k.End
			assign(k, lane)
		}
	}
	for _, root := range children[0] {
		assign(root, root.ID)
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			TS: micros(s.Start), Dur: micros(s.End - s.Start),
			PID: s.Op, TID: lanes[s.ID],
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
