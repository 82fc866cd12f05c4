package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// AttrKind is the attribute key marking a span's role in the report.
// Spans annotated String(AttrKind, KindPhase) become rows of the
// per-phase breakdown — the paper's Figure 9 table.
const (
	AttrKind  = "kind"
	KindPhase = "phase"
)

// Report is the structured per-run record: the phase breakdown the
// paper reports, aggregate span timings, event counts, and every
// metric. It is built from one Hub's collected data.
type Report struct {
	// Phases lists spans marked kind=phase in start order — the
	// pipeline's partition/cluster/merge/sweep breakdown, in both wall
	// and simulated time.
	Phases []PhaseRow `json:"phases,omitempty"`
	// Spans aggregates all spans by name.
	Spans []SpanAgg `json:"spans,omitempty"`
	// Events aggregates instant events (faults, retries, hedges) by name.
	Events []EventAgg `json:"events,omitempty"`
	// Metrics is the registry snapshot.
	Metrics []MetricValue `json:"metrics,omitempty"`
	// DroppedSpans counts spans/events lost to the retention bound; a
	// non-zero value means Spans undercounts high-frequency names.
	DroppedSpans int64 `json:"dropped_spans,omitempty"`
}

// PhaseRow is one pipeline phase in the breakdown table.
type PhaseRow struct {
	Phase  string `json:"phase"`
	WallNs int64  `json:"wall_ns"`
	Wall   string `json:"wall"`
	SimNs  int64  `json:"sim_ns"`
	Sim    string `json:"sim"`
}

// SpanAgg aggregates every span of one name.
type SpanAgg struct {
	Name        string `json:"name"`
	Count       int64  `json:"count"`
	WallTotalNs int64  `json:"wall_total_ns"`
	WallMaxNs   int64  `json:"wall_max_ns"`
	SimTotalNs  int64  `json:"sim_total_ns"`
	SimMaxNs    int64  `json:"sim_max_ns"`
}

// EventAgg counts every event of one name.
type EventAgg struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
}

// BuildReport assembles the run report from the hub's collected spans,
// events and metrics. A nil hub yields an empty report.
func BuildReport(h *Hub) *Report {
	r := &Report{}
	if h == nil {
		return r
	}
	spans := h.Trace.Spans()
	var phases []SpanData
	aggs := make(map[string]*SpanAgg)
	for _, s := range spans {
		for _, a := range s.Attrs {
			if a.Key == AttrKind && a.Value == KindPhase {
				phases = append(phases, s)
				break
			}
		}
		agg := aggs[s.Name]
		if agg == nil {
			agg = &SpanAgg{Name: s.Name}
			aggs[s.Name] = agg
		}
		agg.Count++
		w, sim := s.WallDuration().Nanoseconds(), s.SimDuration().Nanoseconds()
		agg.WallTotalNs += w
		agg.SimTotalNs += sim
		if w > agg.WallMaxNs {
			agg.WallMaxNs = w
		}
		if sim > agg.SimMaxNs {
			agg.SimMaxNs = sim
		}
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i].StartWall < phases[j].StartWall })
	for _, p := range phases {
		r.Phases = append(r.Phases, PhaseRow{
			Phase:  p.Name,
			WallNs: p.WallDuration().Nanoseconds(),
			Wall:   p.WallDuration().String(),
			SimNs:  p.SimDuration().Nanoseconds(),
			Sim:    p.SimDuration().String(),
		})
	}
	for _, agg := range aggs {
		r.Spans = append(r.Spans, *agg)
	}
	sort.Slice(r.Spans, func(i, j int) bool { return r.Spans[i].Name < r.Spans[j].Name })
	evs := make(map[string]int64)
	for _, e := range h.Trace.Events() {
		evs[e.Name]++
	}
	for name, n := range evs {
		r.Events = append(r.Events, EventAgg{Name: name, Count: n})
	}
	sort.Slice(r.Events, func(i, j int) bool { return r.Events[i].Name < r.Events[j].Name })
	r.Metrics = h.Metrics.Snapshot()
	r.DroppedSpans = h.Trace.Dropped()
	return r
}

// Phase returns the named phase row and whether it exists.
func (r *Report) Phase(name string) (PhaseRow, bool) {
	for _, p := range r.Phases {
		if p.Phase == name {
			return p, true
		}
	}
	return PhaseRow{}, false
}

// WriteReport builds the report from h and writes it as indented JSON.
func WriteReport(w io.Writer, h *Hub) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildReport(h))
}

// WriteFiles dumps h through every exporter whose output path is
// non-empty: the Chrome trace, the Prometheus text exposition and the
// JSON run report. The CLIs call it even after a failed run, so the
// trace shows what happened up to the abort.
func WriteFiles(h *Hub, tracePath, metricsPath, reportPath string) error {
	writeTo := func(path string, f func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f(out); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	}
	if err := writeTo(tracePath, h.Trace.WriteChromeTrace); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := writeTo(metricsPath, h.Metrics.WritePrometheus); err != nil {
		return fmt.Errorf("writing metrics: %w", err)
	}
	if err := writeTo(reportPath, func(w io.Writer) error { return WriteReport(w, h) }); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	return nil
}
