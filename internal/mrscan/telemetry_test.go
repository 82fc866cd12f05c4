package mrscan

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/lustre"
	"repro/internal/ptio"
	"repro/internal/telemetry"
)

// telemetryRun stages a dataset and runs the pipeline with a run-level
// hub installed, returning the hub and result.
func telemetryRun(t *testing.T, cfg Config, plan *faultinject.Plan) (*telemetry.Hub, *Result, error) {
	t.Helper()
	fs := lustre.New(lustre.Titan(), nil)
	in := fs.Create("input.mrsc")
	if err := ptio.WriteDataset(in, dataset.Twitter(3000, 20), false); err != nil {
		t.Fatal(err)
	}
	hub := telemetry.New(fs.Clock())
	cfg.Telemetry = hub
	cfg.FaultPlan = plan
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	return hub, res, err
}

// TestTelemetryTraceNesting: a clean run's trace has the pipeline's
// span hierarchy — run → phase → leaf → kernel — with every phase
// carrying both wall and simulated intervals.
func TestTelemetryTraceNesting(t *testing.T) {
	hub, res, err := telemetryRun(t, Default(0.1, 40, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry != hub {
		t.Fatal("Result.Telemetry does not expose the configured hub")
	}

	spans := hub.Trace.Spans()
	byID := make(map[int64]telemetry.SpanData, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}

	runs := hub.Trace.FindSpans("mrscan.run")
	if len(runs) != 1 {
		t.Fatalf("got %d mrscan.run root spans, want 1", len(runs))
	}
	root := runs[0]
	if root.Parent != 0 {
		t.Fatalf("mrscan.run has parent %d, want root", root.Parent)
	}

	for _, phase := range []string{PhasePartition, PhaseCluster, PhaseMerge, PhaseSweep} {
		ps := hub.Trace.FindSpans("phase:" + phase)
		if len(ps) != 1 {
			t.Fatalf("got %d phase:%s spans, want 1", len(ps), phase)
		}
		if ps[0].Parent != root.ID {
			t.Errorf("phase:%s parent = %d, want mrscan.run (%d)", phase, ps[0].Parent, root.ID)
		}
		// Sim time is the clock's max-over-resources reading, so a phase
		// dominated by an earlier phase's resource can show a zero delta —
		// but never a negative one.
		if ps[0].WallDuration() < 0 || ps[0].SimDuration() < 0 {
			t.Errorf("phase:%s has wall=%v sim=%v, want non-negative intervals",
				phase, ps[0].WallDuration(), ps[0].SimDuration())
		}
	}
	// The partition phase drives the PFS from sim-time zero: its sim
	// interval must be positive.
	if ps := hub.Trace.FindSpans("phase:" + PhasePartition); ps[0].SimDuration() <= 0 {
		t.Errorf("phase:partition sim = %v, want > 0", ps[0].SimDuration())
	}
	clusterSpan := hub.Trace.FindSpans("phase:" + PhaseCluster)[0]

	leaves := hub.Trace.FindSpans("leaf")
	if len(leaves) != 4 {
		t.Fatalf("got %d leaf spans, want one per leaf (4)", len(leaves))
	}
	leafIDs := make(map[int64]bool)
	for _, l := range leaves {
		if l.Parent != clusterSpan.ID {
			t.Errorf("leaf span %d parent = %d, want phase:cluster (%d)", l.ID, l.Parent, clusterSpan.ID)
		}
		leafIDs[l.ID] = true
	}

	kernels := 0
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "kernel:") {
			kernels++
			if !leafIDs[s.Parent] {
				t.Errorf("kernel span %q parent = %d, not a leaf span", s.Name, s.Parent)
			}
		}
	}
	if kernels == 0 {
		t.Fatal("no kernel spans recorded under leaves")
	}

	// The substrates fan out under the same trace: PFS I/O and overlay
	// hops must appear somewhere below the root.
	for _, name := range []string{"lustre.read", "lustre.write", "mrnet.hop"} {
		if len(hub.Trace.FindSpans(name)) == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
}

// TestTelemetryReportMatchesTimings: the JSON report's per-phase wall
// totals are the same numbers Result.Times reports (both are derived
// from the phase spans).
func TestTelemetryReportMatchesTimings(t *testing.T) {
	hub, res, err := telemetryRun(t, Default(0.1, 40, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := telemetry.BuildReport(hub)
	want := map[string]time.Duration{
		"phase:" + PhasePartition: res.Times.Partition,
		"phase:" + PhaseCluster:   res.Times.Cluster,
		"phase:" + PhaseMerge:     res.Times.Merge,
		"phase:" + PhaseSweep:     res.Times.Sweep,
	}
	if len(rep.Phases) != len(want) {
		t.Fatalf("report has %d phase rows, want %d: %+v", len(rep.Phases), len(want), rep.Phases)
	}
	for name, d := range want {
		row, ok := rep.Phase(name)
		if !ok {
			t.Errorf("report missing phase row %q", name)
			continue
		}
		if got := time.Duration(row.WallNs); got != d {
			t.Errorf("report %s wall = %v, Result.Times says %v", name, got, d)
		}
	}

	// The report must round-trip as JSON.
	var buf bytes.Buffer
	if err := telemetry.WriteReport(&buf, hub); err != nil {
		t.Fatal(err)
	}
	var round telemetry.Report
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(round.Phases) != len(rep.Phases) {
		t.Fatalf("round-tripped report has %d phases, want %d", len(round.Phases), len(rep.Phases))
	}
}

// TestTelemetryFaultEventsInTrace: a run that absorbs a transient fault
// via the phase retry policy leaves both the injection and the retry
// visible in the trace and counters.
func TestTelemetryFaultEventsInTrace(t *testing.T) {
	cfg := Default(0.1, 40, 4)
	cfg.Retry = RetryPolicy{MaxAttempts: 2}
	plan := faultinject.New(0).
		Arm(faultinject.LustreIO, faultinject.Rule{After: 5, Times: 1, Err: errOST})
	hub, res, err := telemetryRun(t, cfg, plan)
	if err != nil {
		t.Fatalf("transient fault not absorbed: %v", err)
	}
	if res.Stats.FaultsInjected == 0 {
		t.Fatal("no fault was injected; the plan never fired")
	}

	faults := hub.Trace.FindEvents("fault.injected")
	if len(faults) == 0 {
		t.Fatal("trace has no fault.injected events")
	}
	var site string
	for _, a := range faults[0].Attrs {
		if a.Key == "site" {
			site = a.Value
		}
	}
	if !strings.HasPrefix(site, "lustre.") {
		t.Errorf("fault.injected site = %q, want a lustre site", site)
	}

	retries := hub.Trace.FindEvents("mrscan.retry")
	if len(retries) == 0 {
		t.Fatal("trace has no mrscan.retry events")
	}
	if res.Times.Retries() == 0 {
		t.Fatal("Result.Times reports no retries despite retry events")
	}
	if got := hub.Counter("mrscan_phase_retries_total", "phase", PhasePartition).Value(); got == 0 {
		t.Error("mrscan_phase_retries_total{phase=partition} = 0, want > 0")
	}

	// The Chrome export of a faulty run must still be valid JSON with
	// the events present as instants.
	var buf bytes.Buffer
	if err := hub.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "fault.injected" {
			found = true
			break
		}
	}
	if !found {
		t.Error("chrome trace does not contain the fault.injected instant")
	}
}

// TestTelemetryBackwardCompatible: with no hub configured the pipeline
// behaves exactly as before — timings populated, identical labels.
func TestTelemetryBackwardCompatible(t *testing.T) {
	pts := dataset.Twitter(2000, 23)
	cfg := Default(0.1, 40, 4)
	_, labels, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.New(nil)
	cfg.Telemetry = hub
	_, labels2, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != len(labels2) {
		t.Fatalf("label count changed with telemetry on: %d vs %d", len(labels), len(labels2))
	}
	for i := range labels {
		if labels[i] != labels2[i] {
			t.Fatalf("label[%d] differs with telemetry on: %d vs %d", i, labels[i], labels2[i])
		}
	}
}

// TestTimesAreTheRunsOwnOnSharedHub: a caller-supplied hub reused across
// runs, with its span bound so low that the second run's phase spans are
// dropped. The second Result.Times must still be the second run's —
// phase durations come from the run's own spans, not from whatever span
// of that name the shared trace happens to hold.
func TestTimesAreTheRunsOwnOnSharedHub(t *testing.T) {
	const stall = 300 * time.Millisecond
	hub := telemetry.New(nil)
	run := func(cfg Config) *Result {
		t.Helper()
		fs := writeInput(t)
		cfg.Telemetry = hub
		res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Run 1 stalls in its partition phase: one transient fault, then a
	// long backoff before the retry.
	slow := Default(0.1, 40, 4)
	slow.Retry = RetryPolicy{MaxAttempts: 2, Backoff: stall}
	slow.FaultPlan = faultinject.New(0).Arm(PhaseSite(PhasePartition), faultinject.Rule{Times: 1})
	res1 := run(slow)
	if res1.Times.Partition < stall {
		t.Fatalf("run 1 partition = %v, want >= the %v backoff", res1.Times.Partition, stall)
	}

	hub.Trace.SetMaxSpans(len(hub.Trace.Spans())) // full: every later span is dropped
	res2 := run(Default(0.1, 40, 4))
	if hub.Trace.Dropped() == 0 {
		t.Fatal("run 2's spans were retained; the test needs them dropped")
	}
	if res2.Times.Partition >= stall {
		t.Errorf("run 2 partition = %v: it reports run 1's stalled phase (%v)", res2.Times.Partition, res1.Times.Partition)
	}
	for _, d := range []struct {
		phase        string
		first, again time.Duration
	}{
		{PhasePartition, res1.Times.Partition, res2.Times.Partition},
		{PhaseCluster, res1.Times.Cluster, res2.Times.Cluster},
		{PhaseMerge, res1.Times.Merge, res2.Times.Merge},
		{PhaseSweep, res1.Times.Sweep, res2.Times.Sweep},
	} {
		if d.again <= 0 || d.again == d.first {
			t.Errorf("run 2 %s = %v (run 1: %v), want its own positive duration", d.phase, d.again, d.first)
		}
	}
}
