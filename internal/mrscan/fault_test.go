package mrscan

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lustre"
	"repro/internal/ptio"
)

// errOST mimics a Lustre OST eviction surfacing as an I/O error.
var errOST = errors.New("OST evicted")

// faultRun stages a dataset and runs the pipeline under the given fault
// plan.
func faultRun(t *testing.T, plan *faultinject.Plan, cfg Config) error {
	t.Helper()
	fs := lustre.New(lustre.Titan(), nil)
	in := fs.Create("input.mrsc")
	if err := ptio.WriteDataset(in, dataset.Twitter(3000, 20), false); err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = plan
	_, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	return err
}

// ostAfter arms a permanent OST fault after `after` I/O operations.
func ostAfter(after int64) *faultinject.Plan {
	return faultinject.New(0).
		Arm(faultinject.LustreIO, faultinject.Rule{After: after, Err: errOST})
}

// TestFaultInjectionAcrossPhases walks the fault point through the run:
// every failure must surface as a wrapped error naming a phase — never a
// panic, hang, or silent success with corrupt output.
func TestFaultInjectionAcrossPhases(t *testing.T) {
	cfg := Default(0.1, 40, 4)
	// Find the fault-free operation count first.
	fs := lustre.New(lustre.Titan(), nil)
	in := fs.Create("input.mrsc")
	if err := ptio.WriteDataset(in, dataset.Twitter(3000, 20), false); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(fs, "input.mrsc", "output.mrsl", cfg); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	totalOps := st.ReadOps + st.WriteOps

	// Inject at several points through the run (early, each quartile).
	for _, frac := range []int64{0, 1, 2, 3} {
		after := totalOps * frac / 4
		err := faultRun(t, ostAfter(after), cfg)
		if err == nil {
			t.Fatalf("fault after %d ops: run succeeded, want error", after)
		}
		if !errors.Is(err, errOST) {
			t.Fatalf("fault after %d ops: error %v does not wrap the injected fault", after, err)
		}
		if !strings.Contains(err.Error(), "phase") {
			t.Fatalf("fault after %d ops: error %v does not name the failing phase", after, err)
		}
	}
}

// TestUnrecoverableFaultSurvivesRetries: a permanent fault defeats the
// retry policy and still surfaces, naming the phase.
func TestUnrecoverableFaultSurvivesRetries(t *testing.T) {
	cfg := Default(0.1, 40, 2)
	cfg.Retry = RetryPolicy{MaxAttempts: 3}
	err := faultRun(t, ostAfter(0), cfg)
	if !errors.Is(err, errOST) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
	if !strings.Contains(err.Error(), "partition phase") {
		t.Fatalf("error %v does not name the partition phase", err)
	}
}

// TestOutOfRangeNotRetried: a point outside the grid's range fails the
// partition phase with a *grid.RangeError at its first attempt, whatever
// the retry policy allows.
func TestOutOfRangeNotRetried(t *testing.T) {
	fs := lustre.New(lustre.Titan(), nil)
	in := fs.Create("input.mrsc")
	if err := ptio.WriteDataset(in, []geom.Point{{ID: 7, X: math.NaN()}, {ID: 8}, {ID: 9, X: 0.05}}, false); err != nil {
		t.Fatal(err)
	}
	cfg := Default(0.1, 2, 2)
	cfg.Retry = RetryPolicy{MaxAttempts: 3}
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if !errors.As(err, new(*grid.RangeError)) || res.Times.PartitionRetries != 0 {
		t.Fatalf("err %v after %d retries: want a *grid.RangeError and none", err, res.Times.PartitionRetries)
	}
}

func TestFaultInjectionDisarmed(t *testing.T) {
	fs := lustre.New(lustre.Titan(), nil)
	in := fs.Create("input.mrsc")
	if err := ptio.WriteDataset(in, dataset.Twitter(1000, 21), false); err != nil {
		t.Fatal(err)
	}
	fs.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.LustreIO, faultinject.Rule{Err: errOST}))
	fs.SetFaultPlan(nil) // disarm
	if _, err := Run(fs, "input.mrsc", "output.mrsl", Default(0.1, 40, 2)); err != nil {
		t.Fatalf("disarmed fault still fired: %v", err)
	}
}

func TestFaultDirectPartitionsStillReadsInput(t *testing.T) {
	// Direct transfer avoids partition writes but must still surface
	// input read errors.
	cfg := Default(0.1, 40, 2)
	cfg.DirectPartitions = true
	err := faultRun(t, ostAfter(0), cfg)
	if !errors.Is(err, errOST) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
}

// TestTransientLustreFaultRecovered: a bounded OST fault (one failure,
// then healthy) is absorbed by the phase retry policy and the final
// labels are identical to a fault-free run.
func TestTransientLustreFaultRecovered(t *testing.T) {
	pts := dataset.Twitter(3000, 22)
	cfg := Default(0.1, 40, 4)
	_, want, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Retry = RetryPolicy{MaxAttempts: 2}
	cfg.FaultPlan = faultinject.New(0).
		Arm(faultinject.LustreIO, faultinject.Rule{After: 5, Times: 1, Err: errOST})
	res, got, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatalf("transient fault not absorbed by retry: %v", err)
	}
	if res.Times.Retries() == 0 {
		t.Error("Retries() = 0, want at least one phase retry")
	}
	if res.Stats.FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d, want 1", res.Stats.FaultsInjected)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d: recovery changed the clustering", i, got[i], want[i])
		}
	}
}

// TestNodeCrashRecoveryEquivalence: an overlay internal node crashes
// mid-run; MRNet-style re-parenting absorbs it with no phase retry and
// the labels are identical to a fault-free run.
func TestNodeCrashRecoveryEquivalence(t *testing.T) {
	pts := dataset.Twitter(3000, 23)
	cfg := Default(0.1, 40, 16)
	cfg.Fanout = 4 // deeper tree: 16 leaves with internal nodes to kill
	_, want, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.FaultPlan = faultinject.New(0).
		Arm(faultinject.MRNetNode, faultinject.Rule{Times: 1})
	res, got, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatalf("node crash not recovered: %v", err)
	}
	if res.Stats.NetRecoveries != 1 {
		t.Errorf("NetRecoveries = %d, want 1", res.Stats.NetRecoveries)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d: recovery changed the clustering", i, got[i], want[i])
		}
	}
}

// TestGPUFaultNamesClusterPhase: a permanent kernel-launch fault
// surfaces as a wrapped error naming the cluster phase; a transient one
// is absorbed by the retry policy.
func TestGPUFaultNamesClusterPhase(t *testing.T) {
	cfg := Default(0.1, 40, 2)
	err := faultRun(t, faultinject.New(0).
		Arm(faultinject.GPULaunch, faultinject.Rule{}), cfg)
	if err == nil {
		t.Fatal("permanent GPU fault: run succeeded, want error")
	}
	if !strings.Contains(err.Error(), "cluster phase") {
		t.Errorf("error %v does not name the cluster phase", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("error %v does not wrap the injected fault", err)
	}

	cfg.Retry = RetryPolicy{MaxAttempts: 2}
	if err := faultRun(t, faultinject.New(0).
		Arm(faultinject.GPULaunch, faultinject.Rule{Times: 1}), cfg); err != nil {
		t.Errorf("transient GPU fault not absorbed by retry: %v", err)
	}
}

// TestTCPMergeKillMidFrameRecovers: a process killed mid-frame during
// the TCP merge tears the overlay; the merge-phase retry rebuilds it
// from the durable partition outputs and the run completes correctly.
func TestTCPMergeKillMidFrameRecovers(t *testing.T) {
	pts := dataset.Twitter(5000, 21)
	cfg := Default(0.1, 40, 4)
	cfg.MergeOverTCP = true
	cfg.Retry = RetryPolicy{MaxAttempts: 3}

	_, want, err := RunPoints(pts, Default(0.1, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	cfg.FaultPlan = faultinject.New(0).
		Arm(faultinject.MRNetFrame, faultinject.Rule{Times: 1})
	res, got, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatalf("mid-frame kill not recovered by merge retry: %v", err)
	}
	if res.Times.MergeRetries == 0 {
		t.Error("MergeRetries = 0: the torn frame should have cost one merge attempt")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d: recovery changed the clustering", i, got[i], want[i])
		}
	}
}

// TestBadTopologyFailsBeforeAnyIO: a Topology that cannot host Leaves is
// a configuration error, caught before the run opens a span or touches
// the file system — not after a partition phase it would have wasted.
func TestBadTopologyFailsBeforeAnyIO(t *testing.T) {
	fs := writeInput(t)
	before := fs.Stats()
	cfg := Default(0.1, 40, 4)
	cfg.Topology = "3x3" // 9 leaves ≠ 4
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err == nil || !strings.Contains(err.Error(), "topology") {
		t.Fatalf("err = %v, want a topology mismatch", err)
	}
	if res != nil {
		t.Fatalf("rejected config returned a result: %+v", res)
	}
	if after := fs.Stats(); after != before {
		t.Fatalf("rejected config touched the file system: %+v -> %+v", before, after)
	}
}

// TestNetworkConstructionErrorFinishes: an overlay tree that cannot be
// built fails the run like any other phase error — a partial Result, the
// phase named, and every span the run opened closed and in the trace.
func TestNetworkConstructionErrorFinishes(t *testing.T) {
	fs := writeInput(t)
	cfg := Default(0.1, 40, 4)
	cfg.Fanout = 1 // mrnet needs at least 2
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err == nil || !strings.Contains(err.Error(), "partition phase") {
		t.Fatalf("err = %v, want a partition phase error", err)
	}
	if res == nil {
		t.Fatal("failed run returned no partial result")
	}
	if len(res.CompletedPhases) != 0 || res.Times.Total <= 0 {
		t.Fatalf("partial result = %+v, want no completed phases and a total time", res)
	}
	for _, name := range []string{"mrscan.run", "phase:" + PhasePartition} {
		if n := len(res.Telemetry.Trace.FindSpans(name)); n != 1 {
			t.Errorf("trace holds %d ended %q spans, want 1", n, name)
		}
	}
}
