package mrscan

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/quality"
)

// TestPipelinePropertyRandomConfigs fuzzes the whole pipeline over random
// topology and feature combinations: every configuration must stay above
// the paper's quality floor against the sequential reference.
func TestPipelinePropertyRandomConfigs(t *testing.T) {
	pts := dataset.Twitter(3000, 50)
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	f := func(leavesRaw, fanoutRaw uint8, dense, shadowReps, direct, reclaim bool) bool {
		cfg := Default(0.1, 10, int(leavesRaw)%12+1)
		cfg.Fanout = int(fanoutRaw)%6 + 2
		cfg.DenseBox = dense
		cfg.ShadowReps = shadowReps
		cfg.DirectPartitions = direct
		cfg.ReclaimBorders = reclaim
		_, labels, err := RunPoints(pts, cfg)
		if err != nil {
			t.Logf("config %+v failed: %v", cfg, err)
			return false
		}
		score, err := quality.Score(ref.Labels, labels)
		if err != nil {
			return false
		}
		// ShadowReps legitimately trades a little quality for I/O.
		floor := 0.995
		if shadowReps {
			floor = 0.95
		}
		if score < floor {
			t.Logf("leaves=%d fanout=%d dense=%v reps=%v direct=%v reclaim=%v: score=%.4f",
				cfg.Leaves, cfg.Fanout, dense, shadowReps, direct, reclaim, score)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPipelineMoons runs the canonical non-convex workload through the
// full distributed pipeline.
func TestPipelineMoons(t *testing.T) {
	pts := dataset.Moons(4000, 51, 0.04)
	cfg := Default(0.15, 8, 4)
	score, res, ref := runAndScore(t, pts, cfg)
	if ref.NumClusters != 2 {
		t.Fatalf("reference found %d clusters, want 2", ref.NumClusters)
	}
	if res.NumClusters != 2 {
		t.Errorf("pipeline found %d clusters, want 2 moons", res.NumClusters)
	}
	if score < 0.995 {
		t.Errorf("quality = %.4f", score)
	}
}

// TestSoakHalfMillion pushes a realistic volume through the full pipeline
// (run with -short to skip).
func TestSoakHalfMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	pts := dataset.Twitter(500_000, 52)
	cfg := Default(0.1, 40, 16)
	res, labels, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OutputPoints != int64(len(pts)) {
		t.Errorf("OutputPoints = %d, want %d", res.Stats.OutputPoints, len(pts))
	}
	if res.NumClusters < 50 {
		t.Errorf("NumClusters = %d; expected many metros at this volume", res.NumClusters)
	}
	seen := make(map[int]bool)
	for _, l := range labels {
		if l >= res.NumClusters {
			t.Fatalf("label %d out of range", l)
		}
		if l >= 0 {
			seen[l] = true
		}
	}
	if len(seen) != res.NumClusters {
		t.Errorf("output uses %d cluster IDs, result says %d", len(seen), res.NumClusters)
	}
	t.Logf("500k points, 16 leaves: %d clusters, total %v (gpu %v), sim %v",
		res.NumClusters, res.Times.Total, res.Times.GPUDBSCAN, res.Stats.SimNow)
	for _, r := range res.Stats.Resources {
		if r.Busy > 0 && (r.Name == "lustre/seek" || r.Name == "mrnet/startup") {
			t.Logf("resource %v", r)
		}
	}
}

// TestResourcesSnapshotPopulated checks the per-resource simulated-time
// breakdown is exposed on results.
func TestResourcesSnapshotPopulated(t *testing.T) {
	pts := dataset.Twitter(2000, 53)
	res, _, err := RunPoints(pts, Default(0.1, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"lustre/seek": false, "mrnet/startup": false}
	gpuSeen := false
	for _, r := range res.Stats.Resources {
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if r.Busy > 0 && strings.HasPrefix(r.Name, "gpu") {
			gpuSeen = true
		}
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("resource %q missing from snapshot %v", name, res.Stats.Resources)
		}
	}
	if !gpuSeen {
		t.Error("no GPU resource in snapshot")
	}
}
