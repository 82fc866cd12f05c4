package gdbscan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
)

func testDevice() *gpusim.Device {
	cfg := gpusim.K20()
	cfg.SMs = 8
	return gpusim.New(cfg, nil)
}

func blob(rng *rand.Rand, idBase uint64, n int, cx, cy, r float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			ID: idBase + uint64(i),
			X:  cx + (rng.Float64()*2-1)*r,
			Y:  cy + (rng.Float64()*2-1)*r,
		}
	}
	return pts
}

// mixedDataset builds blobs of varying density plus uniform noise,
// resembling the geospatial data Mr. Scan targets.
func mixedDataset(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	var pts []geom.Point
	id := uint64(0)
	centers := [][3]float64{
		{0, 0, 0.3}, {2, 1, 0.15}, {-1.5, 2, 0.08}, {3, -2, 0.5}, {-2, -2, 0.04},
	}
	per := n * 9 / 10 / len(centers)
	for _, c := range centers {
		b := blob(rng, id, per, c[0], c[1], c[2])
		pts = append(pts, b...)
		id += uint64(per)
	}
	for len(pts) < n {
		pts = append(pts, geom.Point{ID: id, X: rng.Float64()*12 - 6, Y: rng.Float64()*12 - 6})
		id++
	}
	return pts
}

// validate checks a gdbscan result against the reference sequential
// DBSCAN: core flags must match exactly and the labels must be the
// reference's up to renaming on *every* point — core, border and noise.
// Border points are included because the border rule gives a contested
// one to the cluster sequential DBSCAN would, provided pts carry IDs that
// do not decrease along the slice (so the rule's (ID, index) order is the
// reference's visiting order).
func validate(t *testing.T, pts []geom.Point, params geom.Params, res *Result) {
	t.Helper()
	ref, err := dbscan.Cluster(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := matchesReference(ref, res); err != nil {
		t.Fatal(err)
	}
}

// matchesReference reports how res differs from ref: a core flag, or a
// pair of points the two clusterings group differently (noise counts as
// one group that must map to noise).
func matchesReference(ref *dbscan.Result, res *Result) error {
	n := len(ref.Labels)
	if len(res.Labels) != n || len(res.Core) != n {
		return fmt.Errorf("result sizes %d/%d, want %d", len(res.Labels), len(res.Core), n)
	}
	refToGot := map[int]int32{geom.Noise: geom.Noise}
	gotToRef := map[int32]int{geom.Noise: geom.Noise}
	for i := 0; i < n; i++ {
		if res.Core[i] != ref.Core[i] {
			return fmt.Errorf("core flag of point %d = %v, want %v", i, res.Core[i], ref.Core[i])
		}
		r, g := ref.Labels[i], res.Labels[i]
		if prev, ok := refToGot[r]; ok && prev != g {
			return fmt.Errorf("point %d (core=%v): ref cluster %d maps to both %d and %d", i, ref.Core[i], r, prev, g)
		}
		if prev, ok := gotToRef[g]; ok && prev != r {
			return fmt.Errorf("point %d (core=%v): got cluster %d maps to both ref %d and %d", i, ref.Core[i], g, prev, r)
		}
		refToGot[r] = g
		gotToRef[g] = r
	}
	if want := len(refToGot) - 1; res.NumClusters != want {
		return fmt.Errorf("NumClusters = %d, labels hold %d", res.NumClusters, want)
	}
	return nil
}

func TestMatchesReferenceSmall(t *testing.T) {
	pts := mixedDataset(1, 800)
	params := geom.Params{Eps: 0.1, MinPts: 4}
	for _, dense := range []bool{false, true} {
		name := "densebox=off"
		if dense {
			name = "densebox=on"
		}
		t.Run(name, func(t *testing.T) {
			res, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: dense})
			if err != nil {
				t.Fatal(err)
			}
			validate(t, pts, params, res)
		})
	}
}

func TestMatchesReferenceAcrossMinPts(t *testing.T) {
	pts := mixedDataset(2, 1500)
	for _, minPts := range []int{2, 4, 10, 40} {
		res, err := Cluster(testDevice(), pts, Options{
			Params:   geom.Params{Eps: 0.1, MinPts: minPts},
			DenseBox: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		validate(t, pts, geom.Params{Eps: 0.1, MinPts: minPts}, res)
	}
}

func TestDenseBoxActivates(t *testing.T) {
	// A single very dense blob: dense boxes must eliminate most points.
	rng := rand.New(rand.NewSource(3))
	pts := blob(rng, 0, 4000, 0, 0, 0.02) // everything within one Eps region
	params := geom.Params{Eps: 0.1, MinPts: 4}
	res, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: true, LeafSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DenseBoxes == 0 {
		t.Fatal("dense data must produce dense boxes")
	}
	if res.Stats.DenseBoxPoints < len(pts)/2 {
		t.Errorf("dense boxes eliminated only %d of %d points", res.Stats.DenseBoxPoints, len(pts))
	}
	if res.NumClusters != 1 {
		t.Errorf("NumClusters = %d, want 1 (all boxes must link)", res.NumClusters)
	}
	validate(t, pts, params, res)
}

func TestDenseBoxAdjacentBlobsMerge(t *testing.T) {
	// Two dense micro-blobs ~0.05 apart: both become dense boxes (or box
	// + expanded region); box↔box linking must merge them.
	rng := rand.New(rand.NewSource(4))
	var pts []geom.Point
	pts = append(pts, blob(rng, 0, 200, 0, 0, 0.01)...)
	pts = append(pts, blob(rng, 1000, 200, 0.05, 0, 0.01)...)
	params := geom.Params{Eps: 0.1, MinPts: 4}
	res, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: true, LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters)
	}
	validate(t, pts, params, res)
}

func TestDenseBoxBorderAttach(t *testing.T) {
	// A dense box plus one lone point within Eps of it: the lone point is
	// a border point whose only core neighbors live in the box; the
	// border-attach pass must claim it.
	// Deterministic construction. Box 1: 15 points on a line spanning
	// x ∈ [0, 0.07] (diagonal 0.07 ≤ Eps, count = MinPts → dense box).
	// The border point at x = 0.17 is within Eps of exactly one box
	// point (distance 0.1 to x = 0.07), so it is non-core and its only
	// core neighbor is a dense-box member. Box 2 at x ≈ 1 forces the
	// KD-tree to split box 1 into its own leaf.
	var pts []geom.Point
	for i := 0; i < 15; i++ {
		pts = append(pts, geom.Point{ID: uint64(i), X: float64(i) * 0.005, Y: 0})
	}
	borderIdx := len(pts)
	pts = append(pts, geom.Point{ID: 100, X: 0.17, Y: 0})
	for i := 0; i < 15; i++ {
		pts = append(pts, geom.Point{ID: 200 + uint64(i), X: 1 + float64(i)*0.005, Y: 0})
	}
	params := geom.Params{Eps: 0.1, MinPts: 15}
	res, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: true, LeafSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DenseBoxes == 0 {
		t.Fatal("box 1 must be eliminated as a dense box for this test to be meaningful")
	}
	if res.Core[borderIdx] {
		t.Fatal("border point must not be core")
	}
	if res.Labels[borderIdx] == geom.Noise {
		t.Fatal("point within Eps of a dense box must be a border member, not noise")
	}
	if res.Labels[borderIdx] != res.Labels[0] {
		t.Errorf("border point joined cluster %d, want the box cluster %d", res.Labels[borderIdx], res.Labels[0])
	}
	validate(t, pts, params, res)
}

func TestEmptyAndTinyInputs(t *testing.T) {
	params := geom.Params{Eps: 0.1, MinPts: 4}
	res, err := Cluster(testDevice(), nil, Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Errorf("empty input: NumClusters = %d", res.NumClusters)
	}
	res, err = Cluster(testDevice(), []geom.Point{{ID: 1}}, Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || res.Labels[0] != geom.Noise {
		t.Errorf("single point must be noise, got %+v", res)
	}
}

func TestInvalidParams(t *testing.T) {
	if _, err := Cluster(testDevice(), nil, Options{Params: geom.Params{Eps: -1, MinPts: 4}}); err == nil {
		t.Error("negative Eps must be rejected")
	}
}

func TestCUDADClustModeMatchesOutput(t *testing.T) {
	pts := mixedDataset(6, 700)
	params := geom.Params{Eps: 0.1, MinPts: 4}
	res, err := Cluster(testDevice(), pts, Options{Params: params, Mode: ModeCUDADClust})
	if err != nil {
		t.Fatal(err)
	}
	validate(t, pts, params, res)
}

func TestCUDADClustModeTransferCost(t *testing.T) {
	// §3.2.2: the baseline's per-iteration synchronous copies must show up
	// as many more device transfers than Mr. Scan's single round trip.
	pts := mixedDataset(7, 3000)
	params := geom.Params{Eps: 0.1, MinPts: 4}

	devA := testDevice()
	resA, err := Cluster(devA, pts, Options{Params: params, DenseBox: true, Blocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	devB := testDevice()
	resB, err := Cluster(devB, pts, Options{Params: params, Mode: ModeCUDADClust, Blocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	if resA.Stats.DeviceTransfers != 2 {
		t.Errorf("Mr. Scan mode made %d transfers, want exactly 2 (one round trip)", resA.Stats.DeviceTransfers)
	}
	if resB.Stats.DeviceTransfers <= resA.Stats.DeviceTransfers {
		t.Errorf("CUDA-DClust mode made %d transfers, want more than %d",
			resB.Stats.DeviceTransfers, resA.Stats.DeviceTransfers)
	}
	if devB.Clock().Resource(devB.Config().Name+"/pcie") <= devA.Clock().Resource(devA.Config().Name+"/pcie") {
		t.Error("CUDA-DClust mode must accumulate more simulated PCIe time")
	}
}

func TestDenseBoxReducesExpansionWork(t *testing.T) {
	pts := mixedDataset(8, 5000)
	params := geom.Params{Eps: 0.1, MinPts: 4}
	on, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: false})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.DenseBoxPoints == 0 {
		t.Fatal("mixed dataset must trigger dense boxes")
	}
	if on.Stats.SeedRounds >= off.Stats.SeedRounds {
		t.Errorf("dense box must reduce seed rounds: on=%d off=%d",
			on.Stats.SeedRounds, off.Stats.SeedRounds)
	}
	// Same clustering either way.
	validate(t, pts, params, on)
	validate(t, pts, params, off)
}

func TestHighMinPtsWeakensDenseBox(t *testing.T) {
	// §5.1.1: "Since our dense box optimization is based on finding
	// MinPts points in a small area, it is not as effective when MinPts
	// is higher."
	pts := mixedDataset(9, 5000)
	eliminated := func(minPts int) int {
		res, err := Cluster(testDevice(), pts, Options{
			Params:   geom.Params{Eps: 0.1, MinPts: minPts},
			DenseBox: true,
			LeafSize: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.DenseBoxPoints
	}
	low := eliminated(4)
	high := eliminated(400)
	if high >= low {
		t.Errorf("dense box eliminated %d points at MinPts=400, want fewer than %d at MinPts=4", high, low)
	}
}

func TestRingShape(t *testing.T) {
	// Non-convex cluster through the GPU path.
	rng := rand.New(rand.NewSource(10))
	var pts []geom.Point
	for i := 0; i < 720; i++ {
		a := float64(i) / 720 * 2 * math.Pi
		pts = append(pts, geom.Point{ID: uint64(i), X: math.Cos(a) + rng.Float64()*0.001, Y: math.Sin(a) + rng.Float64()*0.001})
	}
	params := geom.Params{Eps: 0.1, MinPts: 4}
	res, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("ring must be one cluster, got %d", res.NumClusters)
	}
	validate(t, pts, params, res)
}

func TestDeterministicCorePartitionUnderConcurrency(t *testing.T) {
	// Block-level races decide which block claims a core point, but not
	// the clusters that come out. Run repeatedly.
	pts := mixedDataset(11, 2000)
	params := geom.Params{Eps: 0.1, MinPts: 4}
	ref, err := dbscan.Cluster(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		res, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClusters != ref.NumClusters {
			t.Fatalf("run %d: NumClusters = %d, want %d", run, res.NumClusters, ref.NumClusters)
		}
	}
}

func BenchmarkGPUDBSCAN(b *testing.B) {
	pts := mixedDataset(12, 20000)
	params := geom.Params{Eps: 0.1, MinPts: 4}
	for _, dense := range []bool{false, true} {
		name := "densebox=off"
		if dense {
			name = "densebox=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: dense}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
