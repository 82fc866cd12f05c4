package dbscan

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

var allKinds = []IndexKind{IndexBrute, IndexGrid, IndexKDTree}

// blob generates n points around (cx,cy) within radius r.
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

func TestValidate(t *testing.T) {
	if err := (Params{Eps: 0, MinPts: 4}).Validate(); err == nil {
		t.Error("Eps=0 must be rejected")
	}
	if err := (Params{Eps: 0.1, MinPts: 0}).Validate(); err == nil {
		t.Error("MinPts=0 must be rejected")
	}
	if err := (Params{Eps: 0.1, MinPts: 1}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestTwoBlobsAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts []geom.Point
	pts = append(pts, blob(rng, 0, 50, 0, 0, 0.05)...)
	pts = append(pts, blob(rng, 100, 50, 10, 10, 0.05)...)
	pts = append(pts, geom.Point{ID: 999, X: 5, Y: 5}) // isolated noise
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			res, err := Cluster(pts, Params{Eps: 0.1, MinPts: 4}, kind)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumClusters != 2 {
				t.Fatalf("NumClusters = %d, want 2", res.NumClusters)
			}
			// Both blobs are dense; all their points share one label each.
			for i := 1; i < 50; i++ {
				if res.Labels[i] != res.Labels[0] {
					t.Fatalf("blob 1 split: point %d has %d, point 0 has %d", i, res.Labels[i], res.Labels[0])
				}
			}
			for i := 51; i < 100; i++ {
				if res.Labels[i] != res.Labels[50] {
					t.Fatalf("blob 2 split at point %d", i)
				}
			}
			if res.Labels[0] == res.Labels[50] {
				t.Error("distinct blobs must get distinct clusters")
			}
			if res.Labels[100] != Noise {
				t.Errorf("isolated point labeled %d, want Noise", res.Labels[100])
			}
			if res.Core[100] {
				t.Error("isolated point must not be core")
			}
		})
	}
}

func TestAllNoise(t *testing.T) {
	pts := []geom.Point{
		{ID: 0, X: 0, Y: 0}, {ID: 1, X: 10, Y: 0}, {ID: 2, X: 0, Y: 10},
	}
	res, err := Cluster(pts, Params{Eps: 0.1, MinPts: 2}, IndexGrid)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Errorf("NumClusters = %d, want 0", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != Noise {
			t.Errorf("point %d labeled %d, want Noise", i, l)
		}
	}
}

func TestMinPtsCountsSelf(t *testing.T) {
	// Two points within eps: with MinPts=2 (self + 1 neighbor) both are
	// core; with MinPts=3 neither is.
	pts := []geom.Point{{ID: 0, X: 0, Y: 0}, {ID: 1, X: 0.05, Y: 0}}
	res, err := Cluster(pts, Params{Eps: 0.1, MinPts: 2}, IndexBrute)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 || !res.Core[0] || !res.Core[1] {
		t.Errorf("MinPts=2: want one cluster of two core points, got %+v", res)
	}
	res, err = Cluster(pts, Params{Eps: 0.1, MinPts: 3}, IndexBrute)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Errorf("MinPts=3: want zero clusters, got %d", res.NumClusters)
	}
}

func TestBorderPoint(t *testing.T) {
	// A chain: cluster core at x=0..0.02 (3 mutually-close points) plus a
	// border point at 0.1 from one core point, itself not core.
	pts := []geom.Point{
		{ID: 0, X: 0, Y: 0},
		{ID: 1, X: 0.01, Y: 0},
		{ID: 2, X: 0.02, Y: 0},
		{ID: 3, X: 0.12, Y: 0}, // within 0.1 of point 2 only
	}
	res, err := Cluster(pts, Params{Eps: 0.1, MinPts: 3}, IndexBrute)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters)
	}
	if res.Labels[3] != res.Labels[0] {
		t.Error("border point must join the cluster")
	}
	if res.Core[3] {
		t.Error("border point must not be core")
	}
}

// TestIrregularShape exercises DBSCAN's headline property: finding
// non-convex clusters (here, a ring around a separate central blob).
func TestIrregularShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var pts []geom.Point
	id := uint64(0)
	// Ring of radius 1 with 720 points: neighboring ring points are
	// ~0.0087 apart, well within eps.
	for i := 0; i < 720; i++ {
		angle := float64(i) / 720 * 2 * 3.14159265358979
		pts = append(pts, geom.Point{
			ID: id,
			X:  math.Cos(angle) + rng.Float64()*0.001,
			Y:  math.Sin(angle) + rng.Float64()*0.001,
		})
		id++
	}
	center := blob(rng, id, 60, 0, 0, 0.05)
	pts = append(pts, center...)
	res, err := Cluster(pts, Params{Eps: 0.1, MinPts: 4}, IndexKDTree)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2 (ring + center)", res.NumClusters)
	}
	ringLabel := res.Labels[0]
	for i := 0; i < 720; i++ {
		if res.Labels[i] != ringLabel {
			t.Fatalf("ring split at point %d", i)
		}
	}
	if res.Labels[720] == ringLabel {
		t.Error("center blob merged with ring")
	}
}

// TestIndexAgreement: all three indexes must agree on core flags and the
// cluster partition (cluster IDs may differ only by renaming — but since
// seeds are visited in input order, even IDs must match).
func TestIndexAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pts []geom.Point
	pts = append(pts, blob(rng, 0, 120, 0, 0, 0.3)...)
	pts = append(pts, blob(rng, 200, 80, 1.5, 0.2, 0.2)...)
	pts = append(pts, blob(rng, 400, 40, -1, -1, 0.05)...)
	for i := 0; i < 30; i++ {
		pts = append(pts, geom.Point{ID: 600 + uint64(i), X: rng.Float64()*20 - 10, Y: rng.Float64()*20 - 10})
	}
	params := Params{Eps: 0.1, MinPts: 4}
	ref, err := Cluster(pts, params, IndexBrute)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []IndexKind{IndexGrid, IndexKDTree} {
		t.Run(kind.String(), func(t *testing.T) {
			got, err := Cluster(pts, params, kind)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumClusters != ref.NumClusters {
				t.Fatalf("NumClusters = %d, want %d", got.NumClusters, ref.NumClusters)
			}
			for i := range pts {
				if got.Core[i] != ref.Core[i] {
					t.Fatalf("core flag of point %d differs", i)
				}
				if got.Labels[i] != ref.Labels[i] {
					t.Fatalf("label of point %d = %d, want %d", i, got.Labels[i], ref.Labels[i])
				}
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := blob(rng, 0, 500, 0, 0, 1)
	a, err := Cluster(pts, Params{Eps: 0.1, MinPts: 4}, IndexKDTree)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(pts, Params{Eps: 0.1, MinPts: 4}, IndexKDTree)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("non-deterministic label at %d", i)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Cluster(nil, Params{Eps: 0.1, MinPts: 4}, IndexGrid)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Errorf("empty input must produce empty result, got %+v", res)
	}
}

// TestCoreInvariant: every core point has >= MinPts points (incl. itself)
// within Eps; every cluster member is a core point or within Eps of a core
// member of the same cluster.
func TestCoreInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var pts []geom.Point
	pts = append(pts, blob(rng, 0, 300, 0, 0, 0.4)...)
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{ID: 1000 + uint64(i), X: rng.Float64()*6 - 3, Y: rng.Float64()*6 - 3})
	}
	params := Params{Eps: 0.1, MinPts: 5}
	res, err := Cluster(pts, params, IndexKDTree)
	if err != nil {
		t.Fatal(err)
	}
	eps2 := params.Eps * params.Eps
	countWithin := func(i int) int {
		c := 1 // self
		for j := range pts {
			if j != i && geom.Dist2(pts[i], pts[j]) <= eps2 {
				c++
			}
		}
		return c
	}
	for i := range pts {
		n := countWithin(i)
		if res.Core[i] && n < params.MinPts {
			t.Fatalf("point %d marked core with only %d neighbors", i, n)
		}
		if !res.Core[i] && n >= params.MinPts {
			t.Fatalf("point %d not marked core despite %d neighbors", i, n)
		}
		if res.Labels[i] >= 0 && !res.Core[i] {
			// Border point: must have a core neighbor in the same cluster.
			ok := false
			for j := range pts {
				if j != i && res.Core[j] && res.Labels[j] == res.Labels[i] &&
					geom.Dist2(pts[i], pts[j]) <= eps2 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("border point %d has no core neighbor in its cluster", i)
			}
		}
		if res.Labels[i] == Noise && res.Core[i] {
			t.Fatalf("core point %d labeled noise", i)
		}
	}
}

func BenchmarkClusterIndexes(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var pts []geom.Point
	for c := 0; c < 10; c++ {
		pts = append(pts, blob(rng, uint64(c*1000), 500, rng.Float64()*10, rng.Float64()*10, 0.2)...)
	}
	params := Params{Eps: 0.1, MinPts: 4}
	for _, kind := range []IndexKind{IndexGrid, IndexKDTree} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Cluster(pts, params, kind); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
