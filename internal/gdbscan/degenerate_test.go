package gdbscan

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/geom"
)

// TestDegenerateInputs hardens Cluster against the partition shapes the
// pipeline actually produces at the margins: an empty partition (a leaf
// whose region holds no points), a single point, and an all-duplicate
// dataset (the Twitter data contains heavy coordinate duplication —
// retweet bursts geotag identical coordinates) — and against geometry
// chosen to break the tree's cell grid: a progression that halves toward
// one corner (a tree as deep as its Morton keys are long, at an Eps far
// below the grid's resolution too), extents at both ends of the float
// range, everything in one cell and a cell per point. Both
// host-interaction modes must handle all of them.
func TestDegenerateInputs(t *testing.T) {
	dup := make([]geom.Point, 50)
	for i := range dup {
		dup[i] = geom.Point{ID: uint64(i), X: 1.5, Y: -2.5}
	}
	twoDup := []geom.Point{{ID: 0, X: 1, Y: 1}, {ID: 1, X: 1, Y: 1}}
	mk := func(n int, f func(i int) (x, y float64)) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			x, y := f(i)
			pts[i] = geom.Point{ID: uint64(i), X: x, Y: y}
		}
		return pts
	}
	geometric := mk(61, func(i int) (float64, float64) { return math.Ldexp(1, -i), 0 })
	geometric2 := mk(122, func(i int) (float64, float64) { return math.Ldexp(1, -(i / 2)), math.Ldexp(1, -(i+1)/2) })
	wave := func(scale float64) []geom.Point {
		return mk(300, func(i int) (float64, float64) {
			return scale * math.Sin(float64(i)), scale * math.Cos(float64(3*i))
		})
	}
	lattice := mk(400, func(i int) (float64, float64) { return float64(i % 20), float64(i / 20) })

	cases := []struct {
		name   string
		pts    []geom.Point
		eps    float64
		minPts int
		// wantClusters < 0 means "validate against the reference" only.
		wantClusters int
	}{
		{"empty", nil, 0.1, 4, 0},
		{"empty-slice", []geom.Point{}, 0.1, 4, 0},
		{"single-noise", []geom.Point{{ID: 7, X: 3, Y: 4}}, 0.1, 4, 0},
		{"single-minpts1", []geom.Point{{ID: 7, X: 3, Y: 4}}, 0.1, 1, 1},
		{"all-duplicates", dup, 0.1, 4, 1},
		{"duplicates-below-minpts", twoDup, 0.1, 3, 0},
		{"duplicates-at-minpts", twoDup, 0.1, 2, 1},
		{"two-apart", mk(2, func(i int) (float64, float64) { return float64(i), 0 }), 0.1, 1, 2},
		{"two-near", mk(2, func(i int) (float64, float64) { return 0.05 * float64(i), 0 }), 0.1, 2, 1},
		{"geometric", geometric, 0.1, 3, -1},
		{"geometric-below-the-grid", geometric, 1e-15, 2, -1},
		{"geometric-2d", geometric2, 1e-9, 2, -1},
		{"extent-1e300", wave(1e300), 2e299, 3, -1},
		{"extent-1e-300", wave(1e-300), 2e-301, 3, -1},
		{"one-cell", mk(400, func(i int) (float64, float64) { return 1 + 1e-9*float64(i%20), 1 + 1e-9*float64(i/20) }), 0.1, 4, 1},
		{"cell-each", lattice, 0.1, 1, 400},
		{"cell-each-at-eps", lattice, 1, 5, -1},
	}
	for _, mode := range []Mode{ModeMrScan, ModeCUDADClust} {
		for _, denseBox := range []bool{false, true} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/densebox=%v/%s", mode, denseBox, tc.name), func(t *testing.T) {
					params := geom.Params{Eps: tc.eps, MinPts: tc.minPts}
					res, err := Cluster(testDevice(), tc.pts, Options{
						Params:   params,
						Mode:     mode,
						DenseBox: denseBox,
					})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Labels) != len(tc.pts) || len(res.Core) != len(tc.pts) {
						t.Fatalf("output lengths %d/%d, want %d", len(res.Labels), len(res.Core), len(tc.pts))
					}
					if tc.wantClusters >= 0 && res.NumClusters != tc.wantClusters {
						t.Errorf("NumClusters = %d, want %d", res.NumClusters, tc.wantClusters)
					}
					if len(tc.pts) > 0 {
						validate(t, tc.pts, params, res)
					}
				})
			}
		}
	}
}

// TestDenseBoxLinkingAcrossLeaves pins the linkBoxes path: two
// adjacent KD leaves that are both dense boxes, density-reachable only
// through each other (no expanded core point between them), must come out
// as ONE cluster, matching the reference implementation. Expansion can
// never merge them — every member is pre-labeled and skipped — so only
// the box↔box linking pass makes this correct.
func TestDenseBoxLinkingAcrossLeaves(t *testing.T) {
	const minPts = 4
	eps := 0.1
	var pts []geom.Point
	// Group A: a tight clump at the origin; group B: an equally tight
	// clump eps-adjacent to it. Each group spans far less than eps, so a
	// KD leaf holding one group is a dense box.
	for i := 0; i < minPts; i++ {
		pts = append(pts, geom.Point{ID: uint64(i), X: 0.001 * float64(i), Y: 0})
	}
	for i := 0; i < minPts; i++ {
		pts = append(pts, geom.Point{ID: uint64(minPts + i), X: 0.09 + 0.001*float64(i), Y: 0})
	}
	params := geom.Params{Eps: eps, MinPts: minPts}
	// The clumps lie in different cells of the Eps/√2 grid and LeafSize =
	// minPts lets no leaf hold both: one leaf per group, both dense.
	res, err := Cluster(testDevice(), pts, Options{
		Params:   params,
		DenseBox: true,
		LeafSize: minPts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DenseBoxes != 2 {
		t.Fatalf("DenseBoxes = %d, want 2 (the premise of the test)", res.Stats.DenseBoxes)
	}
	if res.Stats.DenseBoxPoints != len(pts) {
		t.Fatalf("DenseBoxPoints = %d, want %d", res.Stats.DenseBoxPoints, len(pts))
	}
	// No expansion ran: there is no core point outside the boxes that
	// could have bridged them.
	if res.Stats.SeedRounds != 0 {
		t.Fatalf("SeedRounds = %d, want 0 — a seed expansion would mask the linking path", res.Stats.SeedRounds)
	}
	if res.NumClusters != 1 {
		t.Errorf("NumClusters = %d, want 1: adjacent dense boxes must merge", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != res.Labels[0] {
			t.Errorf("point %d in cluster %d, want %d (single cluster)", i, l, res.Labels[0])
		}
		if !res.Core[i] {
			t.Errorf("point %d not core; every dense-box member is core", i)
		}
	}

	// The reference implementation agrees: one cluster covering all points.
	ref, err := baseline.TIDBSCAN(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ref.Labels {
		if l == geom.Noise || l != ref.Labels[0] {
			t.Fatalf("reference disagrees with test premise: labels %v", ref.Labels)
		}
	}
	validate(t, pts, params, res)
}
