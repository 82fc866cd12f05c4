package gdbscan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/kdtree"
)

// TestPropertyMatchesReference fuzzes the GPU DBSCAN against the
// sequential reference on random small datasets, random parameters, and
// random tuning knobs. Core flags and the labels of every point — core,
// border and noise — must agree up to renaming.
func TestPropertyMatchesReference(t *testing.T) {
	f := func(seed int64, nRaw uint16, minRaw, blocksRaw, leafRaw uint8, dense bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%400 + 10
		minPts := int(minRaw)%12 + 2
		blocks := int(blocksRaw)%16 + 1
		leafSize := int(leafRaw)%48 + 4
		pts := clumpsAndScatter(rng, n)
		params := geom.Params{Eps: 0.1, MinPts: minPts}
		res, err := Cluster(testDevice(), pts, Options{
			Params:   params,
			DenseBox: dense,
			Blocks:   blocks,
			LeafSize: leafSize,
		})
		if err != nil {
			return false
		}
		ref, err := dbscan.Cluster(pts, params)
		if err != nil {
			return false
		}
		return matchesReference(ref, res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// clumpsAndScatter is the property tests' input: a mix of clumps and
// scatter in a small window, so clusters actually form at Eps 0.1.
func clumpsAndScatter(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		if i%3 == 0 {
			pts[i] = geom.Point{ID: uint64(i), X: rng.Float64() * 2, Y: rng.Float64() * 2}
		} else {
			cx := float64(i%5) * 0.35
			pts[i] = geom.Point{
				ID: uint64(i),
				X:  cx + rng.NormFloat64()*0.03,
				Y:  0.5 + rng.NormFloat64()*0.03,
			}
		}
	}
	return pts
}

// TestPropertyLatticeAndDegenerate exercises structured inputs that
// stress the KD-tree and dense-box geometry.
func TestPropertyLatticeAndDegenerate(t *testing.T) {
	cases := map[string][]geom.Point{
		"lattice":    latticePoints(20, 20, 0.05),
		"duplicates": duplicatePoints(300),
		"collinear":  collinearPoints(300, 0.01),
		"two-lines":  append(collinearPoints(150, 0.01), shiftY(collinearPoints(150, 0.01), 5)...),
	}
	for name, pts := range cases {
		t.Run(name, func(t *testing.T) {
			params := geom.Params{Eps: 0.1, MinPts: 4}
			res, err := Cluster(testDevice(), pts, Options{Params: params, DenseBox: true})
			if err != nil {
				t.Fatal(err)
			}
			validate(t, pts, params, res)
		})
	}
}

func latticePoints(w, h int, step float64) []geom.Point {
	pts := make([]geom.Point, 0, w*h)
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			pts = append(pts, geom.Point{
				ID: uint64(x*h + y),
				X:  float64(x) * step,
				Y:  float64(y) * step,
			})
		}
	}
	return pts
}

func duplicatePoints(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), X: 1.5, Y: -2.5}
	}
	return pts
}

func collinearPoints(n int, step float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), X: float64(i) * step, Y: 0}
	}
	return pts
}

func shiftY(pts []geom.Point, dy float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{ID: p.ID + 1000000, X: p.X, Y: p.Y + dy}
	}
	return out
}

// contractInput is one seeded input of the cell-kernel contract test.
type contractInput struct {
	name   string
	pts    []geom.Point
	params geom.Params
}

// contractInputs covers the workload shapes (Twitter, SDSS), marginal-
// density uniform data where contested border points are common, and the
// degenerate geometries. Each comes with IDs in slice order and, as the
// "/zero-ids" twin, with all-zero IDs, so the border rule's (ID, index)
// order is the reference's visiting order either way.
func contractInputs() []contractInput {
	in := []contractInput{
		{"twitter", dataset.Twitter(800, 41), geom.Params{Eps: 0.1, MinPts: 10}},
		{"sdss", dataset.SDSS(800, 42), geom.Params{Eps: 0.00015, MinPts: 5}},
		{"uniform", dataset.Uniform(800, 43, geom.Rect{MaxX: 1.6, MaxY: 1.6}), geom.Params{Eps: 0.1, MinPts: 8}},
		{"lattice", latticePoints(20, 20, 0.05), geom.Params{Eps: 0.1, MinPts: 4}},
		{"duplicates", duplicatePoints(300), geom.Params{Eps: 0.1, MinPts: 4}},
		{"collinear", collinearPoints(300, 0.01), geom.Params{Eps: 0.1, MinPts: 4}},
	}
	for _, x := range in[:len(in):len(in)] {
		zero := make([]geom.Point, len(x.pts))
		for i, p := range x.pts {
			p.ID = 0
			zero[i] = p
		}
		in = append(in, contractInput{x.name + "/zero-ids", zero, x.params})
	}
	return in
}

// TestCellKernelContract pins what the cell kernel promises, for every
// input shape × DenseBox on/off × both modes × block counts from serial to
// the default: (a) core flags and (b) the labels of every point match
// sequential DBSCAN up to renaming; (c) repeated runs return the identical
// Labels slice whatever the block scheduling (run it under -race);
// (d) every dense box is an all-core Eps cell and DenseBoxPoints is
// exactly the core points that were never expansion seeds.
func TestCellKernelContract(t *testing.T) {
	repeats := 20
	for _, in := range contractInputs() {
		ref, err := dbscan.Cluster(in.pts, in.params)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{ModeMrScan, ModeCUDADClust} {
			for _, dense := range []bool{true, false} {
				for _, blocks := range []int{1, 7, 64} {
					name := fmt.Sprintf("%s/%s/densebox=%v/blocks=%d", in.name, mode, dense, blocks)
					repeats := repeats
					if mode == ModeCUDADClust && dense {
						repeats = 1 // DenseBox is ignored there: same run as densebox=false
					}
					var ws Workspace
					opt := Options{Params: in.params, Mode: mode, DenseBox: dense, Blocks: blocks, Workspace: &ws}
					var first *Result
					for r := 0; r < repeats; r++ {
						res, err := Cluster(testDevice(), in.pts, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if first == nil {
							first = res
							if err := matchesReference(ref, res); err != nil {
								t.Errorf("%s: %v", name, err)
							}
							checkBoxes(t, name, in.pts, &ws, res, in.params, mode == ModeMrScan && dense)
						} else if !slices.Equal(res.Labels, first.Labels) {
							t.Fatalf("%s: run %d returned different labels than run 0", name, r)
						}
					}
				}
			}
		}
	}
}

// checkBoxes is contract (d), read from the box map and seed list the
// run left in its workspace and a rebuild of its (deterministic) tree.
func checkBoxes(t *testing.T, name string, pts []geom.Point, ws *Workspace, res *Result, params geom.Params, boxesOn bool) {
	t.Helper()
	var kd kdtree.Workspace
	_, flat := kd.BuildCells(pts, kdtree.DefaultLeafSize, params.Eps)
	boxes, boxPoints := 0, 0
	for ni, box := range ws.leafBox {
		if box < 0 {
			continue
		}
		boxes++
		if flat.Left[ni] >= 0 {
			t.Fatalf("%s: box %d is internal node %d", name, box, ni)
		}
		if d2 := flat.Diag2(ni); d2 > params.Eps*params.Eps {
			t.Errorf("%s: box leaf %d has squared diagonal %g > Eps²", name, ni, d2)
		}
		for _, pi := range flat.Order[flat.Start[ni] : flat.Start[ni]+flat.Count[ni]] {
			boxPoints++
			if !res.Core[pi] {
				t.Errorf("%s: box leaf %d holds non-core point %d", name, ni, pi)
			}
		}
	}
	if !boxesOn && boxes > 0 {
		t.Fatalf("%s: %d dense boxes with the optimization off", name, boxes)
	}
	if res.Stats.DenseBoxes != boxes || res.Stats.DenseBoxPoints != boxPoints {
		t.Errorf("%s: Stats report %d boxes / %d points, the tree holds %d / %d",
			name, res.Stats.DenseBoxes, res.Stats.DenseBoxPoints, boxes, boxPoints)
	}
	if boxesOn {
		if want := res.Stats.CorePoints - len(ws.seeds); res.Stats.DenseBoxPoints != want {
			t.Errorf("%s: DenseBoxPoints = %d, want core points never seeded = %d", name, res.Stats.DenseBoxPoints, want)
		}
	}
}

// TestBoxLinkingMatchesBruteForce is contract (e): two dense boxes are
// linked iff some member pair is within Eps — checked pair by pair
// against brute force on clumpy inputs where most boxes have neighbours
// whose rectangles are within Eps but whose points may not be.
func TestBoxLinkingMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pts []geom.Point
		for len(pts) < 600 {
			// Small clumps scattered so that neighbouring clumps sit
			// around one Eps apart.
			cx, cy := rng.Float64()*1.2, rng.Float64()*1.2
			for k := 3 + rng.Intn(6); k > 0; k-- {
				pts = append(pts, geom.Point{ID: uint64(len(pts)), X: cx + rng.Float64()*0.05, Y: cy + rng.Float64()*0.05})
			}
		}
		opt := Options{Params: geom.Params{Eps: 0.1, MinPts: 3}, DenseBox: true}
		opt.setDefaults()
		c := newClustering(testDevice(), pts, opt)
		if err := c.classify(); err != nil {
			t.Fatal(err)
		}
		c.promoteBoxes()
		var boxLeaves []int
		for ni, box := range c.leafBox {
			if box >= 0 {
				boxLeaves = append(boxLeaves, ni)
			}
		}
		touching, rectOnly := 0, 0
		for i, a := range boxLeaves {
			for _, b := range boxLeaves[i+1:] {
				want := false
				for _, p := range c.leafPoints(a) {
					for _, q := range c.leafPoints(b) {
						if geom.Dist2(pts[p], pts[q]) <= c.eps2 {
							want = true
						}
					}
				}
				if got := c.boxesTouch(a, b); got != want {
					t.Fatalf("seed %d: boxesTouch(%d, %d) = %v, brute force says %v", seed, a, b, got, want)
				}
				if want {
					touching++
				} else if geom.RectOf(leafPts(c, a)).Inflate(0.1).Intersects(geom.RectOf(leafPts(c, b))) {
					rectOnly++
				}
			}
		}
		if touching == 0 || rectOnly == 0 {
			t.Fatalf("seed %d: %d touching pairs, %d rectangle-only pairs; the input must produce both", seed, touching, rectOnly)
		}
	}
}

func leafPts(c *clustering, ni int) []geom.Point {
	var out []geom.Point
	for _, pi := range c.leafPoints(ni) {
		out = append(out, c.pts[pi])
	}
	return out
}

// TestBoxesWithinEpsOnlyByRectangle: two boxes whose rectangles are 0.09
// apart but whose closest points are 0.108 apart must stay two clusters;
// moving one point into reach must make them one. Each pair shares a cell
// of the Eps/√2 grid laid from (0, 0) — columns 0 and 2 of its first row
// — which is what makes it one leaf.
func TestBoxesWithinEpsOnlyByRectangle(t *testing.T) {
	params := geom.Params{Eps: 0.1, MinPts: 2}
	apart := []geom.Point{
		{ID: 0, X: 0, Y: 0}, {ID: 1, X: 0.06, Y: 0.06},
		{ID: 2, X: 0.15, Y: 0}, {ID: 3, X: 0.20, Y: 0.06},
	}
	joined := slices.Clone(apart)
	joined[2].Y = 0.06 // (0.15, 0.06) is 0.09 from (0.06, 0.06)
	for name, tc := range map[string]struct {
		pts  []geom.Point
		want int
	}{"apart": {apart, 2}, "joined": {joined, 1}} {
		res, err := Cluster(testDevice(), tc.pts, Options{Params: params, DenseBox: true, LeafSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DenseBoxes != 2 || res.Stats.SeedRounds != 0 {
			t.Fatalf("%s: %d boxes, %d seed rounds; want two boxes and no expansion", name, res.Stats.DenseBoxes, res.Stats.SeedRounds)
		}
		if res.NumClusters != tc.want {
			t.Errorf("%s: NumClusters = %d, want %d", name, res.NumClusters, tc.want)
		}
		validate(t, tc.pts, params, res)
	}
}

// TestBoxLinkingExaminesLinearPairs is the clock-free guard on box
// linking: on a uniform-density strip every box has a bounded number of
// boxes within Eps, so the pairs examined must grow with the number of
// boxes, not with its square (as a sweep over an x-window does when the
// window holds a whole column of boxes).
func TestBoxLinkingExaminesLinearPairs(t *testing.T) {
	pairsPerBox := func(length float64) (float64, int) {
		// Density high enough that every point is core: all cells are
		// boxes.
		n := int(length * 4000)
		pts := dataset.Uniform(n, 5, geom.Rect{MaxX: length, MaxY: 1})
		var ws Workspace
		res, err := Cluster(testDevice(), pts, Options{Params: geom.Params{Eps: 0.1, MinPts: 5}, DenseBox: true, Workspace: &ws})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.DenseBoxPoints < n*9/10 {
			t.Fatalf("only %d of %d points in boxes; the strip must be all boxes", res.Stats.DenseBoxPoints, n)
		}
		return float64(ws.boxPairs) / float64(res.Stats.DenseBoxes), res.Stats.DenseBoxes
	}
	small, nSmall := pairsPerBox(1)
	large, nLarge := pairsPerBox(8)
	if nLarge < 6*nSmall {
		t.Fatalf("boxes grew only %d → %d", nSmall, nLarge)
	}
	if large > small*1.25 {
		t.Errorf("pairs examined per box grew %.1f → %.1f as boxes grew %d → %d; linking is not linear", small, large, nSmall, nLarge)
	}
}
