package gdbscan

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
)

// classifyPerPoint is the classification the cell counts replaced, kept
// as their differential oracle: the "Eps cell with ≥ MinPts members"
// pre-pass, then one tree descent per remaining point counting
// Eps-neighbors (self excluded) up to MinPts-1.
func classifyPerPoint(c *clustering) []bool {
	core := make([]bool, len(c.pts))
	minPts := c.opt.Params.MinPts
	for ni, left := range c.flat.Left {
		if left < 0 && int(c.flat.Count[ni]) >= minPts && c.flat.Diag2(ni) <= c.eps2 {
			for _, pi := range c.leafPoints(ni) {
				core[pi] = true
			}
		}
	}
	for i := range core {
		if !core[i] && c.flat.CountRange(c.xs, c.ys, c.xs[i], c.ys[i], c.opt.Params.Eps, int32(i), minPts-1) >= minPts-1 {
			core[i] = true
		}
	}
	return core
}

// classified builds the tree over pts and runs pass one alone.
func classified(tb testing.TB, pts []geom.Point, opt Options) *clustering {
	tb.Helper()
	opt.setDefaults()
	c := newClustering(testDevice(), pts, opt)
	if err := c.classify(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// duplicateSites scatters n points over forty sites, each holding many
// identical copies.
func duplicateSites(n int) []geom.Point {
	rng := rand.New(rand.NewSource(73))
	var sites [40][2]float64
	for i := range sites {
		sites[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		s := sites[rng.Intn(len(sites))]
		pts[i] = geom.Point{ID: uint64(i), X: s[0], Y: s[1]}
	}
	return pts
}

// boundsInputs are the workload shapes plus every geometry where a
// rectangle test and a point test could round differently or a cell
// degenerates. exact-lattice has spacing = Eps = 0.25: every difference,
// square and sum is exact in binary, so axis neighbours sit at d² == Eps²
// exactly and whole rows of leaves are wholly-within by equality.
func boundsInputs() []contractInput {
	return []contractInput{
		{"twitter", dataset.Twitter(3000, 71), geom.Params{Eps: 0.1, MinPts: 40}},
		{"sdss", dataset.SDSS(3000, 72), geom.Params{Eps: 0.00015, MinPts: 5}},
		{"exact-lattice", latticePoints(24, 24, 0.25), geom.Params{Eps: 0.25, MinPts: 5}},
		{"duplicates", duplicatePoints(300), geom.Params{Eps: 0.1, MinPts: 4}},
		{"duplicate-sites", duplicateSites(600), geom.Params{Eps: 0.1, MinPts: 6}},
		{"collinear", collinearPoints(300, 0.01), geom.Params{Eps: 0.1, MinPts: 4}},
	}
}

// rectReach is the rectangle arithmetic of the list contract, written
// out again: whether leaf rectangles ra and rb are within Eps of each
// other (near), and whether every point pair across them is (whole).
func rectReach(ra, rb []float64, eps2 float64) (near, whole bool) {
	dx := max(0, rb[0]-ra[2], ra[0]-rb[2])
	dy := max(0, rb[1]-ra[3], ra[1]-rb[3])
	fx := max(ra[2]-rb[0], rb[2]-ra[0])
	fy := max(ra[3]-rb[1], rb[3]-ra[1])
	return dx*dx+dy*dy <= eps2, fx*fx+fy*fy <= eps2
}

// TestCellBoundsBracketNeighborhoods is the neighbour-list contract, for
// Build and BuildCells trees at leaf sizes 1, 4 and 64: (a) every leaf's
// list is exactly the leaves within Eps of it by the rectangle test, each
// once; (b) an entry is whole exactly when the far-corner test passes,
// and the lists are symmetric, whole flags included; (c) for every point
// p, lo ≤ |N_Eps(p)| ≤ hi — the neighborhood (p included) counted over
// all pairs with the neighbor test's own expression — where lo is the
// whole entries' points and hi − lo the straddle entries'.
func TestCellBoundsBracketNeighborhoods(t *testing.T) {
	for _, in := range boundsInputs() {
		size := make([]int, len(in.pts))
		eps2 := in.params.Eps * in.params.Eps
		for i, p := range in.pts {
			for _, q := range in.pts {
				dx, dy := p.X-q.X, p.Y-q.Y
				if dx*dx+dy*dy <= eps2 {
					size[i]++
				}
			}
		}
		tight := 0
		for _, cells := range []bool{true, false} {
			// With one point a leaf every rectangle is a point, nothing
			// straddles, and both bounds are the exact count — on the
			// lattice, ties at d² == Eps² included.
			for _, leafSize := range []int{1, 4, 64} {
				name := fmt.Sprintf("%s/cells=%v/leaf=%d", in.name, cells, leafSize)
				c := classified(t, in.pts, Options{Params: in.params, DenseBox: cells, LeafSize: leafSize})
				var leaves []int32
				for ni, left := range c.flat.Left {
					if left < 0 {
						leaves = append(leaves, int32(ni))
					}
				}
				// listed[a][b] is b's whole flag in a's list.
				listed := make(map[int32]map[int32]bool, len(leaves))
				for _, a := range leaves {
					list, straddle := c.neighbours(a)
					listed[a] = make(map[int32]bool, len(list))
					lo, hi := 0, 0
					for k, b := range list {
						if _, dup := listed[a][b]; dup {
							t.Fatalf("%s: leaf %d lists leaf %d twice", name, a, b)
						}
						listed[a][b] = k >= straddle
						hi += int(c.flat.Count[b])
						if k >= straddle {
							lo += int(c.flat.Count[b])
						}
					}
					for _, b := range leaves {
						near, whole := rectReach(c.flat.Bounds[4*a:4*a+4], c.flat.Bounds[4*b:4*b+4], eps2)
						if got, ok := listed[a][b]; ok != near || ok && got != whole {
							t.Fatalf("%s: leaf %d lists leaf %d: %v (whole %v); rectangles near %v, whole %v", name, a, b, ok, got, near, whole)
						}
					}
					if kLo, kHi := c.bounds(list, straddle); kLo != lo || kHi != hi {
						t.Fatalf("%s: leaf %d: bounds [%d, %d], its list says [%d, %d]", name, a, kLo, kHi, lo, hi)
					}
					for _, pi := range c.leafPoints(int(a)) {
						if size[pi] < lo || size[pi] > hi {
							t.Fatalf("%s: leaf %d point %d has %d neighbors, outside [%d, %d]", name, a, pi, size[pi], lo, hi)
						}
						if size[pi] == lo || size[pi] == hi {
							tight++
						}
					}
				}
				for a, row := range listed {
					for b, whole := range row {
						if back, ok := listed[b][a]; !ok || back != whole {
							t.Fatalf("%s: leaf %d lists %d (whole %v) but not the reverse (listed %v, whole %v)", name, a, b, whole, ok, back)
						}
					}
				}
			}
		}
		if tight == 0 {
			t.Errorf("%s: no point meets either bound on any tree: the property is vacuous here", in.name)
		}
	}
}

// checkCoreFlags holds pass one's core flags against the per-point
// oracle on the same tree and against sequential DBSCAN.
func checkCoreFlags(t *testing.T, name string, pts []geom.Point, opt Options) {
	t.Helper()
	c := classified(t, pts, opt)
	if want := classifyPerPoint(c); !slices.Equal(c.core, want) {
		t.Errorf("%s: core flags differ from the per-point loop's (first at %d)", name, firstDiff(c.core, want))
	}
	ref, err := dbscan.Cluster(pts, opt.Params)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.core, ref.Core) {
		t.Errorf("%s: core flags differ from dbscan.Cluster's (first at %d)", name, firstDiff(c.core, ref.Core))
	}
	decided := c.stats.CellCorePoints + c.stats.CellNonCorePoints
	if decided > len(pts) || c.stats.CellCorePoints > c.stats.CorePoints {
		t.Errorf("%s: cell bounds decided %d core + %d non-core of %d points, %d core", name,
			c.stats.CellCorePoints, c.stats.CellNonCorePoints, len(pts), c.stats.CorePoints)
	}
}

func firstDiff(a, b []bool) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestCellClassifyMatchesPerPointLoop: the cell-count classification
// returns the core flags of the loop it replaced and of the reference,
// over the property test's grid of (points, MinPts, LeafSize, DenseBox)
// and over the structured inputs at several MinPts.
func TestCellClassifyMatchesPerPointLoop(t *testing.T) {
	f := func(seed int64, nRaw uint16, minRaw, leafRaw uint8, dense bool) bool {
		pts := clumpsAndScatter(rand.New(rand.NewSource(seed)), int(nRaw)%400+10)
		opt := Options{
			Params:   geom.Params{Eps: 0.1, MinPts: int(minRaw)%12 + 1},
			DenseBox: dense,
			LeafSize: int(leafRaw)%48 + 4,
		}
		checkCoreFlags(t, fmt.Sprintf("seed %d n %d %+v", seed, len(pts), opt), pts, opt)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	for _, in := range append(boundsInputs(), contractInputs()[:6]...) {
		for _, dense := range []bool{true, false} {
			opt := Options{Params: in.params, DenseBox: dense, LeafSize: 16}
			minPts := []int{1, in.params.MinPts, 3 * in.params.MinPts, len(in.pts) + 1}
			// The verdicts turn at MinPts = lo (all core), lo+1, hi and
			// hi+1 (none core) of each leaf: visit a spread of those.
			edges := boundEdges(t, in.pts, opt)
			for i := 0; i < len(edges); i += max(1, len(edges)/8) {
				minPts = append(minPts, edges[i], edges[i]+1)
			}
			for _, m := range minPts {
				opt.Params.MinPts = m
				checkCoreFlags(t, fmt.Sprintf("%s/minpts=%d/densebox=%v", in.name, m, dense), in.pts, opt)
			}
		}
	}
}

// boundEdges returns the distinct positive lo and hi values of the leaves
// of the tree opt builds over pts, ascending.
func boundEdges(tb testing.TB, pts []geom.Point, opt Options) []int {
	c := classified(tb, pts, opt)
	var edges []int
	for ni, left := range c.flat.Left {
		if left < 0 {
			lo, hi := c.bounds(c.neighbours(int32(ni)))
			edges = append(edges, max(lo, 1), hi)
		}
	}
	slices.Sort(edges)
	return slices.Compact(edges)
}

// TestClassifyScansAtMinPtsExtremes is the clock-free guard on the two
// ends of MinPts. At 1 every point is core by definition: a member of an
// undecided leaf finds itself in its own leaf, scanned first, so it pays
// at most that one scan (the loop this replaced passed limit MinPts−1 = 0,
// "no limit", and counted every neighborhood in full). Above n no point
// can be core: every leaf's upper bound says so and nothing is scanned.
func TestClassifyScansAtMinPtsExtremes(t *testing.T) {
	pts := dataset.Twitter(6000, 74)
	for _, dense := range []bool{true, false} {
		c := classified(t, pts, Options{Params: geom.Params{Eps: 0.1, MinPts: 1}, DenseBox: dense})
		if c.stats.CorePoints != len(pts) {
			t.Errorf("densebox=%v, MinPts 1: %d of %d points core", dense, c.stats.CorePoints, len(pts))
		}
		undecided := int64(len(pts) - c.stats.CellCorePoints)
		if undecided == 0 {
			t.Fatalf("densebox=%v, MinPts 1: no undecided leaf; the guard measures nothing", dense)
		}
		if scans := c.ws.leafScans.Load(); scans > undecided {
			t.Errorf("densebox=%v, MinPts 1: %d leaf scans for %d points of undecided leaves, want at most one each", dense, scans, undecided)
		}

		c = classified(t, pts, Options{Params: geom.Params{Eps: 0.1, MinPts: len(pts) + 1}, DenseBox: dense})
		if scans := c.ws.leafScans.Load(); scans != 0 || c.stats.CellNonCorePoints != len(pts) || c.stats.CorePoints != 0 {
			t.Errorf("densebox=%v, MinPts n+1: %d leaf scans, %d points decided non-core, %d core; want 0, %d, 0",
				dense, scans, c.stats.CellNonCorePoints, c.stats.CorePoints, len(pts))
		}
	}
}

// xStrip returns the k-th of parts equal-count vertical strips of pts: the
// shape of one partition of the pipeline's plan.
func xStrip(pts []geom.Point, k, parts int) []geom.Point {
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
	return sorted[k*len(sorted)/parts : (k+1)*len(sorted)/parts]
}

// classifyShapes are the two partitions BenchmarkClassify and the
// allocation guard run: one of eight of batch_dense's Twitter 60 k and
// one of sixteen of batch_io's SDSS 150 k, at those workloads' parameters.
func classifyShapes() []contractInput {
	return []contractInput{
		{"twitter60k/8", xStrip(dataset.Twitter(60000, 75), 3, 8), geom.Params{Eps: 0.1, MinPts: 40}},
		{"sdss150k/16", xStrip(dataset.SDSS(150000, 76), 7, 16), geom.Params{Eps: 0.00015, MinPts: 5}},
	}
}

// classifyAlone returns a function running pass one — bounds kernel,
// classify kernel — over an already built tree, as Cluster does after
// newClustering, reusing the workspace's arrays.
func classifyAlone(tb testing.TB, in contractInput) (*clustering, func()) {
	opt := Options{Params: in.params, DenseBox: true, Workspace: &Workspace{}}
	opt.setDefaults()
	c := newClustering(testDevice(), in.pts, opt)
	return c, func() {
		clear(c.core)
		c.stats = Stats{}
		if err := c.classify(); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestClassifyReusesWorkspace: after one warm-up call, pass one allocates
// nothing — the list locations, the undecided list and every block's
// neighbour lists live in the Workspace.
func TestClassifyReusesWorkspace(t *testing.T) {
	for _, in := range classifyShapes() {
		c, run := classifyAlone(t, in)
		run()
		if len(c.ws.undecided) == 0 {
			t.Fatalf("%s: no undecided leaf; the guard would not cover the classify kernel", in.name)
		}
		// A launch allocates by itself (its goroutines): the budget is
		// what the two kernels' grids cost with empty bodies, plus the two
		// kernel closures.
		grids := []gpusim.LaunchConfig{
			{Blocks: gpusim.GridFor(len(c.flat.Left), c.opt.ThreadsPerBlock).Blocks, ThreadsPerBlock: 1},
			{Blocks: len(c.ws.undecided), ThreadsPerBlock: 1},
		}
		budget := 2 + testing.AllocsPerRun(10, func() {
			for _, lc := range grids {
				_ = c.dev.Launch("noop", lc, func(gpusim.KernelCtx) {})
			}
		})
		if allocs := testing.AllocsPerRun(10, run); allocs > budget {
			t.Errorf("%s: classify makes %v allocations a call, its two launches alone %v", in.name, allocs, budget)
		}
	}
}

// BenchmarkClassify times pass one alone — the bounds kernel and the
// classify kernel over a built tree — with a reused Workspace.
func BenchmarkClassify(b *testing.B) {
	for _, in := range classifyShapes() {
		b.Run(in.name, func(b *testing.B) {
			c, run := classifyAlone(b, in)
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(c.stats.CellCorePoints+c.stats.CellNonCorePoints)/float64(len(in.pts)), "decided/point")
			b.ReportMetric(float64(c.ws.leafScans.Load())/float64(len(in.pts)), "scans/point")
		})
	}
}
