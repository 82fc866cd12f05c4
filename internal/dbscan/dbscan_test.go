package dbscan_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/stream"
)

// neighbours lists, for every point, the other points within eps: a scan
// of all points, with no index. A point with a NaN or infinite coordinate
// is no point's neighbour.
func neighbours(pts []geom.Point, eps float64) [][]int {
	finite := func(q geom.Point) bool { return !math.IsNaN(q.X-q.X) && !math.IsNaN(q.Y-q.Y) }
	out := make([][]int, len(pts))
	for i, p := range pts {
		for j, q := range pts {
			dx, dy := p.X-q.X, p.Y-q.Y
			if j != i && finite(p) && finite(q) && float64(dx*dx)+float64(dy*dy) <= eps*eps {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// textbook is DBSCAN as §2.1 states it, over neighbour lists: seeds are
// visited in input order and each cluster is expanded breadth-first.
func textbook(nbrs [][]int, minPts int) *dbscan.Result {
	n := len(nbrs)
	core := make([]bool, n)
	for i := range nbrs {
		core[i] = len(nbrs[i])+1 >= minPts
	}
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	k := 0
	for seed := range nbrs {
		if labels[seed] != unvisited {
			continue
		}
		if !core[seed] {
			labels[seed] = geom.Noise
			continue
		}
		labels[seed] = k
		for queue := []int{seed}; len(queue) > 0; queue = queue[1:] {
			if !core[queue[0]] {
				continue
			}
			for _, j := range nbrs[queue[0]] {
				if labels[j] == unvisited {
					queue = append(queue, j)
				}
				if labels[j] == unvisited || labels[j] == geom.Noise {
					labels[j] = k
				}
			}
		}
		k++
	}
	return &dbscan.Result{Labels: labels, Core: core, NumClusters: k}
}

func mk(n int, f func(i int) (x, y float64)) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		x, y := f(i)
		pts[i] = geom.Point{ID: uint64(i), X: x, Y: y}
	}
	return pts
}

// hostileInputs is kdtree's hostile-geometry table (contract_test.go).
func hostileInputs() map[string][]geom.Point {
	return map[string][]geom.Point{
		"n=0":          nil,
		"n=1":          mk(1, func(int) (float64, float64) { return 5, -5 }),
		"n=2":          mk(2, func(i int) (float64, float64) { return float64(i), 0 }),
		"geometric":    mk(61, func(i int) (float64, float64) { return math.Ldexp(1, -i), 0 }),
		"geometric-2d": mk(122, func(i int) (float64, float64) { return math.Ldexp(1, -(i / 2)), math.Ldexp(1, -(i+1)/2) }),
		"huge":         mk(300, func(i int) (float64, float64) { return 1e300 * math.Sin(float64(i)), 1e300 * math.Cos(float64(3*i)) }),
		"tiny":         mk(300, func(i int) (float64, float64) { return 1e-300 * math.Sin(float64(i)), 1e-300 * math.Cos(float64(3*i)) }),
		"subnormal":    mk(100, func(i int) (float64, float64) { return 5e-324 * float64(i%7), 5e-324 * float64(i%3) }),
		"huge-offset":  mk(300, func(i int) (float64, float64) { return 1e15 + float64(i%17), -1e15 + float64(i%13) }),
		"one-cell":     mk(400, func(i int) (float64, float64) { return 1 + 1e-9*float64(i%20), 1 + 1e-9*float64(i/20) }),
		"cell-each":    mk(400, func(i int) (float64, float64) { return float64(i % 20), float64(i / 20) }),
		"far-pair":     mk(200, func(i int) (float64, float64) { return float64(i%2) * 1e12, 1e-3 * float64(i/2) }),
	}
}

// nonFinite is kdtree's TestNonFiniteCoordinates table: ±Inf, NaN and
// 1e300 mixed into a small lattice, at four sizes and seven variants.
func nonFinite() map[string][]geom.Point {
	inf, nan := math.Inf(1), math.NaN()
	specials := []float64{inf, -inf, nan, 0, 1, -1, 1e300}
	out := map[string][]geom.Point{}
	for _, n := range []int{1, 2, 9, 200} {
		for variant := range specials {
			pts := mk(n, func(i int) (float64, float64) { return float64(i % 5), float64(i % 3) })
			for i := range pts {
				if i%4 == 0 {
					pts[i].X = specials[(i/4+variant)%len(specials)]
				}
				if i%6 == 0 {
					pts[i].Y = specials[(i/6+2*variant)%len(specials)]
				}
			}
			out[fmt.Sprintf("non-finite/n=%d/v%d", n, variant)] = pts
		}
	}
	return out
}

type validationInput struct {
	name string
	pts  []geom.Point
	eps  []float64
}

// validationInputs are the shapes where an index or a cell grid can go
// wrong, each with the Eps values that stress it.
func validationInputs() []validationInput {
	rng := rand.New(rand.NewSource(9))
	ins := []validationInput{
		// d² == Eps² exactly: axis neighbours at 1, the 3-4-5 diagonal
		// at 5; at 0.1 the spacing rounds both ways.
		{"lattice-1", mk(900, func(i int) (float64, float64) { return float64(i % 30), float64(i / 30) }), []float64{1}},
		{"lattice-3-4-5", mk(900, func(i int) (float64, float64) { return 3 * float64(i%30), 4 * float64(i/30) }), []float64{4, 5}},
		{"lattice-0.1", mk(900, func(i int) (float64, float64) { return 0.1 * float64(i%30), 0.1 * float64(i/30) }), []float64{0.1}},
		{"duplicates", mk(700, func(i int) (float64, float64) { return 0.5 * float64(i%7), 0 }), []float64{0.5, 0.25}},
		{"collinear", mk(600, func(int) (float64, float64) { x := rng.Float64() * 10; return x, 2*x + 1 }), []float64{0.02, 0.1}},
		{"all-identical", mk(450, func(int) (float64, float64) { return 1.5, -2.5 }), []float64{1e-9, 0.1}},
		{"twitter", dataset.Twitter(3000, 2), []float64{0.1}},
		{"sdss", dataset.SDSS(3000, 4), []float64{0.00015, 0.002}},
		// Lines of points across x or y = 2³¹·Eps/√2, where a cell index
		// would need more than 32 bits of the key.
		{"key-wrap-x", mk(60, func(i int) (float64, float64) { return 0x1p31/math.Sqrt2 + 0.3*float64(i-30), 0 }), []float64{1}},
		{"key-wrap-y", mk(60, func(i int) (float64, float64) { return 0, 0x1p31/math.Sqrt2 + 0.3*float64(i-30) }), []float64{1}},
	}
	// Eps from subnormal to one whose square overflows (1e160, 1e305):
	// then every two finite points are within Eps.
	for name, pts := range hostileInputs() {
		ins = append(ins, validationInput{"hostile/" + name, pts, []float64{1e-310, 1e-12, 0.5, 1e9, 1e160, 1e305}})
	}
	for name, pts := range nonFinite() {
		ins = append(ins, validationInput{name, pts, []float64{0.5, 1e305}})
	}
	slices.SortFunc(ins, func(a, b validationInput) int { return cmp.Compare(a.name, b.name) })
	return ins
}

func minPtsFor(n int) []int { return []int{1, 2, 5, 40, 400, n + 1} }

// sameResult reports the first difference between two results.
func sameResult(got, want *dbscan.Result) error {
	if got.NumClusters != want.NumClusters {
		return fmt.Errorf("NumClusters = %d, want %d", got.NumClusters, want.NumClusters)
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] || got.Core[i] != want.Core[i] {
			return fmt.Errorf("point %d: label %d core %t, want %d core %t", i, got.Labels[i], got.Core[i], want.Labels[i], want.Core[i])
		}
	}
	if len(got.Labels) != len(want.Labels) || len(got.Core) != len(want.Core) {
		return fmt.Errorf("%d labels, %d core flags, want %d", len(got.Labels), len(got.Core), len(want.Labels))
	}
	return nil
}

// TestOracleMatchesTextbook: on every validation input, at every Eps
// listed for it and MinPts from 1 to beyond n, the oracle and TI-DBSCAN
// give the textbook's labels and core flags byte for byte.
func TestOracleMatchesTextbook(t *testing.T) {
	for _, in := range validationInputs() {
		for _, eps := range in.eps {
			nbrs := neighbours(in.pts, eps)
			for _, minPts := range minPtsFor(len(in.pts)) {
				p := geom.Params{Eps: eps, MinPts: minPts}
				want := textbook(nbrs, minPts)
				got, err := dbscan.Cluster(in.pts, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(got, want); err != nil {
					t.Errorf("%s eps=%g minPts=%d: oracle: %v", in.name, eps, minPts, err)
				}
				ti, err := baseline.TIDBSCAN(in.pts, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(ti, want); err != nil {
					t.Errorf("%s eps=%g minPts=%d: TI-DBSCAN: %v", in.name, eps, minPts, err)
				}
			}
		}
	}
}

// dyadic is a point set whose coordinates and pairwise differences are
// exact in float64, with distances of exactly Eps among them.
func dyadic() []geom.Point {
	rng := rand.New(rand.NewSource(21))
	return mk(2000, func(int) (float64, float64) { return float64(rng.Intn(512)) / 16, float64(rng.Intn(256)) / 16 })
}

// metamorphicInputs are the inputs the metamorphic checks run on.
func metamorphicInputs() []validationInput {
	return []validationInput{
		{"dyadic", dyadic(), []float64{0.125, 0.25}},
		{"twitter", dataset.Twitter(3000, 3), []float64{0.1}},
		{"lattice-1", mk(900, func(i int) (float64, float64) { return float64(i % 30), float64(i / 30) }), []float64{1}},
		{"non-finite", nonFinite()["non-finite/n=200/v3"], []float64{0.5}},
	}
}

// TestPermutationInvariance: clustering a permutation of the input finds
// the same core points and noise and partitions the core points the same
// way; only a border point's choice between clusters may follow the order.
func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, in := range metamorphicInputs() {
		perm := rng.Perm(len(in.pts))
		shuffled := make([]geom.Point, len(in.pts))
		for i, j := range perm {
			shuffled[i] = in.pts[j]
		}
		for _, eps := range in.eps {
			for _, minPts := range minPtsFor(len(in.pts)) {
				p := geom.Params{Eps: eps, MinPts: minPts}
				a, err := dbscan.Cluster(in.pts, p)
				if err != nil {
					t.Fatal(err)
				}
				b, err := dbscan.Cluster(shuffled, p)
				if err != nil {
					t.Fatal(err)
				}
				coresA, coresB := make([]int, len(perm)), make([]int, len(perm))
				for i, j := range perm {
					if a.Core[j] != b.Core[i] || (a.Labels[j] == geom.Noise) != (b.Labels[i] == geom.Noise) {
						t.Fatalf("%s eps=%g minPts=%d: point %d changes core flag or noise under permutation", in.name, eps, minPts, j)
					}
					coresA[i], coresB[i] = geom.Noise, geom.Noise
					if a.Core[j] {
						coresA[i], coresB[i] = a.Labels[j], b.Labels[i]
					}
				}
				if !stream.Isomorphic(coresA, coresB) {
					t.Errorf("%s eps=%g minPts=%d: core points partitioned differently under permutation", in.name, eps, minPts)
				}
			}
		}
	}
}

// TestDuplicationInvariance: appending a copy of every point doubles
// every neighbourhood, so at twice MinPts the first n labels and core
// flags are byte-identical. (Not for a non-finite point: its copy is not
// its neighbour.)
func TestDuplicationInvariance(t *testing.T) {
	for _, in := range metamorphicInputs() {
		if in.name == "non-finite" {
			continue
		}
		doubled := append(slices.Clone(in.pts), in.pts...)
		for _, eps := range in.eps {
			for _, minPts := range minPtsFor(len(in.pts)) {
				a, err := dbscan.Cluster(in.pts, geom.Params{Eps: eps, MinPts: minPts})
				if err != nil {
					t.Fatal(err)
				}
				b, err := dbscan.Cluster(doubled, geom.Params{Eps: eps, MinPts: 2 * minPts})
				if err != nil {
					t.Fatal(err)
				}
				b.Labels, b.Core = b.Labels[:len(in.pts)], b.Core[:len(in.pts)]
				if err := sameResult(b, a); err != nil {
					t.Errorf("%s eps=%g minPts=%d: doubled input: %v", in.name, eps, minPts, err)
				}
			}
		}
	}
}

// TestDyadicTranslationInvariance: translating dyadic points by a dyadic
// offset leaves every coordinate difference bit-identical, so labels and
// core flags are too — wherever the cell boundaries fall.
func TestDyadicTranslationInvariance(t *testing.T) {
	pts := dyadic()
	for _, off := range []geom.Point{{X: 1024.5, Y: -37.25}, {X: -3.0625, Y: 1 << 20}, {X: 0.125, Y: 0.0625}} {
		moved := slices.Clone(pts)
		for i := range moved {
			moved[i].X += off.X
			moved[i].Y += off.Y
		}
		for _, eps := range []float64{0.125, 0.25} {
			for _, minPts := range minPtsFor(len(pts)) {
				p := geom.Params{Eps: eps, MinPts: minPts}
				a, err := dbscan.Cluster(pts, p)
				if err != nil {
					t.Fatal(err)
				}
				b, err := dbscan.Cluster(moved, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameResult(b, a); err != nil {
					t.Errorf("offset %v eps=%g minPts=%d: %v", off, eps, minPts, err)
				}
			}
		}
	}
}

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

func TestTwoBlobsAndNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pts []geom.Point
	pts = append(pts, blob(rng, 0, 50, 0, 0, 0.05)...)
	pts = append(pts, blob(rng, 100, 50, 10, 10, 0.05)...)
	pts = append(pts, geom.Point{ID: 999, X: 5, Y: 5}) // isolated noise
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 4})
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
	if res.Labels[100] != geom.Noise || res.Core[100] {
		t.Errorf("isolated point labeled %d (core %t), want non-core Noise", res.Labels[100], res.Core[100])
	}
}

func TestAllNoise(t *testing.T) {
	pts := []geom.Point{
		{ID: 0, X: 0, Y: 0}, {ID: 1, X: 10, Y: 0}, {ID: 2, X: 0, Y: 10},
	}
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Errorf("NumClusters = %d, want 0", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != geom.Noise {
			t.Errorf("point %d labeled %d, want Noise", i, l)
		}
	}
}

func TestMinPtsCountsSelf(t *testing.T) {
	// Two points within eps: with MinPts=2 (self + 1 neighbor) both are
	// core; with MinPts=3 neither is.
	pts := []geom.Point{{ID: 0, X: 0, Y: 0}, {ID: 1, X: 0.05, Y: 0}}
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 || !res.Core[0] || !res.Core[1] {
		t.Errorf("MinPts=2: want one cluster of two core points, got %+v", res)
	}
	res, err = dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 3})
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
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 3})
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
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 4})
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

func TestEmptyInput(t *testing.T) {
	res, err := dbscan.Cluster(nil, geom.Params{Eps: 0.1, MinPts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Errorf("empty input must produce empty result, got %+v", res)
	}
}

func BenchmarkCluster(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var pts []geom.Point
	for c := 0; c < 10; c++ {
		pts = append(pts, blob(rng, uint64(c*1000), 500, rng.Float64()*10, rng.Float64()*10, 0.2)...)
	}
	for i := 0; i < b.N; i++ {
		if _, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
