package kdtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func randomPoints(rng *rand.Rand, n int, scale float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), X: rng.Float64() * scale, Y: rng.Float64() * scale}
	}
	return pts
}

// leaf is one leaf region of a tree: its bounds and the point indices it
// owns.
type leaf struct {
	Bounds geom.Rect
	Points []int32
}

// leavesOf lists every leaf region of f, in node order.
func leavesOf(f *Flat) []leaf {
	var out []leaf
	for ni, left := range f.Left {
		if left < 0 {
			b := f.Bounds[4*ni : 4*ni+4]
			out = append(out, leaf{
				Bounds: geom.Rect{MinX: b[0], MinY: b[1], MaxX: b[2], MaxY: b[3]},
				Points: f.Order[f.Start[ni] : f.Start[ni]+f.Count[ni]],
			})
		}
	}
	return out
}

func bruteRange(pts []geom.Point, center geom.Point, eps float64, self int32) map[int32]bool {
	want := map[int32]bool{}
	for j := range pts {
		if int32(j) == self {
			continue
		}
		if geom.Dist2(center, pts[j]) <= eps*eps {
			want[int32(j)] = true
		}
	}
	return want
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil, 0)
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	called := false
	tr.Range(geom.Point{}, 1, -1, func(int32) bool { called = true; return true })
	if called {
		t.Error("Range on empty tree must not call fn")
	}
	if got := tr.CountRange(geom.Point{}, 1, -1, 0); got != 0 {
		t.Errorf("CountRange = %d, want 0", got)
	}
}

func TestSinglePoint(t *testing.T) {
	pts := []geom.Point{{ID: 7, X: 1, Y: 2}}
	tr := Build(pts, 4)
	if got := tr.CountRange(geom.Point{X: 1, Y: 2}, 0.5, -1, 0); got != 1 {
		t.Errorf("count around the point = %d, want 1", got)
	}
	if got := tr.CountRange(geom.Point{X: 1, Y: 2}, 0.5, 0, 0); got != 0 {
		t.Errorf("count excluding self = %d, want 0", got)
	}
	if got := tr.CountRange(geom.Point{X: 9, Y: 9}, 0.5, -1, 0); got != 0 {
		t.Errorf("count far away = %d, want 0", got)
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 17, 64, 65, 300, 1000} {
		pts := randomPoints(rng, n, 1)
		tr := Build(pts, 16)
		for trial := 0; trial < 30; trial++ {
			center := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			eps := rng.Float64() * 0.3
			got := map[int32]bool{}
			tr.Range(center, eps, -1, func(i int32) bool { got[i] = true; return true })
			want := bruteRange(pts, center, eps, -1)
			if len(got) != len(want) {
				t.Fatalf("n=%d: got %d results, want %d", n, len(got), len(want))
			}
			for i := range want {
				if !got[i] {
					t.Fatalf("n=%d: missing index %d", n, i)
				}
			}
		}
	}
}

func TestRangeSelfExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 200, 1)
	tr := Build(pts, 8)
	for i := 0; i < len(pts); i += 13 {
		tr.Range(pts[i], 0.2, int32(i), func(j int32) bool {
			if j == int32(i) {
				t.Fatalf("self index %d returned", i)
			}
			return true
		})
	}
}

func TestRangeEarlyStop(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0.01, Y: 0}, {X: 0.02, Y: 0}, {X: 0.03, Y: 0},
	}
	tr := Build(pts, 2)
	calls := 0
	tr.Range(geom.Point{X: 0.015, Y: 0}, 1, -1, func(int32) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Errorf("early-stop traversal made %d calls, want 2", calls)
	}
}

func TestCountRangeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := randomPoints(rng, 500, 0.2) // dense: everything near everything
	tr := Build(pts, 32)
	if got := tr.CountRange(pts[0], 0.5, 0, 10); got != 10 {
		t.Errorf("limited count = %d, want 10", got)
	}
	full := tr.CountRange(pts[0], 0.5, 0, 0)
	want := len(bruteRange(pts, pts[0], 0.5, 0))
	if full != want {
		t.Errorf("full count = %d, want %d", full, want)
	}
}

func TestDuplicatePoints(t *testing.T) {
	// All points identical: the build must terminate and queries must
	// still return every point.
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), X: 3, Y: 4}
	}
	tr := Build(pts, 4)
	if got := tr.CountRange(geom.Point{X: 3, Y: 4}, 0.001, -1, 0); got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
}

func TestCollinearPoints(t *testing.T) {
	pts := make([]geom.Point, 256)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), X: float64(i), Y: 0}
	}
	tr := Build(pts, 4)
	got := tr.CountRange(geom.Point{X: 100, Y: 0}, 2.5, -1, 0)
	if got != 5 { // 98,99,100,101,102
		t.Errorf("count = %d, want 5", got)
	}
}

func TestLeavesPartitionThePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts := randomPoints(rng, 777, 10)
	tr := Build(pts, 32)
	seen := make([]bool, len(pts))
	for _, leaf := range leavesOf(tr.Flat()) {
		if len(leaf.Points) == 0 {
			t.Error("empty leaf")
		}
		if len(leaf.Points) > 32 {
			t.Errorf("leaf with %d points exceeds capacity 32", len(leaf.Points))
		}
		for _, i := range leaf.Points {
			if seen[i] {
				t.Fatalf("point %d in two leaves", i)
			}
			seen[i] = true
			if !leaf.Bounds.Contains(pts[i]) {
				t.Fatalf("leaf bounds %+v do not contain point %v", leaf.Bounds, pts[i])
			}
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("point %d not in any leaf", i)
		}
	}
}

func TestFlattenEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := randomPoints(rng, 600, 1)
	tr := Build(pts, 16)
	f := tr.Flat()
	xs, ys := tr.Coords()
	for trial := 0; trial < 40; trial++ {
		center := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		eps := rng.Float64() * 0.2
		got := map[int32]bool{}
		f.Range(xs, ys, center.X, center.Y, eps, -1, func(i int32) bool { got[i] = true; return true })
		want := map[int32]bool{}
		tr.Range(center, eps, -1, func(i int32) bool { want[i] = true; return true })
		if len(got) != len(want) {
			t.Fatalf("flat range returned %d, tree returned %d", len(got), len(want))
		}
		for i := range want {
			if !got[i] {
				t.Fatalf("flat range missing %d", i)
			}
		}
	}
}

// TestRangeCompletenessProperty: random point sets of random shapes always
// match brute force.
func TestRangeCompletenessProperty(t *testing.T) {
	f := func(coords []int8, epsRaw uint8) bool {
		pts := make([]geom.Point, 0, len(coords)/2)
		for i := 0; i+1 < len(coords); i += 2 {
			pts = append(pts, geom.Point{
				ID: uint64(i / 2),
				X:  float64(coords[i]) / 16,
				Y:  float64(coords[i+1]) / 16,
			})
		}
		if len(pts) == 0 {
			return true
		}
		eps := float64(epsRaw)/64 + 0.01
		tr := Build(pts, 4)
		center := pts[0]
		got := 0
		tr.Range(center, eps, -1, func(int32) bool { got++; return true })
		return got == len(bruteRange(pts, center, eps, -1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNodesCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 1000, 1)
	tr := Build(pts, 16)
	if tr.Nodes() < 2 {
		t.Errorf("tree over 1000 points must have internal structure, got %d nodes", tr.Nodes())
	}
}

func BenchmarkBuild10k(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pts := randomPoints(rng, 10000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts, 64)
	}
}

// BenchmarkBuildSDSS10k is BenchmarkBuild10k on the clumped, duplicate-
// bearing shape of the SDSS workload, built with its Eps cells — the
// tree the cluster phase builds per partition.
func BenchmarkBuildSDSS10k(b *testing.B) {
	pts := dataset.SDSS(10000, 8)
	var ws Workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.BuildCells(pts, 64, 0.00015)
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	pts := randomPoints(rng, 100000, 1)
	tr := Build(pts, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pts[i%len(pts)]
		tr.CountRange(p, 0.01, int32(i%len(pts)), 0)
	}
}
