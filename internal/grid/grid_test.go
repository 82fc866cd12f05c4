package grid

import (
	"maps"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestCellOf(t *testing.T) {
	eps := 0.1
	g := New(eps)
	side := g.Side()
	if want := eps * (1 + 0x1p-20); side != want {
		t.Fatalf("side %v, want Eps widened by 2^-20 to %v", side, want)
	}
	tests := []struct {
		p    geom.Point
		want Coord
	}{
		{geom.Point{X: 0, Y: 0}, Coord{0, 0}},
		{geom.Point{X: 0.05, Y: 0.05}, Coord{0, 0}},
		{geom.Point{X: 0.1, Y: 0}, Coord{0, 0}},  // Eps lies inside the slack
		{geom.Point{X: side, Y: 0}, Coord{1, 0}}, // cell boundary belongs to the next cell
		{geom.Point{X: -0.05, Y: 0.25}, Coord{-1, 2}},
		{geom.Point{X: -0.1, Y: -0.1}, Coord{-1, -1}},
		{geom.Point{X: 179.99, Y: -89.99}, Coord{1799, -900}},
	}
	for _, tt := range tests {
		if got := g.CellOf(tt.p); got != tt.want {
			t.Errorf("CellOf(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestCellRectContainsItsPoints(t *testing.T) {
	g := New(0.25)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		// Keep coordinates in a range where float math is exact enough.
		x = math.Mod(x, 1000)
		y = math.Mod(y, 1000)
		p := geom.Point{X: x, Y: y}
		r := g.CellRect(g.CellOf(p))
		return p.X >= r.MinX && p.X < r.MaxX+1e-9 && p.Y >= r.MinY && p.Y < r.MaxY+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPanicsOnBadEps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) must panic")
		}
	}()
	New(0)
}

func TestNeighborsAreEightDistinct(t *testing.T) {
	c := Coord{3, -2}
	ns := c.Neighbors()
	seen := map[Coord]bool{c: true}
	for _, n := range ns {
		if seen[n] {
			t.Errorf("duplicate or self neighbor %v", n)
		}
		seen[n] = true
		if abs32(n.CX-c.CX) > 1 || abs32(n.CY-c.CY) > 1 {
			t.Errorf("neighbor %v not adjacent to %v", n, c)
		}
	}
	if len(seen) != 9 {
		t.Errorf("expected 8 distinct neighbors, got %d", len(seen)-1)
	}
}

func TestCoordLessIterationOrder(t *testing.T) {
	// Paper §3.1.2: iterate first along y, then x — x is the slow axis.
	cells := []Coord{{1, 0}, {0, 1}, {0, 0}, {1, -1}}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Less(cells[j]) })
	want := []Coord{{0, 0}, {0, 1}, {1, -1}, {1, 0}}
	for i := range want {
		if cells[i] != want[i] {
			t.Fatalf("iteration order = %v, want %v", cells, want)
		}
	}
}

func TestAnchorsOnCellBoundary(t *testing.T) {
	g := New(0.1)
	c := Coord{2, 3}
	r := g.CellRect(c)
	anchors := g.Anchors(c)
	if len(anchors) != 8 {
		t.Fatalf("expected 8 anchors")
	}
	for _, a := range anchors {
		onX := a.X == r.MinX || a.X == r.MaxX || a.X == (r.MinX+r.MaxX)/2
		onY := a.Y == r.MinY || a.Y == r.MaxY || a.Y == (r.MinY+r.MaxY)/2
		if !onX || !onY {
			t.Errorf("anchor %v not on cell boundary feature of %+v", a, r)
		}
	}
	// The defining property used by the merge proof (Figure 5): every
	// point of the cell is within Eps/2 of some anchor.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		p := geom.Point{
			X: r.MinX + rng.Float64()*(r.MaxX-r.MinX),
			Y: r.MinY + rng.Float64()*(r.MaxY-r.MinY),
		}
		best := math.Inf(1)
		for _, a := range anchors {
			if d := geom.Dist(p, a); d < best {
				best = d
			}
		}
		if best > g.Side()/2+1e-12 {
			t.Fatalf("point %v is %v from nearest anchor, want <= Eps/2 = %v", p, best, g.Side()/2)
		}
	}
}

func TestHistogram(t *testing.T) {
	g := New(1)
	pts := []geom.Point{
		{X: 0.5, Y: 0.5}, {X: 0.6, Y: 0.4}, // cell (0,0)
		{X: 1.5, Y: 0.5},   // cell (1,0)
		{X: -0.5, Y: -0.5}, // cell (-1,-1)
	}
	h := g.HistogramOf(pts)
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
	want := []struct {
		c Coord
		n int64
	}{{Coord{-1, -1}, 1}, {Coord{0, 0}, 2}, {Coord{1, 0}, 1}}
	if h.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(want))
	}
	for i, w := range want {
		if c, n := h.At(i); c != w.c || n != w.n {
			t.Errorf("At(%d) = %v,%d, want %v,%d", i, c, n, w.c, w.n)
		}
	}
}

func TestNewHistogramSortsAndSums(t *testing.T) {
	h := NewHistogram(
		[]Coord{{1, 0}, {0, 1}, {1, 0}, {-1, 5}, {3, 3}, {3, 3}},
		[]int64{2, 1, 3, 4, 1, -1},
	)
	want := map[Coord]int64{{-1, 5}: 4, {0, 1}: 1, {1, 0}: 5}
	if got := asMap(h); !maps.Equal(got, want) {
		t.Errorf("counts %v, want %v", got, want)
	}
	checkRuns(t, h)
}

func TestSum(t *testing.T) {
	g := New(1)
	a := g.HistogramOf([]geom.Point{{X: 0.5, Y: 0.5}})
	b := g.HistogramOf([]geom.Point{{X: 0.6, Y: 0.6}, {X: 1.5, Y: 0.5}})
	s := Sum([]*Histogram{a, b})
	if s.Total() != 3 {
		t.Errorf("Total of the sum = %d, want 3", s.Total())
	}
	if want := map[Coord]int64{{0, 0}: 2, {1, 0}: 1}; !maps.Equal(asMap(s), want) {
		t.Errorf("sum %v, want %v", asMap(s), want)
	}
	if Sum(nil).Len() != 0 || Sum([]*Histogram{{}, {}}).Len() != 0 {
		t.Error("a sum of nothing must be empty")
	}
}

// TestSumComplexity is the guard on the reduction filter at fanout 256:
// each entry costs O(log k) key comparisons (a heap merge makes at most
// 2·log₂k), where folding the children into an accumulator pairwise would
// revisit the accumulated cells once per child. The children's cells are
// disjoint and interleaved, so every output entry comes from another
// child than the one before it.
func TestSumComplexity(t *testing.T) {
	const k, perChild = 256, 64
	parts := make([]*Histogram, k)
	want := make(map[Coord]int64)
	for j := range parts {
		cells, counts := make([]Coord, perChild), make([]int64, perChild)
		for i := range cells {
			cells[i], counts[i] = Coord{CX: int32(i), CY: int32(j)}, int64(i+j+1)
			want[cells[i]] = counts[i]
		}
		parts[j] = NewHistogram(cells, counts)
	}
	got, compares := sum(parts)
	if !maps.Equal(asMap(got), want) {
		t.Fatal("the sum of 256 children lost or miscounted cells")
	}
	checkRuns(t, got)
	perEntry := float64(compares) / float64(got.Len())
	t.Logf("%d children, %d entries: %d comparisons, %.1f per entry", k, got.Len(), compares, perEntry)
	if limit := 2 * math.Log2(k); perEntry > limit {
		t.Errorf("%.1f comparisons per entry, O(log k) allows %.0f", perEntry, limit)
	}

	one := parts[:1]
	if Sum(one) != one[0] {
		t.Error("a lone child must pass through as it is")
	}
	if allocs := testing.AllocsPerRun(10, func() { Sum(one) }); allocs != 0 {
		t.Errorf("summing a lone child allocates %.0f times", allocs)
	}
}

func TestMaxCell(t *testing.T) {
	g := New(1)
	h := g.HistogramOf([]geom.Point{
		{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}, {X: 0.3, Y: 0.3},
		{X: 5.5, Y: 5.5},
	})
	c, n := h.MaxCell()
	if c != (Coord{0, 0}) || n != 3 {
		t.Errorf("MaxCell = %v,%d, want (0,0),3", c, n)
	}
	// Among equals, the first in iteration order.
	tie := NewHistogram([]Coord{{2, -1}, {1, 7}, {1, 3}, {0, 0}}, []int64{4, 4, 4, 1})
	if c, n := tie.MaxCell(); c != (Coord{1, 3}) || n != 4 {
		t.Errorf("MaxCell of a tie = %v,%d, want (1,3),4", c, n)
	}
	if _, n := NewHistogram(nil, nil).MaxCell(); n != 0 {
		t.Errorf("MaxCell of empty histogram must have count 0")
	}
}

func TestIndexNeighborsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 400
	const eps = 0.1
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), X: rng.Float64(), Y: rng.Float64()}
	}
	idx := NewIndex(New(eps), pts)
	for qi := 0; qi < n; qi += 7 {
		got := map[int32]bool{}
		idx.Neighbors(pts[qi], eps, int32(qi), func(i int32) { got[i] = true })
		want := map[int32]bool{}
		for j := range pts {
			if j != qi && geom.Dist2(pts[qi], pts[j]) <= eps*eps {
				want[int32(j)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("point %d: got %d neighbors, want %d", qi, len(got), len(want))
		}
		for j := range want {
			if !got[j] {
				t.Fatalf("point %d: missing neighbor %d", qi, j)
			}
		}
	}
}

func TestCountNeighborsEarlyExit(t *testing.T) {
	pts := []geom.Point{
		{X: 0, Y: 0}, {X: 0.01, Y: 0}, {X: 0.02, Y: 0}, {X: 0.03, Y: 0}, {X: 5, Y: 5},
	}
	idx := NewIndex(New(0.1), pts)
	if got := idx.CountNeighbors(pts[0], 0.1, 0, 2); got != 2 {
		t.Errorf("limited count = %d, want 2", got)
	}
	if got := idx.CountNeighbors(pts[0], 0.1, 0, 0); got != 3 {
		t.Errorf("full count = %d, want 3", got)
	}
	// Query from a location not in the set: self = -1 counts everything.
	if got := idx.CountNeighbors(geom.Point{X: 0.015, Y: 0}, 0.1, -1, 0); got != 4 {
		t.Errorf("external query count = %d, want 4", got)
	}
}

func TestNeighborsPanicsOnOversizedEps(t *testing.T) {
	idx := NewIndex(New(0.1), []geom.Point{{X: 0, Y: 0}})
	defer func() {
		if recover() == nil {
			t.Error("querying with eps > cell side must panic (incomplete scan)")
		}
	}()
	idx.Neighbors(geom.Point{}, 0.2, -1, func(int32) {})
}

func TestNonEmptyCellsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
	}
	idx := NewIndex(New(1), pts)
	cells := idx.NonEmptyCells()
	for i := 1; i < len(cells); i++ {
		if !cells[i-1].Less(cells[i]) {
			t.Fatalf("cells out of order at %d: %v", i, cells)
		}
	}
	total := 0
	for _, c := range cells {
		total += len(idx.CellPoints(c))
	}
	if total != len(pts) {
		t.Errorf("cells cover %d points, want %d", total, len(pts))
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// TestInRange: a coordinate is in range while it is finite and fewer
// than MaxCoord cells from the origin, on either axis.
func TestInRange(t *testing.T) {
	g := New(0.1)
	edge := MaxCoord * g.Side()
	for _, tc := range []struct {
		p    geom.Point
		want bool
	}{
		{geom.Point{}, true},
		{geom.Point{X: 1e8, Y: -1e8}, true},
		{geom.Point{X: math.Nextafter(edge, 0)}, true},
		{geom.Point{X: edge}, false},
		{geom.Point{Y: -edge}, false},
		{geom.Point{X: 3e8}, false},
		{geom.Point{X: math.Inf(-1)}, false},
		{geom.Point{Y: math.NaN()}, false},
	} {
		if got := g.InRange(tc.p); got != tc.want {
			t.Errorf("InRange(%v) = %t, want %t", tc.p, got, tc.want)
		}
	}
}
