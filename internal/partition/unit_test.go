package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

func TestCellUnit(t *testing.T) {
	c := grid.Coord{CX: 3, CY: -2}
	u := CellUnit(c)
	if u.Cell != c || u.Depth != 0 || u.Path != 0 {
		t.Errorf("CellUnit = %+v", u)
	}
	g := grid.New(0.1)
	if u.Rect(g) != g.CellRect(c) {
		t.Errorf("depth-0 unit rect must equal the cell rect")
	}
}

func TestUnitOfQuadrants(t *testing.T) {
	g := grid.New(1)
	// Cell (0,0) covers [0,1)². Depth-1 quadrants: path bit0 = east,
	// bit1 = north.
	tests := []struct {
		p    geom.Point
		path uint16
	}{
		{geom.Point{X: 0.25, Y: 0.25}, 0}, // SW
		{geom.Point{X: 0.75, Y: 0.25}, 1}, // SE
		{geom.Point{X: 0.25, Y: 0.75}, 2}, // NW
		{geom.Point{X: 0.75, Y: 0.75}, 3}, // NE
	}
	for _, tt := range tests {
		u := UnitOf(g, tt.p, 1)
		if u.Path != tt.path || u.Depth != 1 {
			t.Errorf("UnitOf(%v, 1) = %+v, want path %d", tt.p, u, tt.path)
		}
		if !u.Rect(g).Contains(tt.p) {
			t.Errorf("unit rect %+v does not contain %v", u.Rect(g), tt.p)
		}
	}
}

func TestUnitRectContainsPointProperty(t *testing.T) {
	g := grid.New(0.1)
	f := func(xRaw, yRaw int32, depthRaw uint8) bool {
		p := geom.Point{X: float64(xRaw%10000) / 100, Y: float64(yRaw%10000) / 100}
		depth := depthRaw % (MaxSplitDepth + 1)
		u := UnitOf(g, p, depth)
		if u.Depth != depth || u.Cell != g.CellOf(p) {
			return false
		}
		r := u.Rect(g)
		// Closed-open semantics with float slack at the high edges.
		return p.X >= r.MinX-1e-9 && p.X <= r.MaxX+1e-9 &&
			p.Y >= r.MinY-1e-9 && p.Y <= r.MaxY+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnitRectHalvesPerDepth(t *testing.T) {
	g := grid.New(0.1)
	p := geom.Point{X: 0.512345, Y: 0.598765}
	for depth := uint8(0); depth <= MaxSplitDepth; depth++ {
		r := UnitOf(g, p, depth).Rect(g)
		want := g.Side() / float64(int(1)<<depth)
		if diff := r.Width() - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("depth %d width = %v, want %v", depth, r.Width(), want)
		}
	}
}

func TestDepthFor(t *testing.T) {
	tests := []struct {
		count, threshold int64
		want             uint8
	}{
		{100, 0, 0},                   // disabled
		{100, 100, 0},                 // at threshold
		{101, 100, 1},                 // one split suffices (ceil(101/4) = 26)
		{1600, 100, 2},                // 1600 -> 400 -> 100
		{1 << 40, 100, MaxSplitDepth}, // capped
	}
	for _, tt := range tests {
		if got := DepthFor(tt.count, tt.threshold); got != tt.want {
			t.Errorf("DepthFor(%d,%d) = %d, want %d", tt.count, tt.threshold, got, tt.want)
		}
	}
}

func TestQuadCountsPreserveTotals(t *testing.T) {
	g := grid.New(0.1)
	pts := dataset.Twitter(5000, 1)
	h := g.HistogramOf(pts)
	// Split the two densest cells.
	depth := map[grid.Coord]uint8{}
	for i := 0; i < 2 && i < h.Len(); i++ {
		c, _ := h.At(i)
		depth[c] = 2
	}
	counts := QuadCounts(g, pts, depth)
	var total int64
	for u, n := range counts {
		total += n
		if want, split := depth[u.Cell]; split {
			if u.Depth != want {
				t.Errorf("unit %v in split cell has depth %d, want %d", u, u.Depth, want)
			}
		} else if u.Depth != 0 {
			t.Errorf("unit %v in unsplit cell has depth %d", u, u.Depth)
		}
	}
	if total != int64(len(pts)) {
		t.Errorf("quad counts total %d, want %d", total, len(pts))
	}
}

func TestUnitLessOrdering(t *testing.T) {
	a := Unit{Cell: grid.Coord{CX: 0, CY: 0}}
	b := Unit{Cell: grid.Coord{CX: 0, CY: 0}, Depth: 2, Path: 1}
	c := Unit{Cell: grid.Coord{CX: 0, CY: 0}, Depth: 2, Path: 9}
	d := Unit{Cell: grid.Coord{CX: 0, CY: 1}}
	for _, pair := range [][2]Unit{{a, b}, {b, c}, {c, d}} {
		if !pair[0].Less(pair[1]) || pair[1].Less(pair[0]) {
			t.Errorf("ordering violated for %v < %v", pair[0], pair[1])
		}
	}
}

// hotDataset concentrates most points in one Eps cell — the §5.1.2
// pathology where the densest cell dominates a whole leaf.
func hotDataset(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		if i < n*3/4 {
			// Inside cell (0,0) of a 0.1 grid.
			pts[i] = geom.Point{ID: uint64(i), X: rng.Float64() * 0.1, Y: rng.Float64() * 0.1}
		} else {
			pts[i] = geom.Point{ID: uint64(i), X: rng.Float64()*5 - 2.5, Y: rng.Float64()*5 - 2.5}
		}
	}
	return pts
}

func TestHotCellSplitPlan(t *testing.T) {
	g := grid.New(0.1)
	pts := hotDataset(8000, 2)
	h := g.HistogramOf(pts)
	_, maxCell := h.MaxCell()
	if maxCell < 5000 {
		t.Fatalf("hot dataset max cell = %d; test needs a dominant cell", maxCell)
	}

	// Without splitting: one partition is stuck with the whole hot cell.
	flat, err := MakePlan(g, h, 8, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if flat.MaxOwned() < maxCell {
		t.Fatalf("unsplit plan max owned %d < hot cell %d", flat.MaxOwned(), maxCell)
	}

	// With splitting: the hot cell shatters into tiles and spreads.
	uh := &UnitHistogram{
		Counts: QuadCounts(g, pts, map[grid.Coord]uint8{{CX: 0, CY: 0}: DepthFor(maxCell, 500)}),
		Depth:  map[grid.Coord]uint8{{CX: 0, CY: 0}: DepthFor(maxCell, 500)},
	}
	split, err := MakePlanUnits(g, uh, PlanOptions{NumPartitions: 8, MinPts: 4, Rebalance: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
	if split.SplitCells() != 1 {
		t.Errorf("SplitCells = %d, want 1", split.SplitCells())
	}
	if split.MaxOwned() >= flat.MaxOwned() {
		t.Errorf("splitting must reduce the max owned partition: %d vs %d",
			split.MaxOwned(), flat.MaxOwned())
	}
	// Point coverage through Split.
	sr, err := Split(split, pts, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for _, part := range sr.Partitions {
		for _, p := range part {
			seen[p.ID]++
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("split covers %d points, want %d", len(seen), len(pts))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("point %d owned %d times", id, n)
		}
	}
}

// TestHotCellShadowCompleteness: the §3.1.1 invariant must survive
// subdivision — every neighbor of an owned point is in the partition or
// its shadow.
func TestHotCellShadowCompleteness(t *testing.T) {
	g := grid.New(0.1)
	pts := hotDataset(3000, 3)
	depth := map[grid.Coord]uint8{{CX: 0, CY: 0}: 2}
	uh := &UnitHistogram{Counts: QuadCounts(g, pts, depth), Depth: depth}
	plan, err := MakePlanUnits(g, uh, PlanOptions{NumPartitions: 6, MinPts: 4, Rebalance: true})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Split(plan, pts, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Visibility sets per partition: owned + shadow point IDs.
	visible := make([]map[uint64]bool, plan.NumPartitions())
	ownerOf := map[uint64]int{}
	for i := range plan.Specs {
		visible[i] = map[uint64]bool{}
		for _, p := range sr.Partitions[i] {
			visible[i][p.ID] = true
			ownerOf[p.ID] = i
		}
		for _, p := range sr.Shadows[i] {
			visible[i][p.ID] = true
		}
	}
	eps2 := eps * eps
	for a := 0; a < len(pts); a += 5 {
		owner := ownerOf[pts[a].ID]
		for b := range pts {
			if a == b || geom.Dist2(pts[a], pts[b]) > eps2 {
				continue
			}
			if !visible[owner][pts[b].ID] {
				t.Fatalf("point %d (partition %d) has neighbor %d outside partition+shadow",
					a, owner, b)
			}
		}
	}
}
