package kdtree

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// refNode is a node of the reference tree: the pointer-free node the
// build used before it wrote straight into Flat's arrays. start/count is
// the node's range of order — the whole subtree's for an internal node.
type refNode struct {
	bounds      geom.Rect
	axis        int8
	left, right int32
	split       float64
	start       int32
	count       int32
}

// refTree is the sort-based build kept as the oracle for the selection
// build: it sorts the whole range at every level (O(n log² n)), which
// makes the split trivially right.
type refTree struct {
	pts     []geom.Point
	order   []int32
	nodes   []refNode
	leafCap int
}

func refBuild(pts []geom.Point, leafCap int) *refTree {
	t := &refTree{pts: pts, leafCap: leafCap, order: make([]int32, len(pts))}
	for i := range t.order {
		t.order[i] = int32(i)
	}
	if len(pts) > 0 {
		t.build(0, int32(len(pts)))
	}
	return t
}

func refCoord(p geom.Point, axis int8) float64 {
	if axis == 0 {
		return p.X
	}
	return p.Y
}

func (t *refTree) build(start, end int32) int32 {
	bounds := geom.EmptyRect()
	for _, i := range t.order[start:end] {
		bounds = bounds.Extend(t.pts[i])
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, refNode{bounds: bounds, left: -1, right: -1, start: start, count: end - start})
	if int(end-start) <= t.leafCap {
		return idx
	}
	axis := int8(0)
	if bounds.Height() > bounds.Width() {
		axis = 1
	}
	seg := t.order[start:end]
	mid := len(seg) / 2
	slices.SortFunc(seg, func(a, b int32) int {
		return cmp.Compare(refCoord(t.pts[a], axis), refCoord(t.pts[b], axis))
	})
	split := refCoord(t.pts[seg[mid]], axis)
	if refCoord(t.pts[seg[0]], axis) == refCoord(t.pts[seg[len(seg)-1]], axis) {
		return idx
	}
	for mid > 0 && refCoord(t.pts[seg[mid-1]], axis) == split {
		mid--
	}
	if mid == 0 {
		for mid < len(seg) && refCoord(t.pts[seg[mid]], axis) == split {
			mid++
		}
		if mid < len(seg) {
			split = refCoord(t.pts[seg[mid]], axis)
		}
	}
	if mid == 0 || mid == len(seg) {
		return idx
	}
	left := t.build(start, start+int32(mid))
	right := t.build(start+int32(mid), end)
	n := &t.nodes[idx]
	n.axis, n.split, n.left, n.right = axis, split, left, right
	return idx
}

// mk returns n points, point i at f(i), IDs in slice order.
func mk(n int, f func(i int) (x, y float64)) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		x, y := f(i)
		pts[i] = geom.Point{ID: uint64(i), X: x, Y: y}
	}
	return pts
}

// tieHeavyInputs are seeded point sets whose coordinates collide in every
// way the strict-split pass has to handle.
func tieHeavyInputs() map[string][]geom.Point {
	rng := rand.New(rand.NewSource(15))
	const leafCap = 8
	in := map[string][]geom.Point{
		"uniform":     mk(3000, func(int) (float64, float64) { return rng.Float64(), rng.Float64() }),
		"duplicates":  mk(2000, func(int) (float64, float64) { return float64(rng.Intn(6)), float64(rng.Intn(5)) }),
		"all-same":    mk(500, func(int) (float64, float64) { return 3, 4 }),
		"repeated-x":  mk(2000, func(i int) (float64, float64) { return float64(i % 3), rng.Float64() * 0.5 }),
		"equal-on-y":  mk(1500, func(int) (float64, float64) { return rng.Float64(), 7 }),
		"equal-on-x":  mk(1500, func(int) (float64, float64) { return -2, rng.NormFloat64() }),
		"min-is-mode": mk(1000, func(i int) (float64, float64) { return float64(max(0, i%10-6)), 0 }),
		"max-is-mode": mk(1000, func(i int) (float64, float64) { return float64(min(3, i%10)), 0 }),
		"twitter":     dataset.Twitter(4000, 3),
		"sdss":        dataset.SDSS(4000, 3),
	}
	for _, n := range []int{0, 1, leafCap, leafCap + 1} {
		in[fmt.Sprintf("n=%d", n)] = mk(n, func(int) (float64, float64) { return rng.Float64(), rng.Float64() })
	}
	return in
}

// medianBuild runs the in-cell median splitter over the whole of pts — as
// if one grid cell held everything — which no build does; it is how the
// tests reach the splitter with inputs of their choosing.
func medianBuild(pts []geom.Point, leafCap int) *Tree {
	t := &Tree{}
	t.reset(pts, leafCap, 0)
	for i := range t.flat.Order {
		t.flat.Order[i] = int32(i)
	}
	if len(pts) > 0 {
		t.build(0, int32(len(pts)))
	}
	return t
}

// TestSelectionBuildMatchesSortBuild: the median splitter must produce
// the reference's tree — the same nodes in the same order, with the same
// bounds, the same split axes and values, the same subtree ranges and the
// same point *sets* in every leaf (the order inside a leaf is unspecified
// in both).
func TestSelectionBuildMatchesSortBuild(t *testing.T) {
	for name, pts := range tieHeavyInputs() {
		for _, leafCap := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("%s/leaf=%d", name, leafCap), func(t *testing.T) {
				ref := refBuild(pts, leafCap)
				tr := medianBuild(pts, leafCap)
				checkFlat(t, tr)
				f := tr.Flat()
				if len(f.Left) != len(ref.nodes) {
					t.Fatalf("%d nodes, reference has %d", len(f.Left), len(ref.nodes))
				}
				if len(f.Order) != len(pts) {
					t.Fatalf("Order holds %d indices, want %d", len(f.Order), len(pts))
				}
				for ni, want := range ref.nodes {
					b := f.Bounds[4*ni : 4*ni+4]
					if got := (geom.Rect{MinX: b[0], MinY: b[1], MaxX: b[2], MaxY: b[3]}); got != want.bounds {
						t.Fatalf("node %d: bounds %+v, want %+v", ni, got, want.bounds)
					}
					if f.Left[ni] != want.left || f.Right[ni] != want.right {
						t.Fatalf("node %d: children %d,%d, want %d,%d", ni, f.Left[ni], f.Right[ni], want.left, want.right)
					}
					if f.Start[ni] != want.start || f.Count[ni] != want.count {
						t.Fatalf("node %d: range %d+%d, want %d+%d", ni, f.Start[ni], f.Count[ni], want.start, want.count)
					}
					if want.left < 0 {
						got := slices.Clone(f.Order[want.start : want.start+want.count])
						exp := slices.Clone(ref.order[want.start : want.start+want.count])
						slices.Sort(got)
						slices.Sort(exp)
						if !slices.Equal(got, exp) {
							t.Fatalf("leaf %d: point set %v, want %v", ni, got, exp)
						}
						continue
					}
					// The tree does not store the split; it is implied by
					// the bounds: the wider axis of the node, and the
					// smallest coordinate of the right child on it.
					axis := int8(0)
					if b[3]-b[1] > b[2]-b[0] {
						axis = 1
					}
					split := f.Bounds[4*int(f.Right[ni])+int(axis)]
					if axis != want.axis || split != want.split {
						t.Fatalf("node %d: split axis %d at %v, want axis %d at %v", ni, axis, split, want.axis, want.split)
					}
				}
			})
		}
	}
}

// TestCellsStopRule: with cells, every leaf is an Eps cell or holds at
// most cellFloor points, no leaf exceeds the capacity, and no region
// that already satisfied the rule was split further.
func TestCellsStopRule(t *testing.T) {
	const eps, leafCap = 0.1, 64
	pts := dataset.Twitter(20000, 5)
	var ws Workspace
	_, f := ws.BuildCells(pts, leafCap, eps)
	stop := func(ni int) bool {
		count := int(f.Count[ni])
		return count <= leafCap && (count <= cellFloor || f.Diag2(ni) <= eps*eps)
	}
	seen := 0
	cells := 0
	var walk func(ni int) int
	walk = func(ni int) int {
		if f.Left[ni] < 0 {
			if !stop(ni) {
				t.Fatalf("leaf %d (%d points, diag² %g) breaks the stop rule", ni, f.Count[ni], f.Diag2(ni))
			}
			if f.Diag2(ni) <= eps*eps {
				cells++
			}
			seen += int(f.Count[ni])
			return int(f.Count[ni])
		}
		n := walk(int(f.Left[ni])) + walk(int(f.Right[ni]))
		if n <= leafCap && (n <= cellFloor || f.Diag2(ni) <= eps*eps) {
			t.Fatalf("internal node %d (%d points, diag² %g) should have been a leaf", ni, n, f.Diag2(ni))
		}
		return n
	}
	walk(0)
	if seen != len(pts) {
		t.Fatalf("leaves hold %d points, want %d", seen, len(pts))
	}
	if cells == 0 {
		t.Fatal("dense Twitter data must produce Eps cells")
	}
	// The node arrays were sized once: nothing grew past the estimate.
	if got, limit := len(f.Left), len(pts)/2+1; got > limit {
		t.Errorf("%d nodes exceed the sizing bound %d", got, limit)
	}
}

// TestRebuildAllocatesNothing: a second build of the same size into the
// same workspace reuses every array.
func TestRebuildAllocatesNothing(t *testing.T) {
	pts := dataset.Twitter(5000, 9)
	var ws Workspace
	for name, build := range map[string]func(){
		"Build":      func() { ws.Build(pts, 64) },
		"BuildCells": func() { ws.BuildCells(pts, 64, 0.1) },
	} {
		build()
		if allocs := testing.AllocsPerRun(5, build); allocs != 0 {
			t.Errorf("%s: rebuild made %v allocations, want 0", name, allocs)
		}
	}
}

// TestBuildScansLinearithmic is the clock-free complexity guard. Above
// the cell level the build examines each point a bounded number of times
// — keying, three passes per eight-bit digit of the radix sort for as
// many digits as it takes to tell the point's cell from its neighbours'
// (or to get its bucket under the leaf size), one search per node —
// whatever the tree's depth: the count per point is held under a
// constant at n and at 8n, which a pass over the points per tree level
// (9 levels at the larger size, on top of the sort) breaks. (The count
// itself steps up by a digit's three passes when an eight times denser
// input needs one more digit, so a bound on its growth from n to 8n
// would measure where those steps fall, not the complexity.) At and below
// the cell level the median splitter examines a cell's points once per
// level of the cell's own subtree, so those scans grow with the logarithm
// of the cell occupancy and not of n; a sort per level — O(n log² n) —
// fails that.
func TestBuildScansLinearithmic(t *testing.T) {
	const leafCap, n = 64, 4000
	for name, gen := range map[string]func(n int) []geom.Point{
		"uniform": func(n int) []geom.Point { return randomPoints(rand.New(rand.NewSource(2)), n, 1) },
		"twitter": func(n int) []geom.Point { return dataset.Twitter(n, 2) },
		"sdss":    func(n int) []geom.Point { return dataset.SDSS(n, 2) },
	} {
		for mode, eps := range map[string]float64{"plain": 0, "cells": 0.01} {
			var ws Workspace
			small, _ := ws.BuildCells(gen(n), leafCap, eps)
			smallSorted, smallScanned := small.sorted, small.scanned
			large, _ := ws.BuildCells(gen(8*n), leafCap, eps)
			t.Logf("%s/%s: above the cells %.1f and %.1f per point, at and below %.1f and %.1f", name, mode,
				float64(smallSorted)/n, float64(large.sorted)/(8*n), float64(smallScanned)/n, float64(large.scanned)/(8*n))
			for _, perPoint := range []float64{float64(smallSorted) / n, float64(large.sorted) / (8 * n)} {
				if perPoint > 16 {
					t.Errorf("%s/%s: %.1f elements examined above the cells per point, want a small constant", name, mode, perPoint)
				}
			}
			// The 16-bit grid of a plain build leaves these inputs a point
			// or two per cell: nothing is scanned but each leaf, once.
			if eps == 0 && (smallScanned != n || large.scanned != 8*n) {
				t.Errorf("%s/%s: %d and %d coordinates scanned, want each point's once (%d, %d)",
					name, mode, smallScanned, large.scanned, n, 8*n)
			}
		}
	}
	// In-cell: 2¹⁵ points spread evenly over g×g grid cells, split down
	// to leaves of 8. A cell's subtree has log₂(occupancy/8) levels.
	const m, cap8 = 1 << 15, 8
	pts := randomPoints(rand.New(rand.NewSource(3)), m, 1)
	for _, g := range []int{2, 8, 32} {
		var ws Workspace
		tr, _ := ws.BuildCells(pts, cap8, 1/(0.7071*float64(g)))
		levels := float64(bits.Len(uint(m / (g * g) / cap8)))
		if perLevel := float64(tr.scanned) / (m * levels); perLevel > 6 {
			t.Errorf("%dx%d cells: %.1f scans per point per level of a cell's subtree (%v levels), want a small constant",
				g, g, perLevel, levels)
		}
		if perPoint := float64(tr.sorted) / m; perPoint > 16 {
			t.Errorf("%dx%d cells: %.1f elements examined above the cells per point", g, g, perPoint)
		}
	}
}
