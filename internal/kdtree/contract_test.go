package kdtree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// checkFlat enforces the tree's contract — everything a traversal, the
// gdbscan kernels or a count taken from a node relies on, and nothing
// about where the splits fall:
//
//   - nodes are in pre-order: Left[i] == i+1, Right[i] follows the left
//     subtree, and every node is reachable from the root;
//   - a node's range is its children's, back to back: Count of a parent
//     is the sum of its children's, and the leaves partition Order, a
//     permutation of the point indices;
//   - every node's rectangle is the tight bounding box of its range;
//   - sibling rectangles are strictly apart on one axis, left below right;
//   - the stop rule holds at every leaf — or the leaf is a single location
//     and cannot be split — and fails at every internal node.
//
// Coordinates must be finite.
func checkFlat(t testing.TB, tr *Tree) {
	t.Helper()
	f, n := &tr.flat, len(tr.pts)
	nodes := len(f.Left)
	if len(f.Order) != n || len(f.Right) != nodes || len(f.Start) != nodes || len(f.Count) != nodes || len(f.Bounds) != 4*nodes {
		t.Fatalf("array lengths: %d points, Order %d; Left %d, Right %d, Start %d, Count %d, Bounds %d",
			n, len(f.Order), nodes, len(f.Right), len(f.Start), len(f.Count), len(f.Bounds))
	}
	if n == 0 {
		if nodes != 0 {
			t.Fatalf("%d nodes over no points", nodes)
		}
		return
	}
	seen := make([]bool, n)
	for _, i := range f.Order {
		if i < 0 || int(i) >= n || seen[i] {
			t.Fatalf("Order is not a permutation: index %d out of range or repeated", i)
		}
		seen[i] = true
	}
	if nodes == 0 || f.Start[0] != 0 || int(f.Count[0]) != n {
		t.Fatalf("root covers %v+%v of %d points", f.Start[:min(nodes, 1)], f.Count[:min(nodes, 1)], n)
	}
	stop := func(ni int) bool {
		count := int(f.Count[ni])
		return count <= tr.leafCap && (count <= tr.anyRect || f.Diag2(ni) <= tr.cellDiag2)
	}
	// walk checks the subtree at ni and returns the index after its last node.
	var walk func(ni int) int
	walk = func(ni int) int {
		start, count := f.Start[ni], f.Count[ni]
		if count <= 0 || start < 0 || int(start+count) > n {
			t.Fatalf("node %d: range %d+%d of %d points", ni, start, count, n)
		}
		b := f.Bounds[4*ni : 4*ni+4]
		tight := geom.EmptyRect()
		for _, i := range f.Order[start : start+count] {
			tight = tight.Extend(tr.pts[i])
		}
		if got := (geom.Rect{MinX: b[0], MinY: b[1], MaxX: b[2], MaxY: b[3]}); got != tight {
			t.Fatalf("node %d: bounds %+v, tight box of its range %+v", ni, got, tight)
		}
		if f.Left[ni] < 0 {
			if !stop(ni) && (b[0] != b[2] || b[1] != b[3]) {
				t.Fatalf("leaf %d (%d points, diag² %g) breaks the stop rule", ni, count, f.Diag2(ni))
			}
			return ni + 1
		}
		if stop(ni) {
			t.Fatalf("internal node %d (%d points, diag² %g) should have been a leaf", ni, count, f.Diag2(ni))
		}
		l, r := int(f.Left[ni]), int(f.Right[ni])
		if l != ni+1 {
			t.Fatalf("node %d: left child %d, want %d (pre-order)", ni, l, ni+1)
		}
		if r <= l || r >= nodes {
			t.Fatalf("node %d: right child %d of %d nodes", ni, r, nodes)
		}
		if f.Start[l] != start || f.Start[r] != start+f.Count[l] || f.Count[l]+f.Count[r] != count {
			t.Fatalf("node %d: range %d+%d, children %d+%d and %d+%d", ni, start, count,
				f.Start[l], f.Count[l], f.Start[r], f.Count[r])
		}
		lb, rb := f.Bounds[4*l:4*l+4], f.Bounds[4*r:4*r+4]
		if !(lb[2] < rb[0] || lb[3] < rb[1]) {
			t.Fatalf("node %d: children %v and %v are not strictly apart on an axis", ni, lb, rb)
		}
		if end := walk(l); end != r {
			t.Fatalf("node %d: left subtree ends at %d, right child is %d", ni, end, r)
		}
		return walk(r)
	}
	if end := walk(0); end != nodes {
		t.Fatalf("the root's subtree ends at node %d of %d", end, nodes)
	}
}

// checkCounts compares CountRange and Range around a sample of the points
// with brute force. The distance test is the tree's own — a difference,
// squared and summed — so it is exact at any magnitude.
func checkCounts(t testing.TB, tr *Tree, eps float64) {
	t.Helper()
	pts := tr.pts
	for self := 0; self < len(pts); self += 1 + len(pts)/64 {
		c := pts[self]
		want := 0
		for j, p := range pts {
			dx, dy := c.X-p.X, c.Y-p.Y
			if j != self && dx*dx+dy*dy <= eps*eps {
				want++
			}
		}
		if got := tr.CountRange(c, eps, int32(self), 0); got != want {
			t.Fatalf("CountRange around point %d (eps %g) = %d, brute force %d", self, eps, got, want)
		}
		got := 0
		tr.Range(c, eps, int32(self), func(int32) bool { got++; return true })
		if got != want {
			t.Fatalf("Range around point %d (eps %g) visited %d, brute force %d", self, eps, got, want)
		}
	}
}

// xStrip returns the n points of pts from rank `from` in x order: the
// shape of one partition of the pipeline's plan.
func xStrip(pts []geom.Point, from, n int) []geom.Point {
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, func(a, b geom.Point) int { return cmp.Compare(a.X, b.X) })
	return sorted[from : from+n]
}

// TestFlatContract: whatever the input's ties, the capacity and the grid,
// the build keeps the contract and answers range counts exactly.
func TestFlatContract(t *testing.T) {
	inputs := tieHeavyInputs()
	inputs["twitter-part"] = xStrip(dataset.Twitter(60000, 75), 22000, 9000)
	inputs["sdss-part"] = xStrip(dataset.SDSS(150000, 76), 70000, 11000)
	var ws Workspace
	for name, pts := range inputs {
		box := geom.EmptyRect()
		for _, p := range pts {
			box = box.Extend(p)
		}
		extent := max(box.Width(), box.Height(), 1e-3)
		for _, leafCap := range []int{1, 8, 64} {
			// No cells; cells far smaller than, comparable to and larger
			// than the data.
			for _, eps := range []float64{0, extent / 3000, extent / 40, extent * 2} {
				t.Run(fmt.Sprintf("%s/leaf=%d/eps=%.3g", name, leafCap, eps), func(t *testing.T) {
					tr, _ := ws.BuildCells(pts, leafCap, eps)
					checkFlat(t, tr)
					checkCounts(t, tr, max(eps, extent/50))
				})
			}
		}
	}
}

// hostileInputs are geometries chosen against the grid: more cells than a
// key has bits for, extents at both ends of the float range, everything
// in one cell, a cell per point, and the smallest inputs.
func hostileInputs() map[string][]geom.Point {
	return map[string][]geom.Point{
		"n=0": nil,
		"n=1": mk(1, func(int) (float64, float64) { return 5, -5 }),
		"n=2": mk(2, func(i int) (float64, float64) { return float64(i), 0 }),
		// x = 2⁻ᵏ: every key bit splits one point off, a tree about as
		// deep as its keys are long.
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

// TestHostileGeometry: the build terminates on each hostile input with
// its contract intact and exact range counts, at grids from far finer
// than the data to coarser than all of it.
func TestHostileGeometry(t *testing.T) {
	var ws Workspace
	for name, pts := range hostileInputs() {
		for _, leafCap := range []int{1, 8, 64} {
			for _, eps := range []float64{0, 1e-310, 1e-12, 0.5, 1e9, 1e305} {
				t.Run(fmt.Sprintf("%s/leaf=%d/eps=%g", name, leafCap, eps), func(t *testing.T) {
					tr, _ := ws.BuildCells(pts, leafCap, eps)
					checkFlat(t, tr)
					checkCounts(t, tr, eps)
					checkCounts(t, tr, 1.5)
				})
			}
		}
	}
}

// TestDeepTreeSpillsTheTraversalStack: the traversals keep 64 entries on
// their own stack and a sibling pending per level. A grid line can split
// one point off a region, so depth is bounded by the key's bits plus the
// in-cell levels — the "geometric" inputs reach about 60 — and not by
// log n. A hand-placed chain of 100 levels shows a deeper tree spills
// through append and still counts exactly.
func TestDeepTreeSpillsTheTraversalStack(t *testing.T) {
	const n = 100
	tr := &Tree{leafCap: 1, anyRect: 1}
	f := &tr.flat
	node := func(left, right int32, start, count int) {
		f.Bounds = append(f.Bounds, float64(start), 0, float64(start+count-1), 0)
		f.Left, f.Right = append(f.Left, left), append(f.Right, right)
		f.Start, f.Count = append(f.Start, int32(start)), append(f.Count, int32(count))
	}
	for k := 0; k < n; k++ {
		tr.pts = append(tr.pts, geom.Point{ID: uint64(k), X: float64(k)})
		tr.xs, tr.ys = append(tr.xs, float64(k)), append(tr.ys, 0)
		f.Order = append(f.Order, int32(k))
		if k < n-1 { // the region [k, n): point k to the left, the rest to the right
			node(int32(2*k+1), int32(2*k+2), k, n-k)
		}
		node(-1, -1, k, 1)
	}
	checkFlat(t, tr)
	checkCounts(t, tr, 2.5)
	if got := tr.CountRange(geom.Point{X: n - 1}, n, -1, 0); got != n {
		t.Errorf("CountRange over everything = %d, want %d", got, n)
	}
	got := 0
	tr.Range(geom.Point{X: n - 1}, n, -1, func(int32) bool { got++; return true })
	if got != n {
		t.Errorf("Range over everything visited %d, want %d", got, n)
	}
}

// TestNonFiniteCoordinates: ±Inf and NaN have no cell and no order; the
// build must still terminate with every point in exactly one leaf, and
// queries around finite points must not panic.
func TestNonFiniteCoordinates(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	specials := []float64{inf, -inf, nan, 0, 1, -1, 1e300}
	var ws Workspace
	for _, n := range []int{1, 2, 9, 200} {
		for variant := 0; variant < len(specials); variant++ {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{ID: uint64(i), X: float64(i % 5), Y: float64(i % 3)}
				if i%4 == 0 {
					pts[i].X = specials[(i/4+variant)%len(specials)]
				}
				if i%6 == 0 {
					pts[i].Y = specials[(i/6+2*variant)%len(specials)]
				}
			}
			for _, eps := range []float64{0, 0.5} {
				for _, leafCap := range []int{1, 8} {
					tr, f := ws.BuildCells(pts, leafCap, eps)
					seen := make([]bool, n)
					for _, l := range leavesOf(f) {
						for _, i := range l.Points {
							if seen[i] {
								t.Fatalf("n=%d variant %d: point %d in two leaves", n, variant, i)
							}
							seen[i] = true
						}
					}
					if slices.Contains(seen, false) {
						t.Fatalf("n=%d variant %d: a point is in no leaf", n, variant)
					}
					tr.CountRange(geom.Point{X: 1, Y: 1}, 2, -1, 0)
					tr.Range(geom.Point{X: 1, Y: 1}, 2, 0, func(int32) bool { return true })
				}
			}
		}
	}
}

// FuzzBuildCells: bytes become up to 200 points and a cell size; the
// build must keep its contract and count ranges exactly.
func FuzzBuildCells(f *testing.F) {
	le := binary.LittleEndian
	seed := func(eps float64, leafCap uint8, coords ...float64) {
		b := le.AppendUint64([]byte{leafCap}, math.Float64bits(eps))
		for _, c := range coords {
			b = le.AppendUint64(b, math.Float64bits(c))
		}
		f.Add(b)
	}
	seed(0.1, 4, 0, 0, 0.05, 0.05, 1, 1, 1, 1.01, -3, 2)
	seed(0, 1, 1, 0, 0.5, 0, 0.25, 0, 0.125, 0)
	seed(1e-300, 8, 1e300, -1e300, 0, 0, 1e-300, 1e-300)
	seed(2, 64, 7, 7, 7, 7, 7, 7)
	var ws Workspace
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 9 {
			return
		}
		leafCap, eps := int(data[0]), math.Float64frombits(le.Uint64(data[1:]))
		if !(eps >= 0) || math.IsInf(eps, 0) {
			return
		}
		var pts []geom.Point
		for data = data[9:]; len(data) >= 16 && len(pts) < 200; data = data[16:] {
			x, y := math.Float64frombits(le.Uint64(data)), math.Float64frombits(le.Uint64(data[8:]))
			if x-x != 0 || y-y != 0 {
				return // not finite
			}
			pts = append(pts, geom.Point{ID: uint64(len(pts)), X: x, Y: y})
		}
		tr, _ := ws.BuildCells(pts, leafCap, eps)
		checkFlat(t, tr)
		checkCounts(t, tr, eps)
	})
}

// BenchmarkBuildCells is the tree the cluster phase builds: one partition
// of each batch workload's size and shape, at the workload's Eps, into a
// reused workspace.
func BenchmarkBuildCells(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  []geom.Point
		eps  float64
	}{
		{"twitter_part", xStrip(dataset.Twitter(60000, 75), 22000, 9000), 0.1},
		{"sdss_part", xStrip(dataset.SDSS(150000, 76), 70000, 11000), 0.00015},
	} {
		b.Run(c.name, func(b *testing.B) {
			var ws Workspace
			ws.BuildCells(c.pts, DefaultLeafSize, c.eps)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.BuildCells(c.pts, DefaultLeafSize, c.eps)
			}
			b.ReportMetric(float64(ws.tree.Nodes())/float64(len(c.pts)), "nodes/point")
		})
	}
}
