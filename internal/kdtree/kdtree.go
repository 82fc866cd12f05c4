// Package kdtree implements the modified KD-tree of CUDA-DClust (§3.2.1):
// a region KD-tree whose leaves hold *regions of points* rather than single
// points. Mr. Scan's GPGPU DBSCAN uses it in two ways:
//
//  1. Range queries bound the candidate set for Eps-neighborhood tests.
//  2. The leaf subdivisions drive the dense-box optimization (§3.2.3): a
//     leaf whose region has diagonal ≤ Eps is a *cell* — all its points
//     are mutually within Eps, so once they are known to be core they are
//     one cluster and none needs individual expansion. BuildCells
//     subdivides until leaves are such cells.
//
// The tree is built straight into index arrays (Flat) — the layout a real
// CUDA kernel traverses with an explicit stack, and the form consumed by
// the gpusim kernels. Each level of the build splits at the median found
// by selection (nth_element), not by sorting, so the build is O(n log n).
package kdtree

import "repro/internal/geom"

// DefaultLeafSize is the leaf region capacity used when the caller passes
// a non-positive leaf size.
const DefaultLeafSize = 64

// cellFloor ends the Eps-cell subdivision in sparse space: a region of at
// most this many points becomes a leaf even when its diagonal exceeds
// Eps. Without it BuildCells would split sparse regions down to single
// points — a node per point bought for cells that can never be dense
// boxes. Measured on the Twitter and SDSS workloads the cluster phase is
// flat for floors 4…32; 8 keeps the node arrays at ≤ n/2 entries.
const cellFloor = 8

// Tree is a region KD-tree over a point set. It stores a permutation of
// point indices; leaves own contiguous ranges of that permutation.
type Tree struct {
	pts []geom.Point
	// xs, ys are the coordinate columns of pts: the selection build and
	// the range queries read coordinates by index far more often than
	// they need a whole Point.
	xs, ys []float64
	flat   Flat
	// leafCap is the leaf capacity; cellDiag2 > 0 additionally demands
	// the Eps-cell stop rule (squared cell diagonal).
	leafCap   int
	cellDiag2 float64
	// scanned counts the elements examined by the build's bounds,
	// selection and tie passes: the clock-free cost the complexity guard
	// in the tests bounds.
	scanned int64
}

// Build constructs a tree over pts with the given leaf capacity.
// Build does not copy or reorder pts; it keeps a reference, so callers
// must not mutate the slice while the tree is in use.
func Build(pts []geom.Point, leafCap int) *Tree {
	t := &Tree{}
	t.buildInto(pts, leafCap, 0)
	return t
}

// buildInto (re)constructs the tree over pts, reusing t's backing arrays
// when their capacity suffices. With cellEps > 0 a region stops splitting
// only when it holds ≤ leafCap points and is either an Eps cell
// (diagonal ≤ cellEps) or holds ≤ cellFloor points.
func (t *Tree) buildInto(pts []geom.Point, leafCap int, cellEps float64) {
	if leafCap <= 0 {
		leafCap = DefaultLeafSize
	}
	n := len(pts)
	t.pts = pts
	t.leafCap = leafCap
	t.cellDiag2 = cellEps * cellEps
	t.scanned = 0
	t.xs = grow(t.xs, n)
	t.ys = grow(t.ys, n)
	f := &t.flat
	f.Order = grow(f.Order, n)
	for i, p := range pts {
		t.xs[i], t.ys[i] = p.X, p.Y
		f.Order[i] = int32(i)
	}
	// Size the node arrays once. A median split of a region that must
	// split (more than minLeaf points) leaves at least minLeaf/2 points on
	// each side, which bounds the leaf count; only splits pushed off the
	// median by tied coordinates can exceed it, and then append grows.
	minLeaf := leafCap
	if cellEps > 0 && cellFloor < minLeaf {
		minLeaf = cellFloor
	}
	nodes := 2*(n/((minLeaf+1)/2)) + 1
	f.Bounds = grow(f.Bounds, 4*nodes)[:0]
	f.Left = grow(f.Left, nodes)[:0]
	f.Right = grow(f.Right, nodes)[:0]
	f.Start = grow(f.Start, nodes)[:0]
	f.Count = grow(f.Count, nodes)[:0]
	if n > 0 {
		t.build(0, int32(n))
	}
}

// build recursively constructs the subtree over Order[start:end) and
// returns its node index.
func (t *Tree) build(start, end int32) int32 {
	f := &t.flat
	seg := f.Order[start:end]
	minX, minY, maxX, maxY := t.xs[seg[0]], t.ys[seg[0]], t.xs[seg[0]], t.ys[seg[0]]
	for _, i := range seg[1:] {
		x, y := t.xs[i], t.ys[i]
		if x < minX {
			minX = x
		} else if x > maxX {
			maxX = x
		}
		if y < minY {
			minY = y
		} else if y > maxY {
			maxY = y
		}
	}
	t.scanned += int64(len(seg))
	idx := int32(len(f.Left))
	f.Bounds = append(f.Bounds, minX, minY, maxX, maxY)
	f.Left = append(f.Left, -1)
	f.Right = append(f.Right, -1)
	f.Start = append(f.Start, start)
	f.Count = append(f.Count, end-start)

	w, h := maxX-minX, maxY-minY
	if len(seg) <= t.leafCap && (t.cellDiag2 == 0 || len(seg) <= cellFloor || w*w+h*h <= t.cellDiag2) {
		return idx
	}
	// Split on the wider axis at the median, mirroring CUDA-DClust's
	// balanced subdivision of the point space.
	key, lo, extent := t.xs, minX, w
	if h > w {
		key, lo, extent = t.ys, minY, h
	}
	if extent == 0 {
		return idx // all points identical: nothing to split on
	}
	mid := len(seg) / 2
	t.scanned += selectNth(seg, key, mid)
	// Make the split strict around the median value v: the left child
	// takes every coordinate < v — or, when v is the region's minimum,
	// every coordinate == v — so equal coordinates never straddle the
	// split and neither child is empty.
	v := key[seg[mid]]
	from, to := 0, mid
	if v == lo {
		from, to = mid, len(seg)
	}
	t.scanned += int64(to - from)
	mid = from
	for i := from; i < to; i++ {
		if k := key[seg[i]]; k < v || k == lo {
			seg[i], seg[mid] = seg[mid], seg[i]
			mid++
		}
	}
	left := t.build(start, start+int32(mid))
	right := t.build(start+int32(mid), end)
	f.Left[idx], f.Right[idx] = left, right
	return idx
}

// selectNth permutes ord so that key[ord[k]] is the k-th smallest key of
// the segment, nothing before position k is greater and nothing after it
// is smaller (C++'s nth_element). Quickselect with a deterministic
// median-of-three pivot and Hoare partitioning, which stays balanced on
// runs of equal keys. It returns the number of elements it examined.
func selectNth(ord []int32, key []float64, k int) (scanned int64) {
	lo, hi := 0, len(ord)-1
	for lo < hi {
		scanned += int64(hi - lo + 1)
		a, b, c := key[ord[lo]], key[ord[lo+(hi-lo)/2]], key[ord[hi]]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		pivot := max(a, b)
		i, j := lo, hi
		for i <= j {
			for key[ord[i]] < pivot {
				i++
			}
			for key[ord[j]] > pivot {
				j--
			}
			if i <= j {
				ord[i], ord[j] = ord[j], ord[i]
				i++
				j--
			}
		}
		// ord[lo..j] ≤ pivot ≤ ord[i..hi]; anything between is == pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return scanned
		}
	}
	return scanned
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

// Points returns the indexed point slice.
func (t *Tree) Points() []geom.Point { return t.pts }

// Coords returns the coordinate columns of the indexed points
// (xs[i], ys[i] = Points()[i].X, .Y) — what Flat's queries take. They
// share the tree's lifetime; do not mutate.
func (t *Tree) Coords() (xs, ys []float64) { return t.xs, t.ys }

// Nodes returns the number of tree nodes (internal + leaf).
func (t *Tree) Nodes() int { return len(t.flat.Left) }

// Flat returns the tree's array form. It aliases the tree (no copy), so
// it is valid until the tree is rebuilt.
func (t *Tree) Flat() *Flat { return &t.flat }

// Range invokes fn with the index of every point within eps of center,
// excluding the point index self (pass a negative self to include all).
// fn returning false stops the search early.
func (t *Tree) Range(center geom.Point, eps float64, self int32, fn func(i int32) bool) {
	t.flat.Range(t.xs, t.ys, center.X, center.Y, eps, self, fn)
}

// CountRange returns the number of points within eps of center (excluding
// self), stopping early once limit is reached (limit <= 0 counts all).
func (t *Tree) CountRange(center geom.Point, eps float64, self int32, limit int) int {
	return t.flat.CountRange(t.xs, t.ys, center.X, center.Y, eps, self, limit)
}

// Flat is the array-of-structs form of the tree used by the gpusim
// kernels — the representation a real GPU implementation would copy to
// device memory (tree-of-pointers layouts cannot be traversed efficiently
// on a GPU; CUDA-DClust flattens exactly like this). Nodes are in
// pre-order: node 0 is the root and a left child directly follows its
// parent.
type Flat struct {
	// Per node i:
	//   Bounds[4i..4i+3] = MinX, MinY, MaxX, MaxY
	//   Left[i], Right[i]: child node indices, Left[i] < 0 for leaves
	//   Start[i], Count[i]: the node's point range into Order — a leaf's
	//     own points, an internal node's whole subtree (Count[0] is the
	//     number of indexed points, and Count of a parent is the sum of
	//     its children's), so whoever proves a node's rectangle holds
	//     only neighbors takes Count without visiting the subtree.
	// Sibling rectangles are disjoint on their parent's split axis (the
	// split is strict), so a point lies inside a node's rectangle exactly
	// when the node's range holds it.
	Bounds []float64
	Left   []int32
	Right  []int32
	Start  []int32
	Count  []int32
	// Order is the permutation of point indices owned by leaves.
	Order []int32
}

// Diag2 returns the squared diagonal of node ni's bounding rectangle. A
// leaf with Diag2 ≤ Eps² is an Eps cell: every pair of its points passes
// the squared-distance neighborhood test.
func (f *Flat) Diag2(ni int) float64 {
	b := f.Bounds[4*ni : 4*ni+4]
	w, h := b[2]-b[0], b[3]-b[1]
	return w*w + h*h
}

// grow resizes s to n elements, reallocating only when capacity is
// short. Contents are unspecified (callers overwrite every element).
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Workspace holds the backing arrays of a tree so repeated builds (one
// per partition on a cluster-phase leaf) reuse allocations instead of
// re-allocating. The zero value is ready to use. A Workspace serves one
// build at a time: the Tree and Flat returned by a build become invalid
// at the next one. Not safe for concurrent use.
type Workspace struct {
	tree Tree
}

// Build constructs the region KD-tree over pts into the workspace's
// arrays and returns the tree plus its array form.
func (w *Workspace) Build(pts []geom.Point, leafCap int) (*Tree, *Flat) {
	w.tree.buildInto(pts, leafCap, 0)
	return &w.tree, &w.tree.flat
}

// BuildCells is Build with the Eps-cell stop rule: regions keep
// splitting past leafCap until their diagonal is ≤ eps (or they hold
// only a handful of points), so that dense space is tiled by leaves whose
// points are mutually within eps — the candidates for dense boxes.
func (w *Workspace) BuildCells(pts []geom.Point, leafCap int, eps float64) (*Tree, *Flat) {
	w.tree.buildInto(pts, leafCap, eps)
	return &w.tree, &w.tree.flat
}

// Range invokes fn with the index of every point within eps of (cx, cy),
// excluding index self, driven entirely from the flat arrays plus the
// point coordinate columns, as the GPU kernels do. fn returning false
// stops the search early. A leaf whose rectangle the disc contains is
// reported whole, with no distance test.
func (f *Flat) Range(xs, ys []float64, cx, cy, eps float64, self int32, fn func(i int32) bool) {
	if len(f.Left) == 0 {
		return
	}
	eps2 := eps * eps
	// Explicit stack, as a GPU kernel would use; no recursion.
	var buf [64]int32
	stack := append(buf[:0], 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := f.Bounds[4*ni : 4*ni+4 : 4*ni+4]
		dx := axisDist(cx, b[0], b[2])
		dy := axisDist(cy, b[1], b[3])
		if dx*dx+dy*dy > eps2 {
			continue
		}
		if f.Left[ni] >= 0 {
			stack = append(stack, f.Left[ni], f.Right[ni])
			continue
		}
		inside := discContains(b, cx, cy, eps2)
		start, count := f.Start[ni], f.Count[ni]
		for _, i := range f.Order[start : start+count] {
			if i == self {
				continue
			}
			if !inside {
				ddx := cx - xs[i]
				ddy := cy - ys[i]
				if ddx*ddx+ddy*ddy > eps2 {
					continue
				}
			}
			if !fn(i) {
				return
			}
		}
	}
}

// CountRange returns the number of points within eps of (cx, cy),
// excluding index self, stopping early once limit is reached (limit <= 0
// counts all). It is the closure-free form of Range — no per-point
// callback indirection or captures — and a leaf whose rectangle the disc
// contains adds its count with no distance test. (Testing internal nodes
// too, to take whole subtrees, measured no faster on dense full counts
// and 11 % slower on short queries that end inside their first leaf.)
func (f *Flat) CountRange(xs, ys []float64, cx, cy, eps float64, self int32, limit int) int {
	if len(f.Left) == 0 {
		return 0
	}
	eps2 := eps * eps
	count := 0
	var buf [64]int32
	stack := append(buf[:0], 0)
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := f.Bounds[4*ni : 4*ni+4 : 4*ni+4]
		dx := axisDist(cx, b[0], b[2])
		dy := axisDist(cy, b[1], b[3])
		if dx*dx+dy*dy > eps2 {
			continue
		}
		if f.Left[ni] >= 0 {
			stack = append(stack, f.Left[ni], f.Right[ni])
			continue
		}
		if discContains(b, cx, cy, eps2) {
			count += int(f.Count[ni])
			if self >= 0 && axisDist(xs[self], b[0], b[2]) == 0 && axisDist(ys[self], b[1], b[3]) == 0 {
				count-- // the leaf holds self
			}
			if limit > 0 && count >= limit {
				return limit
			}
			continue
		}
		start, count32 := f.Start[ni], f.Count[ni]
		for _, i := range f.Order[start : start+count32] {
			if i == self {
				continue
			}
			ddx := cx - xs[i]
			ddy := cy - ys[i]
			if ddx*ddx+ddy*ddy <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
	}
	return count
}

// discContains reports whether the disc of squared radius eps2 around
// (cx, cy) contains the rectangle b = [MinX, MinY, MaxX, MaxY]: its
// farthest corner passes the neighborhood test. The test is written with
// the neighbor test's own arithmetic — a coordinate difference, squared
// and summed — and floating-point rounding is monotone, so every point
// of the rectangle passes `ddx*ddx+ddy*ddy <= eps2` bit for bit.
func discContains(b []float64, cx, cy, eps2 float64) bool {
	fx := max(cx-b[0], b[2]-cx)
	fy := max(cy-b[1], b[3]-cy)
	return fx*fx+fy*fy <= eps2
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}
