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
// the gpusim kernels. The build is cells first, tree second: the points
// are sorted once into the cells of a grid (side just under Eps/√2 for
// BuildCells, the paper's dense-box cell) by the cells' Morton keys, the
// tree above the cells is the radix tree of the sorted keys — every split
// a grid line, found by binary search — and only a single cell that still
// has to be divided is split at the median of its points, by selection
// (nth_element). DESIGN.md "Cell-first tree" has the contract.
package kdtree

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

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
	// xs, ys are the coordinate columns of pts: the build and the range
	// queries read coordinates by index far more often than they need a
	// whole Point.
	xs, ys []float64
	flat   Flat
	// leafCap is the leaf capacity; cellDiag2 > 0 additionally demands
	// the Eps-cell stop rule (squared cell diagonal). A region of at most
	// anyRect points is a leaf whatever its rectangle.
	leafCap   int
	cellDiag2 float64
	anyRect   int
	// words is the build's one scratch array: per point, the Morton key
	// of its grid cell above idxBits bits of its index, sorted in place.
	words   []uint64
	idxBits uint
	// sorted counts the elements examined above the cell level (keying,
	// the radix sort's passes, the split searches) and scanned those
	// examined by the bounds, selection and tie passes at and below it:
	// the clock-free costs the complexity guard in the tests bounds.
	sorted, scanned int64
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
	minX, minY, w, h := t.reset(pts, leafCap, cellEps)
	if len(pts) == 0 {
		return
	}
	t.sortCells(minX, minY, gridSide(w, h, cellEps, t.axisBits()))
	t.radix(0, int32(len(pts)))
}

// reset points t at pts with every array sized and the tree empty, and
// returns the corner and extent of pts' bounding box — an extent is NaN
// when a coordinate is not finite.
func (t *Tree) reset(pts []geom.Point, leafCap int, cellEps float64) (minX, minY, w, h float64) {
	if leafCap <= 0 {
		leafCap = DefaultLeafSize
	}
	n := len(pts)
	t.pts = pts
	t.leafCap = leafCap
	t.cellDiag2 = cellEps * cellEps
	t.anyRect = leafCap
	if cellEps > 0 {
		t.anyRect = min(leafCap, cellFloor)
	}
	t.idxBits = uint(bits.Len(uint(max(n, 1) - 1)))
	t.sorted, t.scanned = 0, 0
	t.xs = grow(t.xs, n)
	t.ys = grow(t.ys, n)
	t.words = grow(t.words, n)
	f := &t.flat
	f.Order = grow(f.Order, n)
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	notFinite := 0.0 // x-x is 0 for a finite x and NaN otherwise
	for i, p := range pts {
		t.xs[i], t.ys[i] = p.X, p.Y
		minX, maxX = min(minX, p.X), max(maxX, p.X)
		minY, maxY = min(minY, p.Y), max(maxY, p.Y)
		notFinite += (p.X - p.X) + (p.Y - p.Y)
	}
	// Size the node arrays once, for leaves half full on average: what a
	// median split guarantees, and what grid lines — which can leave one
	// point on a side — keep to on the workloads' partitions (at most 0.45
	// nodes a point on SDSS, 0.19 on Twitter); past it append grows. With
	// cells, a region of up to leafCap points is split down to its cells
	// before it collapses into one leaf: room for that subtree too.
	nodes := 2*(n/((t.anyRect+1)/2)) + 1
	if cellEps > 0 {
		nodes += 2 * leafCap
	}
	f.Bounds = grow(f.Bounds, 4*nodes)[:0]
	f.Left = grow(f.Left, nodes)[:0]
	f.Right = grow(f.Right, nodes)[:0]
	f.Start = grow(f.Start, nodes)[:0]
	f.Count = grow(f.Count, nodes)[:0]
	return minX, minY, maxX - minX + notFinite, maxY - minY + notFinite
}

// axisBits is the number of bits a cell coordinate may take: two of them
// interleaved share a word with the idxBits of the point's index.
func (t *Tree) axisBits() uint { return min((64-t.idxBits)/2, 31) }

// gridSide returns the side of the grid the points are sorted into: just
// under Eps/√2 with cells, so that whatever shares a cell is mutually
// within Eps; without, 2⁻¹⁶ of the larger extent. It doubles until both
// axes fit axisBits bits. 0 means one cell holds everything: the extent
// is zero or not finite, or the side underflows.
func gridSide(w, h, cellEps float64, axisBits uint) float64 {
	extent := max(w, h)
	if !(extent > 0 && extent < math.Inf(1)) {
		return 0
	}
	side := extent / (1 << 16)
	if cellEps > 0 {
		side = cellEps * 0.7071
	}
	if side == 0 || math.IsInf(1/side, 0) {
		return 0
	}
	for limit := float64(uint64(1) << axisBits); extent/side >= limit; {
		side *= 2
	}
	return side
}

// sortCells quantises every point to its grid cell and sorts Order by
// the cells' Morton keys: afterwards the points of any 2ᵏ-aligned block
// of cells — a cell included — are one range of Order, and words holds
// the sorted keys for radix to split on.
func (t *Tree) sortCells(minX, minY, side float64) {
	words, order := t.words, t.flat.Order
	if side == 0 {
		for i := range words {
			words[i], order[i] = uint64(i), int32(i)
		}
		return
	}
	// A product, not a quotient: either is monotone in the coordinate,
	// which is all that makes a grid line a strict split.
	inv, maxCell := 1/side, uint64(1)<<t.axisBits()-1
	for i := range words {
		cx := min(uint64((t.xs[i]-minX)*inv), maxCell)
		cy := min(uint64((t.ys[i]-minY)*inv), maxCell)
		words[i] = (spread(cx)|spread(cy)<<1)<<t.idxBits | uint64(i)
	}
	t.sorted += int64(len(words))
	t.sortWords(words)
	index := uint64(1)<<t.idxBits - 1
	for i, w := range words {
		order[i] = int32(w & index)
	}
}

// spread moves bit i of a 32-bit v to bit 2i.
func spread(v uint64) uint64 {
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// sortWords sorts w by key (the bits above idxBits) in place, as far as
// radix needs it sorted: an MSD radix sort that swaps each word into its
// digit's bucket (American flag sort), takes its eight-bit digit from
// the highest bits that differ within the range — constant digits cost
// nothing — and hands short ranges to insertion sort. A bucket — the
// words under one key prefix, so an aligned block of cells — of at most
// anyRect words is left as it fell: it is in place among its siblings,
// and radix makes a leaf of any part of it without looking at its keys.
// Words of one key end in an unspecified order that depends on w alone.
func (t *Tree) sortWords(w []uint64) {
	if len(w) <= t.anyRect {
		return
	}
	t.sorted += int64(len(w))
	if len(w) <= 32 {
		for i := 1; i < len(w); i++ {
			v, j := w[i], i
			for ; j > 0 && w[j-1] > v; j-- {
				w[j] = w[j-1]
			}
			w[j] = v
		}
		return
	}
	diff := uint64(0)
	for _, v := range w[1:] {
		diff |= v ^ w[0]
	}
	diff >>= t.idxBits
	if diff == 0 {
		return
	}
	shift := t.idxBits + uint(max(bits.Len64(diff)-8, 0))
	var next, end [256]int32
	for _, v := range w {
		end[uint8(v>>shift)]++
	}
	sum := int32(0)
	for d, c := range end {
		next[d] = sum
		sum += c
		end[d] = sum
	}
	t.sorted += 2 * int64(len(w))
	for d := range next {
		for i := next[d]; i < end[d]; i = next[d] {
			v := w[i]
			for uint8(v>>shift) != uint8(d) {
				j := &next[uint8(v>>shift)]
				v, w[*j] = w[*j], v
				*j++
			}
			w[i] = v
			next[d]++
		}
	}
	if shift == t.idxBits {
		return
	}
	from := int32(0)
	for _, to := range end {
		if to-from > 1 {
			t.sortWords(w[from:to])
		}
		from = to
	}
}

// addLeaf appends a childless node over Order[start:start+count) and
// returns its index.
func (f *Flat) addLeaf(start, count int32, minX, minY, maxX, maxY float64) int32 {
	f.Bounds = append(f.Bounds, minX, minY, maxX, maxY)
	f.Left = append(f.Left, -1)
	f.Right = append(f.Right, -1)
	f.Start = append(f.Start, start)
	f.Count = append(f.Count, count)
	return int32(len(f.Left) - 1)
}

// radix builds the subtree over Order[start:end), a range of the sorted
// cells, and returns its node index. A range within one cell, or small
// enough to be a leaf whatever its rectangle, is build's; any other
// splits where its keys' highest differing bit turns — a grid line on
// one axis, so the children are ranges, their rectangles are strictly
// apart on that axis, and the node's are its children's sum and union.
// The stop rule that needs the rectangle is applied on the way back up:
// a node of at most leafCap points whose rectangle turns out to be an
// Eps cell drops the subtree just built beneath it (nodes are in
// pre-order: a truncation) and is a leaf, so every point's coordinates
// are read once however many grid lines cross its leaf.
func (t *Tree) radix(start, end int32) int32 {
	words := t.words[start:end]
	// A longer range is whole buckets, sorted or (the small ones) at least
	// in place: its ends differ where its smallest and largest keys do.
	first, last := words[0]>>t.idxBits, words[len(words)-1]>>t.idxBits
	if len(words) <= t.anyRect || first == last {
		return t.build(start, end)
	}
	f := &t.flat
	idx := f.addLeaf(start, end-start, 0, 0, 0, 0) // bounds: once the children have theirs

	bit := t.idxBits + uint(bits.Len64(first^last)-1)
	mid, _ := slices.BinarySearch(words, words[len(words)-1]>>bit<<bit)
	t.sorted += int64(bits.Len(uint(len(words))))
	left := t.radix(start, start+int32(mid))
	right := t.radix(start+int32(mid), end)

	l, r, b := f.Bounds[4*left:4*left+4], f.Bounds[4*right:4*right+4], f.Bounds[4*idx:4*idx+4]
	b[0], b[1], b[2], b[3] = min(l[0], r[0]), min(l[1], r[1]), max(l[2], r[2]), max(l[3], r[3])
	if len(words) <= t.leafCap && f.Diag2(int(idx)) <= t.cellDiag2 {
		f.Bounds = f.Bounds[:4*idx+4]
		f.Left, f.Right = f.Left[:idx+1], f.Right[:idx+1]
		f.Start, f.Count = f.Start[:idx+1], f.Count[:idx+1]
		return idx
	}
	f.Left[idx], f.Right[idx] = left, right
	return idx
}

// build recursively constructs the subtree over Order[start:end) by
// median splits and returns its node index: the bounds scan and stop rule
// of every leaf, and the splitter of a single grid cell — one holding
// more than leafCap points, or (rounding, a coarsened grid) wider than an
// Eps cell.
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
	idx := f.addLeaf(start, end-start, minX, minY, maxX, maxY)

	w, h := maxX-minX, maxY-minY
	if len(seg) <= t.leafCap && (len(seg) <= t.anyRect || w*w+h*h <= t.cellDiag2) {
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
	if mid == 0 || mid == len(seg) {
		return idx // only coordinates that are not numbers order like this
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
