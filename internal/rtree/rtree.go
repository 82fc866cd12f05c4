// Package rtree implements an R*-tree (Beckmann, Kriegel, Schneider &
// Seeger, SIGMOD'90) over 2D points.
//
// The paper positions the R*-tree as the spatial index "typically used in
// a CPU implementation of DBSCAN" (§3.2.1) — and the index PDBSCAN
// distributed across compute nodes (§2.2). This implementation provides
// the classic insertion algorithm: ChooseSubtree by minimum overlap /
// area enlargement, the R* split (axis by minimum margin sum,
// distribution by minimum overlap), and one round of forced reinsertion
// per level, which is the R*-tree's signature optimization.
//
// It backs the PDBSCAN baseline's replicated index.
package rtree

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

const (
	// MaxEntries is M, the node capacity.
	MaxEntries = 16
	// MinEntries is m ≈ 40% of M, the R*-tree recommendation.
	MinEntries = 6
	// reinsertCount is p ≈ 30% of M entries reinserted on first overflow.
	reinsertCount = 5
)

// entry is one slot of a node: either a child node (internal) or a point
// (leaf).
type entry struct {
	bounds geom.Rect
	child  *node
	point  geom.Point
	idx    int32 // point index for leaf entries
}

type node struct {
	leaf    bool
	level   int // 0 at leaves
	entries []entry
}

func (n *node) bounds() geom.Rect {
	r := geom.EmptyRect()
	for _, e := range n.entries {
		r = r.Union(e.bounds)
	}
	return r
}

// Tree is an R*-tree over points. The zero value is an empty tree ready
// for insertion.
type Tree struct {
	root *node
	size int
	// reinserted[level] guards one forced-reinsert round per level per
	// insertion, as the R* algorithm prescribes.
	reinserted map[int]bool
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &node{leaf: true}}
}

// Build bulk-constructs a tree by inserting pts in order.
func Build(pts []geom.Point) *Tree {
	t := New()
	for i, p := range pts {
		t.Insert(p, int32(i))
	}
	return t
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a root-only tree).
func (t *Tree) Height() int { return t.root.level + 1 }

// Insert adds a point with an external index.
func (t *Tree) Insert(p geom.Point, idx int32) {
	t.reinserted = map[int]bool{}
	t.insertEntry(entry{
		bounds: geom.Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y},
		point:  p,
		idx:    idx,
	}, 0)
	t.size++
}

// insertEntry places e at the given level (0 = leaf level).
func (t *Tree) insertEntry(e entry, level int) {
	leafPath := t.choosePath(e.bounds, level)
	target := leafPath[len(leafPath)-1]
	target.entries = append(target.entries, e)
	t.handleOverflow(leafPath)
}

// choosePath descends from the root to the node at `level`, choosing
// subtrees per R*: minimum overlap enlargement when the children are
// leaves, minimum area enlargement otherwise.
func (t *Tree) choosePath(r geom.Rect, level int) []*node {
	path := []*node{t.root}
	n := t.root
	for n.level > level {
		best := t.chooseSubtree(n, r)
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	childrenAreLeaves := n.level == 1
	best := 0
	bestOverlap := math.Inf(1)
	bestEnlarge := math.Inf(1)
	bestArea := math.Inf(1)
	for i, e := range n.entries {
		union := e.bounds.Union(r)
		enlarge := area(union) - area(e.bounds)
		var overlap float64
		if childrenAreLeaves {
			// Overlap enlargement against siblings.
			for j, o := range n.entries {
				if i == j {
					continue
				}
				overlap += intersectionArea(union, o.bounds) - intersectionArea(e.bounds, o.bounds)
			}
		}
		a := area(e.bounds)
		better := false
		switch {
		case childrenAreLeaves && overlap != bestOverlap:
			better = overlap < bestOverlap
		case enlarge != bestEnlarge:
			better = enlarge < bestEnlarge
		default:
			better = a < bestArea
		}
		if i == 0 || better {
			best = i
			bestOverlap = overlap
			bestEnlarge = enlarge
			bestArea = a
		}
	}
	return best
}

// handleOverflow walks the insertion path bottom-up, applying forced
// reinsertion (once per level) or the R* split to overflowing nodes.
func (t *Tree) handleOverflow(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= MaxEntries {
			t.refreshBounds(path[:i+1])
			continue
		}
		if i > 0 && !t.reinserted[n.level] {
			t.reinserted[n.level] = true
			t.reinsert(n, path[:i])
			continue
		}
		nn := split(n)
		if i == 0 {
			// Root split: grow the tree.
			newRoot := &node{level: n.level + 1}
			newRoot.entries = []entry{
				{bounds: n.bounds(), child: n},
				{bounds: nn.bounds(), child: nn},
			}
			t.root = newRoot
			return
		}
		parent := path[i-1]
		// Update n's entry bounds and add the new sibling.
		for j := range parent.entries {
			if parent.entries[j].child == n {
				parent.entries[j].bounds = n.bounds()
				break
			}
		}
		parent.entries = append(parent.entries, entry{bounds: nn.bounds(), child: nn})
	}
}

// refreshBounds tightens the parent entries along the path.
func (t *Tree) refreshBounds(path []*node) {
	for i := len(path) - 1; i >= 1; i-- {
		child := path[i]
		parent := path[i-1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].bounds = child.bounds()
				break
			}
		}
	}
}

// reinsert removes the p entries farthest from the node's center and
// reinserts them (the R* forced reinsertion).
func (t *Tree) reinsert(n *node, ancestors []*node) {
	b := n.bounds()
	cx := (b.MinX + b.MaxX) / 2
	cy := (b.MinY + b.MaxY) / 2
	sort.Slice(n.entries, func(a, b int) bool {
		return centerDist2(n.entries[a].bounds, cx, cy) < centerDist2(n.entries[b].bounds, cx, cy)
	})
	cut := len(n.entries) - reinsertCount
	removed := append([]entry(nil), n.entries[cut:]...)
	n.entries = n.entries[:cut]
	t.refreshBounds(append(append([]*node(nil), ancestors...), n))
	for _, e := range removed {
		t.insertEntry(e, n.level)
	}
}

func centerDist2(r geom.Rect, cx, cy float64) float64 {
	dx := (r.MinX+r.MaxX)/2 - cx
	dy := (r.MinY+r.MaxY)/2 - cy
	return dx*dx + dy*dy
}

// split performs the R* split: choose the axis with the minimum margin
// sum over all distributions, then the distribution with minimum overlap
// (ties by minimum total area). Returns the new right sibling.
func split(n *node) *node {
	type distribution struct {
		left, right geom.Rect
		k           int
	}
	bestFor := func(byX bool) (margin float64, dists []distribution, order []entry) {
		es := append([]entry(nil), n.entries...)
		sort.Slice(es, func(a, b int) bool {
			if byX {
				if es[a].bounds.MinX != es[b].bounds.MinX {
					return es[a].bounds.MinX < es[b].bounds.MinX
				}
				return es[a].bounds.MaxX < es[b].bounds.MaxX
			}
			if es[a].bounds.MinY != es[b].bounds.MinY {
				return es[a].bounds.MinY < es[b].bounds.MinY
			}
			return es[a].bounds.MaxY < es[b].bounds.MaxY
		})
		prefix := make([]geom.Rect, len(es)+1)
		prefix[0] = geom.EmptyRect()
		for i, e := range es {
			prefix[i+1] = prefix[i].Union(e.bounds)
		}
		suffix := make([]geom.Rect, len(es)+1)
		suffix[len(es)] = geom.EmptyRect()
		for i := len(es) - 1; i >= 0; i-- {
			suffix[i] = suffix[i+1].Union(es[i].bounds)
		}
		for k := MinEntries; k <= len(es)-MinEntries; k++ {
			l, r := prefix[k], suffix[k]
			margin += marginOf(l) + marginOf(r)
			dists = append(dists, distribution{left: l, right: r, k: k})
		}
		return margin, dists, es
	}
	mx, dx, ox := bestFor(true)
	my, dy, oy := bestFor(false)
	dists, order := dx, ox
	if my < mx {
		dists, order = dy, oy
	}
	bestK := dists[0].k
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	for _, d := range dists {
		ov := intersectionArea(d.left, d.right)
		ar := area(d.left) + area(d.right)
		if ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
			bestK, bestOverlap, bestArea = d.k, ov, ar
		}
	}
	n.entries = append(n.entries[:0], order[:bestK]...)
	return &node{
		leaf:    n.leaf,
		level:   n.level,
		entries: append([]entry(nil), order[bestK:]...),
	}
}

func area(r geom.Rect) float64 {
	if r.Empty() {
		return 0
	}
	return r.Width() * r.Height()
}

func marginOf(r geom.Rect) float64 {
	if r.Empty() {
		return 0
	}
	return 2 * (r.Width() + r.Height())
}

func intersectionArea(a, b geom.Rect) float64 {
	w := math.Min(a.MaxX, b.MaxX) - math.Max(a.MinX, b.MinX)
	h := math.Min(a.MaxY, b.MaxY) - math.Max(a.MinY, b.MinY)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Range invokes fn with the index of every point within eps of center,
// excluding index self (pass negative to include all). fn returning
// false stops the search.
func (t *Tree) Range(center geom.Point, eps float64, self int32, fn func(i int32) bool) {
	eps2 := eps * eps
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := range n.entries {
			e := &n.entries[i]
			if e.bounds.Dist2ToPoint(center) > eps2 {
				continue
			}
			if n.leaf {
				if e.idx == self {
					continue
				}
				if geom.Dist2(center, e.point) <= eps2 {
					if !fn(e.idx) {
						return
					}
				}
			} else {
				stack = append(stack, e.child)
			}
		}
	}
}

// CountRange counts points within eps of center (excluding self),
// stopping at limit (<= 0 counts all).
func (t *Tree) CountRange(center geom.Point, eps float64, self int32, limit int) int {
	count := 0
	t.Range(center, eps, self, func(int32) bool {
		count++
		return limit <= 0 || count < limit
	})
	return count
}

// SearchRect invokes fn for every point inside r.
func (t *Tree) SearchRect(r geom.Rect, fn func(i int32) bool) {
	stack := []*node{t.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := range n.entries {
			e := &n.entries[i]
			if !r.Intersects(e.bounds) {
				continue
			}
			if n.leaf {
				if r.Contains(e.point) {
					if !fn(e.idx) {
						return
					}
				}
			} else {
				stack = append(stack, e.child)
			}
		}
	}
}

// CheckInvariants verifies the structural R-tree invariants; it is meant
// for tests.
func (t *Tree) CheckInvariants() error {
	count := 0
	var walk func(n *node, isRoot bool) error
	walk = func(n *node, isRoot bool) error {
		if !isRoot && (len(n.entries) < MinEntries || len(n.entries) > MaxEntries) {
			return fmt.Errorf("rtree: node at level %d has %d entries (want %d..%d)",
				n.level, len(n.entries), MinEntries, MaxEntries)
		}
		if len(n.entries) > MaxEntries {
			return fmt.Errorf("rtree: root has %d entries (> %d)", len(n.entries), MaxEntries)
		}
		if n.leaf {
			if n.level != 0 {
				return fmt.Errorf("rtree: leaf at level %d", n.level)
			}
			count += len(n.entries)
			return nil
		}
		for _, e := range n.entries {
			if e.child == nil {
				return fmt.Errorf("rtree: internal entry without child")
			}
			if e.child.level != n.level-1 {
				return fmt.Errorf("rtree: child level %d under level %d", e.child.level, n.level)
			}
			cb := e.child.bounds()
			if !containsRect(e.bounds, cb) {
				return fmt.Errorf("rtree: entry bounds %+v do not contain child bounds %+v", e.bounds, cb)
			}
			if err := walk(e.child, false); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, true); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: tree holds %d points, size says %d", count, t.size)
	}
	return nil
}

func containsRect(outer, inner geom.Rect) bool {
	if inner.Empty() {
		return true
	}
	const slack = 1e-12
	return outer.MinX <= inner.MinX+slack && outer.MinY <= inner.MinY+slack &&
		outer.MaxX >= inner.MaxX-slack && outer.MaxY >= inner.MaxY-slack
}
