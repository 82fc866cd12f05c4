// Package dbscan is the exact sequential DBSCAN of Ester, Kriegel, Sander
// and Xu (KDD'96, paper §2.1): the reference Mr. Scan's output quality is
// measured against (the paper used ELKI 0.4.1; §5.1.3).
//
// It computes DBSCAN as a cell graph, after Wang, Gu and Shun
// ("Theoretically-Efficient and Practical Parallel DBSCAN", PAPERS.md).
// Points are sorted into square cells of side Eps/√2, so one cell's
// points are usually all within Eps of each other and a cell holding
// MinPts of them is all-core. Core cells are joined by an early-exit pair
// test under a union-find. Border points then take the cluster a
// sequential run would give them. The package shares no code with the
// pipeline it judges: it imports geom's point and parameter types and the
// standard library only.
package dbscan

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
)

// Params is geom.Params, kept for benchmark/ until ROADMAP item 12.
type Params = geom.Params

// IndexKind types Cluster's ignored argument, kept until ROADMAP item 12.
type IndexKind int

// IndexGrid is what benchmark/ passes Cluster until ROADMAP item 12.
const IndexGrid IndexKind = 1

// Result is the output of a clustering run.
type Result struct {
	// Labels[i] is the cluster of point i: 0..NumClusters-1, or geom.Noise.
	Labels []int
	// Core[i] reports whether point i is a core point.
	Core []bool
	// NumClusters is the number of clusters found.
	NumClusters int
}

// Cluster runs DBSCAN over pts. The labels are those of the sequential
// run that visits seeds in input order (§2.1):
//   - a cluster's ID is the rank of its lowest-index core point;
//   - a border point within Eps of cores of several clusters takes the
//     smallest of their IDs.
//
// Two points are within Eps when float64(dx*dx)+float64(dy*dy) <= Eps*Eps.
// A point with a NaN or infinite coordinate is within Eps of no other
// point: it is noise, or its own cluster at MinPts 1.
//
// The trailing IndexKind is ignored; benchmark/ passes one until ROADMAP
// item 12.
func Cluster(pts []geom.Point, params Params, _ ...IndexKind) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("dbscan: %w", err)
	}
	g := newCellGraph(pts, params.Eps)
	core := g.markCore(params.MinPts)
	labels, k := g.label(core)
	return &Result{Labels: labels, Core: core, NumClusters: k}, nil
}

// box is an axis-aligned bounding box.
type box struct{ minX, minY, maxX, maxY float64 }

// cell is one vertex of the cell graph, in the CSR layout of SNIPPETS.md's
// Cell{is_core, id, degree, start_index}: its points are
// order[start:end], core points first (ncore of them), and its neighbour
// cells are adj[adj0:adj1]. Every cell is compact: each pair of its points
// is within Eps.
type cell struct {
	box                           // of its points
	key                           uint64
	start, end, ncore, adj0, adj1 int32
}

// cellGraph is pts sorted into compact cells, with the cells that may hold
// a pair of points within Eps of each other linked as neighbours.
type cellGraph struct {
	pts    []geom.Point
	eps2   float64
	order  []int32 // point indices, grouped by cell
	cellOf []int32 // cellOf[i] is point i's cell
	cells  []cell
	adj    []int32
}

// noKey is the sort key of a point with a non-finite coordinate: such a
// point is its own cell, last in the order, and no cell's neighbour.
const noKey = math.MaxUint64

func finite(p geom.Point) bool {
	return !math.IsNaN(p.X-p.X) && !math.IsNaN(p.Y-p.Y)
}

// newCellGraph sorts pts into cells and finds each cell's neighbours.
//
// Cell (kx, ky) holds the points with floor(x/side) = kx and
// floor(y/side) = ky. side is Eps/√2, and three rules widen it so that
// two points within Eps always lie in cells at most 2 apart on each axis,
// whatever the rounding:
//   - when Eps² underflows, points up to about 2⁻⁵¹¹ apart are within
//     Eps, so side covers that reach;
//   - when Eps² overflows, every two finite points are within Eps, so
//     side is infinite and there is one cell;
//   - side is at least 2⁻³⁰ of the largest coordinate, so |x/side| ≤ 2³⁰
//     and each axis fits 32 bits of the key.
//
// A group of points sharing a key that is not compact — rounding, or a
// widened side — is split into one cell per point.
func newCellGraph(pts []geom.Point, eps float64) *cellGraph {
	g := &cellGraph{pts: pts, eps2: eps * eps}
	side := max(eps, 0x1p-510) / math.Sqrt2
	if math.IsInf(g.eps2, 1) {
		side = math.Inf(1)
	}
	for _, p := range pts {
		if finite(p) {
			side = max(side, math.Abs(p.X)/0x1p30, math.Abs(p.Y)/0x1p30)
		}
	}
	axis := func(v float64) uint64 { return uint64(int64(math.Floor(v/side)) + 1<<31) }
	type entry struct {
		key uint64
		i   int32
	}
	sorted := make([]entry, len(pts))
	for i, p := range pts {
		sorted[i] = entry{noKey, int32(i)}
		if finite(p) {
			sorted[i].key = axis(p.X)<<32 | axis(p.Y)
		}
	}
	slices.SortFunc(sorted, func(a, b entry) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.i, b.i))
	})

	g.order = make([]int32, len(pts))
	g.cellOf = make([]int32, len(pts))
	for s := 0; s < len(sorted); {
		e := s + 1
		for e < len(sorted) && sorted[e].key == sorted[s].key && sorted[s].key != noKey {
			e++
		}
		for k := s; k < e; k++ {
			g.order[k] = sorted[k].i
		}
		if !g.addCell(s, e, sorted[s].key) {
			for k := s; k < e; k++ {
				g.addCell(k, k+1, sorted[s].key)
			}
		}
		s = e
	}
	g.link()
	return g
}

// addCell makes order[start:end] a cell, unless it holds two points or
// more that are not all within Eps of each other.
func (g *cellGraph) addCell(start, end int, key uint64) bool {
	c := cell{box: box{math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1)}, key: key, start: int32(start), end: int32(end)}
	for _, i := range g.order[start:end] {
		p := g.pts[i]
		c.minX, c.minY = min(c.minX, p.X), min(c.minY, p.Y)
		c.maxX, c.maxY = max(c.maxX, p.X), max(c.maxY, p.Y)
	}
	if end-start > 1 && !g.pairWithin(c.maxX-c.minX, c.maxY-c.minY) {
		return false
	}
	for _, i := range g.order[start:end] {
		g.cellOf[i] = int32(len(g.cells))
	}
	g.cells = append(g.cells, c)
	return true
}

// link records, for each cell, the cells in its 5×5 key block whose
// bounding boxes come within Eps of its own. The cells are in key order,
// so each of the block's five columns is a key range found by a pointer
// that only moves forward: no map lookup per neighbour.
func (g *cellGraph) link() {
	var next [5]int
	for c := range g.cells {
		cl := &g.cells[c]
		cl.adj0 = int32(len(g.adj))
		for col := range next {
			lo := cl.key + uint64(col-2)<<32 - 2
			for next[col] < len(g.cells) && g.cells[next[col]].key < lo {
				next[col]++
			}
			for d := next[col]; cl.key != noKey && d < len(g.cells) && g.cells[d].key <= lo+4; d++ {
				if d != c && g.boxesWithin(cl.box, g.cells[d].box) {
					g.adj = append(g.adj, int32(d))
				}
			}
		}
		cl.adj1 = int32(len(g.adj))
	}
}

// pairWithin is the Eps test on coordinate differences dx and dy. The
// conversions forbid fusing a multiply into the add, so every caller
// rounds alike.
func (g *cellGraph) pairWithin(dx, dy float64) bool {
	return float64(dx*dx)+float64(dy*dy) <= g.eps2
}

// boxesWithin reports whether some point of box a may be within Eps of
// some point of box b. Rounding is monotone, so the gap between the boxes
// bounds every pair's difference from below and the test never misses a
// pair.
func (g *cellGraph) boxesWithin(a, b box) bool {
	return g.pairWithin(max(0, b.minX-a.maxX, a.minX-b.maxX), max(0, b.minY-a.maxY, a.minY-b.maxY))
}

// countNear counts the points of cell d's slice pts within Eps of point i,
// stopping at limit.
func (g *cellGraph) countNear(i int32, d *cell, pts []int32, limit int) int {
	p := g.pts[i]
	if !g.boxesWithin(box{p.X, p.Y, p.X, p.Y}, d.box) {
		return 0
	}
	n := 0
	for _, j := range pts {
		if q := g.pts[j]; g.pairWithin(p.X-q.X, p.Y-q.Y) {
			if n++; n >= limit {
				break
			}
		}
	}
	return n
}

// coreNear reports whether a core point of cell d is within Eps of i.
func (g *cellGraph) coreNear(i int32, d *cell) bool {
	return d.ncore > 0 && g.countNear(i, d, g.order[d.start:d.start+d.ncore], 1) > 0
}

// markCore flags every point with at least minPts points within Eps,
// itself included, and moves each cell's core points to its front. A cell
// of minPts points is all-core, since its points are within Eps of each
// other; otherwise each point counts its neighbour cells' points until
// it reaches minPts.
func (g *cellGraph) markCore(minPts int) []bool {
	core := make([]bool, len(g.pts))
	for c := range g.cells {
		cl := &g.cells[c]
		own := g.order[cl.start:cl.end]
		nbrs := g.adj[cl.adj0:cl.adj1]
		// upTo bounds every neighbourhood in the cell: below minPts, no
		// point of it is core.
		upTo := len(own)
		for _, d := range nbrs {
			upTo += int(g.cells[d].end - g.cells[d].start)
		}
		for _, i := range own {
			n := len(own) // the cell is compact: all of it is within Eps of i
			for _, d := range nbrs {
				if n >= minPts || upTo < minPts {
					break
				}
				dc := &g.cells[d]
				n += g.countNear(i, dc, g.order[dc.start:dc.end], minPts-n)
			}
			core[i] = n >= minPts
		}
		k := 0
		for j, i := range own {
			if core[i] {
				own[k], own[j] = own[j], own[k]
				k++
			}
		}
		cl.ncore = int32(k)
	}
	return core
}

// label joins neighbouring core cells that hold a pair of core points
// within Eps, numbers the components by their lowest-index core point,
// and gives each border point the smallest number among the core cells
// it reaches.
func (g *cellGraph) label(core []bool) ([]int, int) {
	parent := make([]int32, len(g.cells))
	for c := range parent {
		parent[c] = int32(c)
	}
	find := func(c int32) int32 {
		for parent[c] != c {
			parent[c] = parent[parent[c]]
			c = parent[c]
		}
		return c
	}
	for c := range g.cells {
		cl := &g.cells[c]
		for _, d := range g.adj[cl.adj0:cl.adj1] {
			if int(d) < c {
				continue
			}
			rc, rd := find(int32(c)), find(d)
			if rc == rd {
				continue
			}
			for _, i := range g.order[cl.start : cl.start+cl.ncore] {
				if g.coreNear(i, &g.cells[d]) {
					parent[max(rc, rd)] = min(rc, rd)
					break
				}
			}
		}
	}

	labels := make([]int, len(g.pts))
	cluster := make([]int, len(g.cells)) // a component's ID by its root; MaxInt for no core
	for c := range cluster {
		cluster[c] = math.MaxInt
	}
	k := 0
	for i := range labels {
		labels[i] = geom.Noise
		if !core[i] {
			continue
		}
		r := find(g.cellOf[i])
		if cluster[r] == math.MaxInt {
			cluster[r], k = k, k+1
		}
		labels[i] = cluster[r]
	}
	for c := range g.cells {
		cl := &g.cells[c]
		for _, i := range g.order[cl.start+cl.ncore : cl.end] {
			// The cell is compact: i is within Eps of its cores, if any.
			best := cluster[find(int32(c))]
			for _, d := range g.adj[cl.adj0:cl.adj1] {
				if l := cluster[find(d)]; l < best && g.coreNear(i, &g.cells[d]) {
					best = l
				}
			}
			if best != math.MaxInt {
				labels[i] = best
			}
		}
	}
	return labels, k
}
