// Package grid implements the Eps grid that underlies Mr. Scan's
// partitioner and merge phases (§3.1.2), and the stream engine's cells.
//
// The input space is divided into square cells of side a hair over Eps
// (New). Partitions are unions of grid cells, which guarantees each
// partition's longest distance across exceeds Eps (the first
// "profitability" constraint), and makes the shadow region of a partition
// exactly the set of 8-neighbor cells not in the partition: any point
// InRange within Eps of a partition boundary lies in an adjacent cell.
//
// A Histogram, the per-cell point counts the partitioner reduces to its
// root, is a table of runs sorted by cell key: a leaf builds it with one
// radix sort of packed cell keys, Sum merges sorted children, and the
// root's plan reads it in order, so no hash table lies on that path.
package grid

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geom"
)

// Coord identifies one grid cell. Cell (cx,cy) covers the half-open
// square [cx·s, (cx+1)·s) × [cy·s, (cy+1)·s) of the grid's side s.
type Coord struct {
	CX, CY int32
}

// String renders the coordinate for logs.
func (c Coord) String() string { return fmt.Sprintf("cell(%d,%d)", c.CX, c.CY) }

// Less orders coordinates in the partitioner's iteration order: first
// along the y axis, then along the x axis (paper §3.1.2), i.e.
// column-major with x as the slow axis.
func (c Coord) Less(o Coord) bool {
	if c.CX != o.CX {
		return c.CX < o.CX
	}
	return c.CY < o.CY
}

// Key packs the cell into one integer whose unsigned order is Less's
// (x slow, y fast): flipping the sign bits maps int32 order onto uint32
// order. Sorted cell tables (partition units, merge summaries) key on it.
func (c Coord) Key() uint64 {
	return uint64(uint32(c.CX)^(1<<31))<<32 | uint64(uint32(c.CY)^(1<<31))
}

// Neighbors returns the 8 surrounding cells (Moore neighborhood) in a
// deterministic order.
func (c Coord) Neighbors() [8]Coord {
	return [8]Coord{
		{c.CX - 1, c.CY - 1}, {c.CX - 1, c.CY}, {c.CX - 1, c.CY + 1},
		{c.CX, c.CY - 1}, {c.CX, c.CY + 1},
		{c.CX + 1, c.CY - 1}, {c.CX + 1, c.CY}, {c.CX + 1, c.CY + 1},
	}
}

// Grid maps points to square cells. The zero value is unusable; construct
// with New.
type Grid struct {
	side float64
}

// New returns the grid for eps-neighbourhood search: its cells are a
// little wider than eps, so that the 3×3 block around a point's cell
// holds every point within eps of it. At side exactly eps it need not:
// two points whose Dist2 rounds to at most eps² may be up to a few ulps
// more than eps apart, and x/eps rounds too, so such a pair can straddle
// a cell (0 and 0.75 apart from a point an ulp below 0, at eps 0.75,
// fall in cells -1 and 1). With a slack of 2⁻²⁰ a pair within eps lies
// in adjacent cells for every point InRange, while eps² neither
// underflows nor overflows. eps must be positive.
func New(eps float64) Grid {
	if eps <= 0 {
		panic(fmt.Sprintf("grid: non-positive eps %v", eps))
	}
	return Grid{side: eps * (1 + 0x1p-20)}
}

// Side returns the cell side length: New's eps, widened by the slack.
func (g Grid) Side() float64 { return g.side }

// MaxCoord bounds |coordinate|/side for a point InRange, at half of what
// a Coord's int32 holds: a cell index, its neighbours' and the difference
// of any two then fit, with room for the rounding of the division.
const MaxCoord = 1 << 30

// InRange reports whether both of p's coordinates are finite (NaN fails
// every comparison) and lie fewer than MaxCoord cells from the origin.
// Outside that range CellOf saturates: far-apart points can share a cell.
func (g Grid) InRange(p geom.Point) bool {
	reach := MaxCoord * g.side
	return math.Abs(p.X) < reach && math.Abs(p.Y) < reach
}

// RangeError refuses a point outside a grid's range (InRange).
// RankedHistogramOf returns it, so every batch front door refuses such a
// point where it first reads the input: RunPoints and mrscan.Run at the
// partition read, distrib at its plan.
type RangeError struct {
	Point geom.Point
	Side  float64 // the grid's
}

func (e *RangeError) Error() string {
	return fmt.Sprintf("grid: point %d at (%v, %v) is not finite or not within %d cells of side %v of the origin",
		e.Point.ID, e.Point.X, e.Point.Y, MaxCoord, e.Side)
}

// CellOf returns the cell containing p.
func (g Grid) CellOf(p geom.Point) Coord {
	return Coord{
		CX: int32(math.Floor(p.X / g.side)),
		CY: int32(math.Floor(p.Y / g.side)),
	}
}

// CellRect returns the rectangle covered by cell c.
func (g Grid) CellRect(c Coord) geom.Rect {
	return geom.Rect{
		MinX: float64(c.CX) * g.side,
		MinY: float64(c.CY) * g.side,
		MaxX: float64(c.CX+1) * g.side,
		MaxY: float64(c.CY+1) * g.side,
	}
}

// Anchors returns the 8 merge anchors of cell c: its 4 corners and the 4
// midpoints of its sides. Representative points are the cluster core
// points closest to each anchor (§3.3.1); the geometric argument in the
// paper's Figure 5 shows 8 anchors suffice for a cell of side Eps;
// DESIGN.md "Cell geometries" says what New's slack side changes.
func (g Grid) Anchors(c Coord) [8]geom.Point {
	r := g.CellRect(c)
	mx := (r.MinX + r.MaxX) / 2
	my := (r.MinY + r.MaxY) / 2
	return [8]geom.Point{
		{X: r.MinX, Y: r.MinY}, // corners
		{X: r.MinX, Y: r.MaxY},
		{X: r.MaxX, Y: r.MinY},
		{X: r.MaxX, Y: r.MaxY},
		{X: mx, Y: r.MinY}, // side midpoints
		{X: mx, Y: r.MaxY},
		{X: r.MinX, Y: my},
		{X: r.MaxX, Y: my},
	}
}

// Index groups point indices by cell, supporting neighborhood queries.
// It doubles as a spatial index for DBSCAN: the Eps-neighborhood of a
// point is contained in its cell plus the 8 neighbors.
type Index struct {
	g     Grid
	pts   []geom.Point
	cells map[Coord][]int32
}

// NewIndex builds a cell index over pts. The index keeps a reference to
// pts; callers must not mutate the slice afterwards.
func NewIndex(g Grid, pts []geom.Point) *Index {
	idx := &Index{g: g, pts: pts, cells: make(map[Coord][]int32)}
	for i, p := range pts {
		c := g.CellOf(p)
		idx.cells[c] = append(idx.cells[c], int32(i))
	}
	return idx
}

// Grid returns the underlying grid.
func (idx *Index) Grid() Grid { return idx.g }

// CellPoints returns the indices of points in cell c (nil if empty).
func (idx *Index) CellPoints(c Coord) []int32 { return idx.cells[c] }

// NonEmptyCells returns all non-empty cells in iteration order.
func (idx *Index) NonEmptyCells() []Coord {
	cells := make([]Coord, 0, len(idx.cells))
	for c := range idx.cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].Less(cells[j]) })
	return cells
}

// Neighbors invokes fn with the index of every point within eps of p
// (excluding p itself when p is one of the indexed points and self >= 0).
// eps must be at most the eps the grid was made for (New) for the 3×3
// cell scan to be complete.
func (idx *Index) Neighbors(p geom.Point, eps float64, self int32, fn func(i int32)) {
	if eps > idx.g.side*(1+1e-12) {
		panic(fmt.Sprintf("grid: query eps %v exceeds cell side %v", eps, idx.g.side))
	}
	eps2 := eps * eps
	c := idx.g.CellOf(p)
	scan := func(cc Coord) {
		for _, i := range idx.cells[cc] {
			if i == self {
				continue
			}
			if geom.Dist2(p, idx.pts[i]) <= eps2 {
				fn(i)
			}
		}
	}
	scan(c)
	for _, n := range c.Neighbors() {
		scan(n)
	}
}

// CountNeighbors returns |Eps-neighborhood of p| excluding p itself, with
// early exit once the count reaches limit (limit <= 0 means count all).
func (idx *Index) CountNeighbors(p geom.Point, eps float64, self int32, limit int) int {
	count := 0
	if eps > idx.g.side*(1+1e-12) {
		panic(fmt.Sprintf("grid: query eps %v exceeds cell side %v", eps, idx.g.side))
	}
	eps2 := eps * eps
	c := idx.g.CellOf(p)
	neighbors := c.Neighbors()
	cells := [9]Coord{c}
	copy(cells[1:], neighbors[:])
	for _, cc := range cells {
		for _, i := range idx.cells[cc] {
			if i == self {
				continue
			}
			if geom.Dist2(p, idx.pts[i]) <= eps2 {
				count++
				if limit > 0 && count >= limit {
					return count
				}
			}
		}
	}
	return count
}
