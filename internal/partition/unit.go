package partition

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// Unit is one atom of partition ownership: a whole Eps grid cell
// (grid.New; Depth 0), or one of the 4^Depth uniform sub-cells of a cell
// that the planner subdivided.
//
// Subdivision implements the paper's §5.1.2 suggestion — at 6.5 billion
// points the slowest cluster process executes "a partition made up of a
// single dense grid cell" which "cannot be subdivided further ... or we
// need to subdivide grid cells when they have extremely high density."
// Splitting a hot cell into uniform quadrant tiles lets several leaves
// share it.
//
// Correctness survives subdivision: a sub-cell's points still have their
// complete Eps-neighborhoods inside the owning cell plus its 8 neighbors
// (the sub-cell is contained in the cell), so a partition's shadow region
// is every unit of those cells it does not own. The merge phase is
// unchanged — summaries stay keyed by whole Eps cells, and because every
// leaf that owns any unit of a cell also shadows the entire 3×3 cell
// neighborhood, its core/non-core classification of its own points
// remains exact.
type Unit struct {
	Cell  grid.Coord
	Depth uint8
	// Path encodes Depth quadrant choices, two bits per level,
	// most-significant level first: bit0 = east half, bit1 = north half.
	Path uint16
}

// MaxSplitDepth bounds subdivision: 4 levels = 256 tiles per cell, tile
// side 1/16 of the cell's.
const MaxSplitDepth = 4

// CellUnit returns the whole-cell unit of c.
func CellUnit(c grid.Coord) Unit { return Unit{Cell: c} }

// String renders the unit for logs.
func (u Unit) String() string {
	if u.Depth == 0 {
		return u.Cell.String()
	}
	return fmt.Sprintf("%v/d%d-%03x", u.Cell, u.Depth, u.Path)
}

// Less orders units in the partitioner's iteration order: cells in grid
// iteration order; within a split cell, quadrant tiles by path.
func (u Unit) Less(o Unit) bool { return compareUnits(u, o) < 0 }

// compareUnits is Less as a three-way comparison on the packed cell key —
// the form slices.SortFunc and slices.BinarySearchFunc take.
func compareUnits(a, b Unit) int {
	if ka, kb := a.Cell.Key(), b.Cell.Key(); ka != kb {
		return cmp.Compare(ka, kb)
	}
	if a.Depth != b.Depth {
		return cmp.Compare(a.Depth, b.Depth)
	}
	return cmp.Compare(a.Path, b.Path)
}

// Rect returns the region covered by the unit.
func (u Unit) Rect(g grid.Grid) geom.Rect {
	r := g.CellRect(u.Cell)
	for level := int(u.Depth) - 1; level >= 0; level-- {
		q := (u.Path >> (2 * level)) & 3
		mx := (r.MinX + r.MaxX) / 2
		my := (r.MinY + r.MaxY) / 2
		if q&1 != 0 {
			r.MinX = mx
		} else {
			r.MaxX = mx
		}
		if q&2 != 0 {
			r.MinY = my
		} else {
			r.MaxY = my
		}
	}
	return r
}

// UnitOf returns the depth-level unit containing p.
func UnitOf(g grid.Grid, p geom.Point, depth uint8) Unit {
	c := g.CellOf(p)
	u := Unit{Cell: c, Depth: depth}
	if depth == 0 {
		return u
	}
	r := g.CellRect(c)
	var path uint16
	for level := 0; level < int(depth); level++ {
		mx := (r.MinX + r.MaxX) / 2
		my := (r.MinY + r.MaxY) / 2
		var q uint16
		if p.X >= mx {
			q |= 1
			r.MinX = mx
		} else {
			r.MaxX = mx
		}
		if p.Y >= my {
			q |= 2
			r.MinY = my
		} else {
			r.MaxY = my
		}
		path = path<<2 | q
	}
	u.Path = path
	return u
}

// DepthFor picks the subdivision depth that brings an evenly-spread hot
// cell of count points under threshold points per tile, capped at
// MaxSplitDepth. Returns 0 when no split is needed.
func DepthFor(count, threshold int64) uint8 {
	if threshold <= 0 || count <= threshold {
		return 0
	}
	depth := uint8(0)
	for count > threshold && depth < MaxSplitDepth {
		count = (count + 3) / 4
		depth++
	}
	return depth
}

// UnitHistogram counts points per unit under a per-cell depth assignment.
type UnitHistogram struct {
	Counts map[Unit]int64
	// Depth[c] is the subdivision depth of cell c (absent = 0).
	Depth map[grid.Coord]uint8
}

// NewUnitHistogram returns an empty unit histogram.
func NewUnitHistogram() *UnitHistogram {
	return &UnitHistogram{Counts: make(map[Unit]int64), Depth: make(map[grid.Coord]uint8)}
}

// QuadCounts tallies pts into units for the given per-cell depths (cells
// absent from depth get depth 0). This is what partitioner leaves compute
// for the hot cells the root announces.
func QuadCounts(g grid.Grid, pts []geom.Point, depth map[grid.Coord]uint8) map[Unit]int64 {
	out := make(map[Unit]int64)
	for _, p := range pts {
		c := g.CellOf(p)
		out[UnitOf(g, p, depth[c])]++
	}
	return out
}

// Total returns the total point count.
func (uh *UnitHistogram) Total() int64 {
	var t int64
	for _, n := range uh.Counts {
		t += n
	}
	return t
}

// unitCount is one histogram entry on its way into a unitTable.
type unitCount struct {
	u Unit
	n int64
}

// unitTable is the layout the planner and Split work on — the sorted cell
// array of grid DBSCAN (Wang, Gu & Shun): the non-empty units in
// iteration order, their point counts in a parallel slice, and one hash
// from a cell to the index of its first unit. The units of a cell are
// adjacent, a partition is an index range, and every later step is an
// index sweep that touches no Go map.
type unitTable struct {
	units  []Unit
	counts []int64
	// slots is an open-addressing hash (linear probing, power-of-two
	// size, at most half full): a slot holds 1 + the index of the first
	// unit of a cell, 0 when free. It is one allocation whatever the unit
	// count; a Go map allocates per 1024-entry table.
	slots []int32
	shift uint
}

// sortEntries orders entries by compareUnits and returns them (in entries
// or in a scratch copy): a byte-wise LSD radix sort on the packed cell key
// — skipping the bytes all keys share, typically four of eight — followed
// by a comparison sort of each split cell's few tiles. Only the hot-cell
// path needs it; a plain grid.Histogram arrives sorted.
func sortEntries(entries []unitCount) []unitCount {
	allOnes, anyOnes := ^uint64(0), uint64(0) // bits set in every key, in some key
	for _, e := range entries {
		k := e.u.Cell.Key()
		allOnes &= k
		anyOnes |= k
	}
	src, dst := entries, make([]unitCount, len(entries))
	for shift := 0; shift < 64; shift += 8 {
		if (allOnes^anyOnes)>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for _, e := range src {
			next[e.u.Cell.Key()>>shift&0xff]++
		}
		cursors(next[:])
		for _, e := range src {
			b := e.u.Cell.Key() >> shift & 0xff
			dst[next[b]] = e
			next[b]++
		}
		src, dst = dst, src
	}
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j].u.Cell == src[i].u.Cell {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], func(a, b unitCount) int { return compareUnits(a.u, b.u) })
		}
		i = j
	}
	return src
}

// unitTableOf sorts entries (and may reorder them) into a table. Entries
// must be distinct units with positive counts.
func unitTableOf(entries []unitCount) *unitTable {
	entries = sortEntries(entries)
	units, counts := make([]Unit, len(entries)), make([]int64, len(entries))
	for i, e := range entries {
		units[i], counts[i] = e.u, e.n
	}
	return newUnitTable(units, counts)
}

// newUnitTable indexes units, distinct and already in iteration order,
// with their positive counts; the table keeps both slices.
func newUnitTable(units []Unit, counts []int64) *unitTable {
	t := &unitTable{units: units, counts: counts}
	bits := uint(4)
	for 1<<bits < 2*len(units) {
		bits++
	}
	t.slots = make([]int32, 1<<bits)
	t.shift = 64 - bits
	for i, u := range t.units {
		if i > 0 && t.units[i-1].Cell == u.Cell {
			continue
		}
		h := t.slot(u.Cell)
		for t.slots[h] != 0 {
			h = (h + 1) & (len(t.slots) - 1)
		}
		t.slots[h] = int32(i + 1)
	}
	return t
}

// slot is the home slot of cell c (Fibonacci hashing of the packed key).
func (t *unitTable) slot(c grid.Coord) int {
	return int(c.Key() * 0x9E3779B97F4A7C15 >> t.shift)
}

// firstOf returns the index of cell c's first unit, or -1 when the cell
// is empty.
func (t *unitTable) firstOf(c grid.Coord) int {
	for h := t.slot(c); ; h = (h + 1) & (len(t.slots) - 1) {
		s := int(t.slots[h])
		if s == 0 {
			return -1
		}
		if t.units[s-1].Cell == c {
			return s - 1
		}
	}
}

// indexOf returns u's index, or -1 when the table does not hold it.
func (t *unitTable) indexOf(u Unit) int {
	f := t.firstOf(u.Cell)
	if f < 0 || t.units[f] == u {
		return f
	}
	k, ok := slices.BinarySearchFunc(t.units[f:], u, compareUnits)
	if !ok {
		return -1
	}
	return f + k
}
