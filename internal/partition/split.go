package partition

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// MaxShadowReps is the per-cell cap of the representative-shadow
// optimization (§3.1.3): shadow cells are reduced to at most 8 points,
// selected like merge representatives.
const MaxShadowReps = 8

// SplitOptions tunes point distribution.
type SplitOptions struct {
	// ShadowReps enables the optional partitioner optimization that
	// writes at most MaxShadowReps representative points per shadow cell
	// instead of the full cell contents. It "drastically reduces the
	// amount of data written ... but may cause the merge algorithm to
	// occasionally miss the opportunity to combine clusters" (§3.1.3).
	ShadowReps bool
}

// SplitResult holds per-partition point sets.
type SplitResult struct {
	// Partitions[i] are the points in units owned by partition i.
	Partitions [][]geom.Point
	// Shadows[i] are the points of partition i's shadow region (possibly
	// reduced to representatives).
	Shadows [][]geom.Point
}

// Split distributes pts according to the plan. Every point lands in
// exactly one partition (its unit's owner) and in the shadow set of every
// partition whose shadow region covers its unit. Owned points keep input
// order; a partition's shadow points are ordered by unit, input order
// within a unit.
//
// It looks every point's unit up in the plan (Plan.unitIndexOf), then
// places the points (place).
func Split(plan *Plan, pts []geom.Point, opt SplitOptions) (*SplitResult, error) {
	return SplitRanked(plan, pts, nil, nil, opt)
}

// SplitRanked is Split for a shard counted by grid.RankedHistogramOf: h
// and rank are what it returned for pts, and each run's unit is looked up
// once instead of each point's (Plan.unitsOf). It writes the points' unit
// indices over rank, so rank is spent; a nil rank is Split.
func SplitRanked(plan *Plan, pts []geom.Point, h *grid.Histogram, rank []int32, opt SplitOptions) (*SplitResult, error) {
	unitOf, err := plan.unitsOf(pts, h, rank)
	if err != nil {
		return nil, err
	}
	return splitPoints(plan, pts, unitOf, opt), nil
}

// splitPoints places pts, whose units unitOf holds.
func splitPoints(plan *Plan, pts []geom.Point, unitOf []int32, opt SplitOptions) *SplitResult {
	var reps func(r geom.Rect, members, out []geom.Point) []geom.Point
	if opt.ShadowReps {
		reps = func(r geom.Rect, members, out []geom.Point) []geom.Point {
			return append(out, ShadowRepsRect(r, members)...)
		}
	}
	parts, shadows := place(plan, unitOf, func(i int) geom.Point { return pts[i] }, reps)
	return &SplitResult{Partitions: parts, Shadows: shadows}
}

// splitIndices is splitPoints placing each point's index in pts instead
// of the point, for a writer that encodes the regions straight from the
// shard. Representatives are picked from each shadow slot's members,
// gathered into one small reused buffer.
func splitIndices(plan *Plan, pts []geom.Point, unitOf []int32, opt SplitOptions) (parts, shadows [][]int32) {
	var reps func(r geom.Rect, members, out []int32) []int32
	if opt.ShadowReps {
		var buf []geom.Point
		reps = func(r geom.Rect, members, out []int32) []int32 {
			if len(members) <= MaxShadowReps {
				return append(out, members...)
			}
			buf = buf[:0]
			for _, i := range members {
				buf = append(buf, pts[i])
			}
			picks, n := repPicks(r, buf)
			for _, k := range picks[:n] {
				out = append(out, members[k])
			}
			return out
		}
	}
	return place(plan, unitOf, func(i int) int32 { return int32(i) }, reps)
}

// place is the split itself, whatever it places (at(i) stands for point
// i, whose unit is unitOf[i]): a stable counting sort over the plan's
// shadow slots (one slot per partition × shadow unit, numbered
// partition-major in unit order). One pass sizes every bucket, a second
// drops each item into place. With reps, each shadow slot's members are
// reduced onto their partition's shadow one slot at a time (ShadowReps).
func place[T any](plan *Plan, unitOf []int32, at func(int) T, reps func(r geom.Rect, members, out []T) []T) (parts, shadows [][]T) {
	nParts := plan.NumPartitions()
	ownedEnd := make([]int, nParts)
	slotEnd := make([]int, plan.slotOff[nParts])
	for _, x := range unitOf {
		ownedEnd[plan.owner[x]]++
		for _, slot := range plan.shadowSlots[plan.shadowStart[x]:plan.shadowStart[x+1]] {
			slotEnd[slot]++
		}
	}
	// Counts become write cursors (exclusive prefix sums); after the
	// placement pass each cursor sits at its bucket's end.
	owned := make([]T, len(unitOf))
	shadow := make([]T, cursors(slotEnd))
	cursors(ownedEnd)
	for i, x := range unitOf {
		v := at(i)
		owned[ownedEnd[plan.owner[x]]] = v
		ownedEnd[plan.owner[x]]++
		for _, slot := range plan.shadowSlots[plan.shadowStart[x]:plan.shadowStart[x+1]] {
			shadow[slotEnd[slot]] = v
			slotEnd[slot]++
		}
	}
	parts, shadows = make([][]T, nParts), make([][]T, nParts)
	ownedLo, shadowLo := 0, 0
	for j := 0; j < nParts; j++ {
		if hi := ownedEnd[j]; hi > ownedLo {
			parts[j] = owned[ownedLo:hi:hi]
			ownedLo = hi
		}
		first, last := plan.slotOff[j], plan.slotOff[j+1]
		if first == last || slotEnd[last-1] == shadowLo {
			continue
		}
		if reps == nil {
			hi := slotEnd[last-1]
			shadows[j] = shadow[shadowLo:hi:hi]
			shadowLo = hi
			continue
		}
		// The representative reduction operates region-wise. For
		// whole-cell units this is the paper's per-shadow-cell reduction;
		// for quadrant tiles of split cells it applies per tile, which is
		// what keeps a tile leaf's shadow bounded even when its cell holds
		// millions of points.
		for slot := first; slot < last; slot++ {
			hi := slotEnd[slot]
			rect := plan.Specs[j].Shadow[slot-first].Rect(plan.Grid)
			shadows[j] = reps(rect, shadow[shadowLo:hi], shadows[j])
			shadowLo = hi
		}
	}
	return parts, shadows
}

// cursors turns bucket sizes into exclusive prefix sums in place and
// returns the total.
func cursors(n []int) int {
	sum := 0
	for i, c := range n {
		n[i] = sum
		sum += c
	}
	return sum
}

// ShadowReps reduces a shadow cell's contents to at most MaxShadowReps
// points, selected against the cell's anchors.
func ShadowReps(g grid.Grid, cell grid.Coord, cellPts []geom.Point) []geom.Point {
	return ShadowRepsRect(g.CellRect(cell), cellPts)
}

// ShadowRepsRect reduces a shadow region's contents to at most
// MaxShadowReps points: the points nearest each of the region's 8
// anchors (corners and side midpoints), deduplicated, padded with the
// earliest remaining points to exactly min(len(pts), MaxShadowReps) so
// the result size is a deterministic function of the input size (the
// distributed partitioner computes file offsets from counts before
// writing).
func ShadowRepsRect(r geom.Rect, cellPts []geom.Point) []geom.Point {
	if len(cellPts) <= MaxShadowReps {
		return cellPts
	}
	picks, n := repPicks(r, cellPts)
	out := make([]geom.Point, n)
	for k, i := range picks[:n] {
		out[k] = cellPts[i]
	}
	return out
}

// repPicks returns the positions in pts, ascending, of the
// min(len(pts), MaxShadowReps) points ShadowRepsRect keeps.
func repPicks(r geom.Rect, pts []geom.Point) (picks [MaxShadowReps]int32, n int) {
	chosen := func(i int) bool { return slices.Contains(picks[:n], int32(i)) }
	mx := (r.MinX + r.MaxX) / 2
	my := (r.MinY + r.MaxY) / 2
	anchors := [8]geom.Point{
		{X: r.MinX, Y: r.MinY}, {X: r.MinX, Y: r.MaxY},
		{X: r.MaxX, Y: r.MinY}, {X: r.MaxX, Y: r.MaxY},
		{X: mx, Y: r.MinY}, {X: mx, Y: r.MaxY},
		{X: r.MinX, Y: my}, {X: r.MaxX, Y: my},
	}
	for _, a := range anchors {
		best, bestD := -1, math.Inf(1)
		for i, p := range pts {
			if d := geom.Dist2(p, a); d < bestD && !chosen(i) {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			picks[n] = int32(best)
			n++
		}
	}
	for i := 0; n < MaxShadowReps && i < len(pts); i++ {
		if !chosen(i) {
			picks[n] = int32(i)
			n++
		}
	}
	slices.Sort(picks[:n])
	return picks, n
}
