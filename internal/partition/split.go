package partition

import (
	"fmt"
	"math"

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
// It is a stable counting sort over the plan's shadow slots (one slot per
// partition × shadow unit, numbered partition-major in unit order): one
// pass sizes every bucket, a second drops each point into place.
func Split(plan *Plan, pts []geom.Point, opt SplitOptions) (*SplitResult, error) {
	nParts := plan.NumPartitions()
	unitOf := make([]int32, len(pts))
	ownedEnd := make([]int, nParts)
	slotEnd := make([]int, plan.slotOff[nParts])
	for i, p := range pts {
		x := plan.unitIndexOf(p)
		if x < 0 {
			return nil, fmt.Errorf("partition: point %v in cell %v owned by no partition (stale plan?)", p, plan.Grid.CellOf(p))
		}
		unitOf[i] = int32(x)
		ownedEnd[plan.owner[x]]++
		for _, slot := range plan.shadowSlots[plan.shadowStart[x]:plan.shadowStart[x+1]] {
			slotEnd[slot]++
		}
	}
	// Counts become write cursors (exclusive prefix sums); after the
	// placement pass each cursor sits at its bucket's end.
	owned := make([]geom.Point, len(pts))
	shadow := make([]geom.Point, cursors(slotEnd))
	cursors(ownedEnd)
	for i, p := range pts {
		x := unitOf[i]
		owned[ownedEnd[plan.owner[x]]] = p
		ownedEnd[plan.owner[x]]++
		for _, slot := range plan.shadowSlots[plan.shadowStart[x]:plan.shadowStart[x+1]] {
			shadow[slotEnd[slot]] = p
			slotEnd[slot]++
		}
	}
	res := &SplitResult{
		Partitions: make([][]geom.Point, nParts),
		Shadows:    make([][]geom.Point, nParts),
	}
	ownedLo, shadowLo := 0, 0
	for j := 0; j < nParts; j++ {
		if hi := ownedEnd[j]; hi > ownedLo {
			res.Partitions[j] = owned[ownedLo:hi:hi]
			ownedLo = hi
		}
		first, last := plan.slotOff[j], plan.slotOff[j+1]
		if first == last || slotEnd[last-1] == shadowLo {
			continue
		}
		if !opt.ShadowReps {
			hi := slotEnd[last-1]
			res.Shadows[j] = shadow[shadowLo:hi:hi]
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
			res.Shadows[j] = append(res.Shadows[j], ShadowRepsRect(rect, shadow[shadowLo:hi])...)
			shadowLo = hi
		}
	}
	return res, nil
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
	chosen := make(map[int]bool, MaxShadowReps)
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
		for i, p := range cellPts {
			if chosen[i] {
				continue
			}
			if d := geom.Dist2(p, a); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			chosen[best] = true
		}
	}
	for i := 0; len(chosen) < MaxShadowReps && i < len(cellPts); i++ {
		chosen[i] = true
	}
	out := make([]geom.Point, 0, MaxShadowReps)
	for i, p := range cellPts {
		if chosen[i] {
			out = append(out, p)
		}
	}
	return out
}
