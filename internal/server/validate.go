package server

import (
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// Input validation for Submit and StreamTick. What it refuses would
// otherwise be admitted, run, and fail (or mislabel) inside the
// pipeline, where failLocked books the failure against the tenant's and
// the global breaker — a client's bad bodies would shed every tenant.
// Refused here it costs one pass over the points and no map.

// The three kinds of ErrInvalidInput, by the HTTP reason they map to.
var (
	errDuplicateID   = fmt.Errorf("%w: duplicate point ID", ErrInvalidInput)
	errInvalidPoint  = fmt.Errorf("%w: point", ErrInvalidInput)
	errInvalidParams = fmt.Errorf("%w: parameters", ErrInvalidInput)
)

// maxLeaves bounds a job's leaf count by what one process hosts: the
// cluster phase gives every leaf a goroutine, a simulated device and a
// workspace, and the tree, the plan and the sweep carry per-leaf tables,
// so cost grows with leaves whatever the input — 4 000 points take 25 ms
// and 7 MB at 64 leaves, 1 s and 221 MB at 4 096, and the process is
// OOM-killed at 100 000. 1 024 (0.16 s and 44 MB for those points) is
// twice the largest tree this repository builds (examples/treenet, 512).
const maxLeaves = 1024

func validateInput(pts []geom.Point, eps float64, minPts, leaves int) error {
	if (geom.Params{Eps: eps, MinPts: minPts}).Validate() != nil || leaves > maxLeaves {
		return fmt.Errorf("%w: eps=%v minPts=%d leaves=%d (at most %d)", errInvalidParams, eps, minPts, leaves, maxLeaves)
	}
	return validatePoints(pts, grid.New(eps))
}

// validatePoints refuses a point outside g's range (grid.InRange): the
// Eps grid's for a job, the stream engine's sub-boxes' for a tick. It
// also refuses an ID carried by two points.
func validatePoints(pts []geom.Point, g grid.Grid) error {
	if len(pts) == 0 {
		return nil
	}
	lo, hi := pts[0].ID, pts[0].ID
	for _, p := range pts {
		if !g.InRange(p) {
			return fmt.Errorf("%w %d at (%v, %v) is not finite or beyond %d cells of side %v from the origin",
				errInvalidPoint, p.ID, p.X, p.Y, grid.MaxCoord, g.Side())
		}
		lo, hi = min(lo, p.ID), max(hi, p.ID)
	}
	if dup, ok := duplicateID(pts, lo, hi); ok {
		return fmt.Errorf("%w %d", errDuplicateID, dup)
	}
	return nil
}

// duplicateID finds an ID two points share. IDs spanning at most 64 per
// point (every generated dataset's do) are marked in a bit table of that
// span, as geom.AlignByID tells duplicates; anything sparser is sorted.
func duplicateID(pts []geom.Point, lo, hi uint64) (uint64, bool) {
	if span := hi - lo; span/64 < uint64(len(pts)) {
		seen := make([]uint64, span/64+1)
		for _, p := range pts {
			w, bit := (p.ID-lo)/64, uint64(1)<<((p.ID-lo)%64)
			if seen[w]&bit != 0 {
				return p.ID, true
			}
			seen[w] |= bit
		}
		return 0, false
	}
	ids := make([]uint64, len(pts))
	for i, p := range pts {
		ids[i] = p.ID
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return ids[i], true
		}
	}
	return 0, false
}
