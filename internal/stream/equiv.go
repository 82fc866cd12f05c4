// Equivalence checking between the incremental labeling and batch
// DBSCAN. Exact label equality is the wrong target: DBSCAN border
// points within Eps of cores in two different clusters are legitimately
// assigned to either (the batch implementation's assignment depends on
// seed-expansion order). The right relation is cluster isomorphism on
// core points, identical noise, and a valid core witness for every
// border assignment.
package stream

import (
	"fmt"

	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/grid"
)

// Isomorphic reports whether two labelings name the same partition:
// a bijection between label sets maps a onto b, with Noise mapping to
// Noise exactly.
func Isomorphic(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	ab := make(map[int]int)
	ba := make(map[int]int)
	for i := range a {
		if (a[i] == Noise) != (b[i] == Noise) {
			return false
		}
		if a[i] == Noise {
			continue
		}
		if m, ok := ab[a[i]]; ok && m != b[i] {
			return false
		}
		if m, ok := ba[b[i]]; ok && m != a[i] {
			return false
		}
		ab[a[i]] = b[i]
		ba[b[i]] = a[i]
	}
	return true
}

// EquivalentDBSCAN checks got (a labeling of pts, Noise = -1) against a
// fresh batch DBSCAN run with the same parameters:
//
//   - noise sets are identical;
//   - restricted to core points, the labelings are cluster-isomorphic
//     (a consistent bijection between cluster IDs);
//   - every border point's got-label is witnessed by some core point
//     within Eps carrying that label.
//
// A nil error means got is a valid DBSCAN labeling of pts.
func EquivalentDBSCAN(pts []geom.Point, eps float64, minPts int, got []int) error {
	if len(got) != len(pts) {
		return fmt.Errorf("stream: equivalence: %d labels for %d points", len(got), len(pts))
	}
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: eps, MinPts: minPts})
	if err != nil {
		return fmt.Errorf("stream: equivalence: batch oracle: %w", err)
	}
	for i := range pts {
		if (ref.Labels[i] == Noise) != (got[i] == Noise) {
			return fmt.Errorf("stream: equivalence: %v: batch label %d vs stream label %d (noise mismatch)",
				pts[i], ref.Labels[i], got[i])
		}
	}
	// Core isomorphism.
	r2g := make(map[int]int)
	g2r := make(map[int]int)
	for i := range pts {
		if !ref.Core[i] {
			continue
		}
		r, g := ref.Labels[i], got[i]
		if g == Noise {
			return fmt.Errorf("stream: equivalence: core %v labeled noise by stream", pts[i])
		}
		if m, ok := r2g[r]; ok && m != g {
			return fmt.Errorf("stream: equivalence: batch cluster %d maps to both stream %d and %d (at %v)",
				r, m, g, pts[i])
		}
		if m, ok := g2r[g]; ok && m != r {
			return fmt.Errorf("stream: equivalence: stream cluster %d maps to both batch %d and %d (at %v)",
				g, m, r, pts[i])
		}
		r2g[r] = g
		g2r[g] = r
	}
	// Border witness: the assigned cluster must own a core within Eps.
	// Cells of the engine's side keep every such core in the 3×3 scan.
	idx := grid.NewIndex(grid.New(eps), pts)
	eps2 := eps * eps
	for i := range pts {
		if ref.Core[i] || got[i] == Noise {
			continue
		}
		witnessed := false
		idx.Neighbors(pts[i], eps, int32(i), func(j int32) {
			if ref.Core[j] && got[j] == got[i] && geom.Dist2(pts[i], pts[j]) <= eps2 {
				witnessed = true
			}
		})
		if !witnessed {
			return fmt.Errorf("stream: equivalence: border %v assigned stream cluster %d with no core witness within eps",
				pts[i], got[i])
		}
	}
	return nil
}
