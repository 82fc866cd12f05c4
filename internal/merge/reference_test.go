package merge

// The map-based merge representation this package used until the flat
// Summary replaced it, kept verbatim as the differential oracle: the flat
// BuildSummaries/Combine must produce, level by level, summaries whose
// canonical encoding is byte-identical to toFlat of what this code
// produces (differential_test.go).

import (
	"fmt"
	"sort"

	"repro/internal/dsu"
	"repro/internal/geom"
	"repro/internal/grid"
)

// refCellData is one cluster's presence in one grid cell.
type refCellData struct {
	// Reps are at most MaxReps representative core points.
	Reps []geom.Point
	// OwnedNonCore holds non-core member points classified by the cell's
	// owner (complete-information) view, keyed by point ID.
	OwnedNonCore map[uint64]geom.Point
	// ShadowNonCore holds non-core member points classified by shadow
	// (incomplete-information) views.
	ShadowNonCore map[uint64]geom.Point
	// Owned reports whether this summary includes the owner leaf's copy
	// of the cell.
	Owned bool
}

func newRefCellData() *refCellData {
	return &refCellData{
		OwnedNonCore:  make(map[uint64]geom.Point),
		ShadowNonCore: make(map[uint64]geom.Point),
	}
}

// Points returns the number of points carried for the cell.
func (cd *refCellData) Points() int {
	return len(cd.Reps) + len(cd.OwnedNonCore) + len(cd.ShadowNonCore)
}

// refSummary is one cluster's merge-phase representation.
type refSummary struct {
	// Key identifies the summary; after merging it is the smallest
	// member key.
	Key ClusterKey
	// Members lists every original (leaf, local) cluster merged into
	// this summary — the sweep phase maps each back to the global ID.
	Members []ClusterKey
	// Cells maps grid cells to the cluster's per-cell data.
	Cells map[grid.Coord]*refCellData
}

// refBuildSummaries converts one leaf's clustering result into summaries.
// pts are the leaf's points — the partition's owned points first, then
// the shadow points: ownedCount says how many are owned. labels and core
// are gdbscan's output over pts; numClusters is its cluster count.
func refBuildSummaries(g grid.Grid, leaf int, pts []geom.Point, ownedCount int, labels []int32, core []bool, numClusters int) ([]*refSummary, error) {
	if len(pts) != len(labels) || len(pts) != len(core) {
		return nil, fmt.Errorf("merge: %d points with %d labels / %d core flags", len(pts), len(labels), len(core))
	}
	if ownedCount < 0 || ownedCount > len(pts) {
		return nil, fmt.Errorf("merge: ownedCount %d out of range", ownedCount)
	}
	sums := make([]*refSummary, numClusters)
	for i := range sums {
		key := ClusterKey{Leaf: int32(leaf), Local: int32(i)}
		sums[i] = &refSummary{Key: key, Members: []ClusterKey{key}, Cells: make(map[grid.Coord]*refCellData)}
	}
	// Collect per (cluster, cell) core candidates for rep selection.
	type sc struct {
		cluster int32
		cell    grid.Coord
	}
	coreCandidates := make(map[sc][]geom.Point)
	for i, p := range pts {
		l := labels[i]
		if l < 0 {
			continue // noise
		}
		if int(l) >= numClusters {
			return nil, fmt.Errorf("merge: label %d out of range (%d clusters)", l, numClusters)
		}
		c := g.CellOf(p)
		cd := sums[l].Cells[c]
		if cd == nil {
			cd = newRefCellData()
			sums[l].Cells[c] = cd
		}
		owned := i < ownedCount
		if owned {
			cd.Owned = true
		}
		if core[i] {
			coreCandidates[sc{l, c}] = append(coreCandidates[sc{l, c}], p)
		} else if owned {
			cd.OwnedNonCore[p.ID] = p
		} else {
			cd.ShadowNonCore[p.ID] = p
		}
	}
	for k, cand := range coreCandidates {
		sums[k.cluster].Cells[k.cell].Reps = refSelectReps(g, k.cell, cand)
	}
	// Drop clusters with no presence (can happen if every member was a
	// shadow point that another label claimed — keep them anyway if they
	// have cells; empty ones would confuse upstream merging).
	out := sums[:0]
	for _, s := range sums {
		if len(s.Cells) > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// refSelectReps picks at most MaxReps representative points: for each of the
// cell's 8 anchors, the candidate core point nearest it (deduplicated by
// ID). The Figure 5 invariant follows: every core point of the cluster in
// this cell lies within Eps of at least one selected representative.
func refSelectReps(g grid.Grid, cell grid.Coord, cand []geom.Point) []geom.Point {
	if len(cand) <= MaxReps {
		out := append([]geom.Point(nil), cand...)
		sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
		return out
	}
	anchors := g.Anchors(cell)
	chosen := make(map[uint64]geom.Point, MaxReps)
	for _, a := range anchors {
		best := -1
		bestD := 0.0
		for i, p := range cand {
			d := geom.Dist2(p, a)
			if best < 0 || d < bestD || (d == bestD && p.ID < cand[best].ID) {
				best, bestD = i, d
			}
		}
		chosen[cand[best].ID] = cand[best]
	}
	out := make([]geom.Point, 0, len(chosen))
	for _, p := range chosen {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// refCombine merges the summary groups arriving at one tree node (one group
// per child) and returns the reduced summary list. It applies the three
// overlap rules per shared cell and fuses merged clusters' summaries.
func refCombine(g grid.Grid, eps float64, groups [][]*refSummary) []*refSummary {
	var all []*refSummary
	for _, grp := range groups {
		all = append(all, grp...)
	}
	if len(all) <= 1 {
		return all
	}
	eps2 := eps * eps

	// Cell index over all incoming summaries.
	type ref struct {
		sum *refSummary
		cd  *refCellData
	}
	cellIndex := make(map[grid.Coord][]ref)
	for _, s := range all {
		for c, cd := range s.Cells {
			cellIndex[c] = append(cellIndex[c], ref{s, cd})
		}
	}

	uf := dsu.NewKeyed[ClusterKey]()
	for _, s := range all {
		uf.Add(s.Key)
	}
	for _, refs := range cellIndex {
		if len(refs) < 2 {
			continue
		}
		// Rule 1: core/core overlap via representatives.
		for i := 0; i < len(refs); i++ {
			for j := i + 1; j < len(refs); j++ {
				if uf.Same(refs[i].sum.Key, refs[j].sum.Key) {
					continue
				}
				if repsWithinEps(refs[i].cd.Reps, refs[j].cd.Reps, eps2) {
					uf.Union(refs[i].sum.Key, refs[j].sum.Key)
				}
			}
		}
		// Rule 2: non-core/core overlap. Points non-core only in shadow
		// views (the owner saw them as core, or had no record) within Eps
		// of an owner-side representative merge the clusters.
		ownerNonCore := make(map[uint64]bool)
		for _, r := range refs {
			for id := range r.cd.OwnedNonCore {
				ownerNonCore[id] = true
			}
		}
		for i := 0; i < len(refs); i++ {
			if len(refs[i].cd.ShadowNonCore) == 0 {
				continue
			}
			for j := 0; j < len(refs); j++ {
				if i == j || !refs[j].cd.Owned || len(refs[j].cd.Reps) == 0 {
					continue
				}
				if uf.Same(refs[i].sum.Key, refs[j].sum.Key) {
					continue
				}
				for id, p := range refs[i].cd.ShadowNonCore {
					if ownerNonCore[id] {
						continue // genuinely non-core: rule 3 territory
					}
					if pointNearReps(p, refs[j].cd.Reps, eps2) {
						uf.Union(refs[i].sum.Key, refs[j].sum.Key)
						break
					}
				}
			}
		}
		// Rule 3: drop duplicate non-core points from shadow copies
		// ("we resolve this case by removing all duplicate non-core
		// points from the shadow region").
		for _, r := range refs {
			for id := range r.cd.ShadowNonCore {
				if ownerNonCore[id] {
					delete(r.cd.ShadowNonCore, id)
				}
			}
		}
	}

	// Fuse summaries by union-find root.
	byRoot := make(map[ClusterKey][]*refSummary)
	for _, s := range all {
		root := uf.Find(s.Key)
		byRoot[root] = append(byRoot[root], s)
	}
	out := make([]*refSummary, 0, len(byRoot))
	for _, members := range byRoot {
		out = append(out, refFuse(g, members))
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Key.Less(out[b].Key) })
	return out
}

// refFuse combines the summaries of one merged cluster.
func refFuse(g grid.Grid, sums []*refSummary) *refSummary {
	if len(sums) == 1 {
		return sums[0]
	}
	merged := &refSummary{Cells: make(map[grid.Coord]*refCellData)}
	minKey := sums[0].Key
	for _, s := range sums {
		if s.Key.Less(minKey) {
			minKey = s.Key
		}
		merged.Members = append(merged.Members, s.Members...)
		for c, cd := range s.Cells {
			dst := merged.Cells[c]
			if dst == nil {
				dst = newRefCellData()
				merged.Cells[c] = dst
			}
			dst.Owned = dst.Owned || cd.Owned
			dst.Reps = append(dst.Reps, cd.Reps...)
			for id, p := range cd.OwnedNonCore {
				dst.OwnedNonCore[id] = p
				// A point non-core in the owner's view trumps any shadow
				// classification (rule 3 within the fused cluster).
				delete(dst.ShadowNonCore, id)
			}
			for id, p := range cd.ShadowNonCore {
				if _, dup := dst.OwnedNonCore[id]; !dup {
					dst.ShadowNonCore[id] = p
				}
			}
		}
	}
	merged.Key = minKey
	sort.Slice(merged.Members, func(a, b int) bool { return merged.Members[a].Less(merged.Members[b]) })
	// Re-reduce representatives so upstream payloads stay bounded; the
	// Figure 5 invariant is preserved under re-selection from the union.
	for c, cd := range merged.Cells {
		if len(cd.Reps) > MaxReps {
			cd.Reps = refSelectReps(g, c, refDedupByID(cd.Reps))
		}
	}
	return merged
}

func refDedupByID(pts []geom.Point) []geom.Point {
	seen := make(map[uint64]bool, len(pts))
	out := pts[:0]
	for _, p := range pts {
		if !seen[p.ID] {
			seen[p.ID] = true
			out = append(out, p)
		}
	}
	return out
}

func pointNearReps(p geom.Point, reps []geom.Point, eps2 float64) bool {
	for _, r := range reps {
		if geom.Dist2(p, r) <= eps2 {
			return true
		}
	}
	return false
}
