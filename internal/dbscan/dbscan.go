// Package dbscan implements the sequential DBSCAN algorithm of Ester,
// Kriegel, Sander and Xu (KDD'96) exactly as described in paper §2.1.
//
// It is the reference implementation Mr. Scan's output quality is measured
// against (the paper used ELKI 0.4.1; §5.1.3), and the base both the
// GPGPU variant and the baselines are validated against. The spatial
// index is pluggable: brute force (the O(n²) distance-matrix variant),
// the Eps grid, or the region KD-tree (average case O(n log n)).
package dbscan

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtree"
)

// Label values for points that are not members of any cluster.
const (
	// Noise marks a point in a low-density region (§2.1).
	Noise = -1
)

// IndexKind selects the spatial index backing neighborhood queries.
type IndexKind int

const (
	// IndexBrute compares every pair of points: the O(n²) formulation.
	IndexBrute IndexKind = iota
	// IndexGrid uses the Eps×Eps cell index (3×3 cell scan per query).
	IndexGrid
	// IndexKDTree uses the region KD-tree (CUDA-DClust's index).
	IndexKDTree
)

// String names the index kind for experiment output.
func (k IndexKind) String() string {
	switch k {
	case IndexBrute:
		return "brute"
	case IndexGrid:
		return "grid"
	case IndexKDTree:
		return "kdtree"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(k))
	}
}

// Params carries the two DBSCAN parameters.
type Params struct {
	// Eps is the neighborhood radius.
	Eps float64
	// MinPts is the minimum neighborhood size for a core point. Following
	// the original formulation (and ELKI), the neighborhood of p includes
	// p itself, so p is core iff |N_eps(p)| >= MinPts counting p.
	MinPts int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Eps <= 0 {
		return fmt.Errorf("dbscan: Eps must be positive, got %v", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("dbscan: MinPts must be at least 1, got %d", p.MinPts)
	}
	return nil
}

// Result is the output of a clustering run.
type Result struct {
	// Labels[i] is the cluster of point i: 0..NumClusters-1, or Noise.
	Labels []int
	// Core[i] reports whether point i is a core point.
	Core []bool
	// NumClusters is the number of clusters found.
	NumClusters int
}

// neighborIndex abstracts the spatial index.
type neighborIndex interface {
	// neighbors calls fn with the index of every point within eps of
	// point i, excluding i itself.
	neighbors(i int32, fn func(j int32))
	// countAtLeast reports whether point i has at least k neighbors
	// within eps, excluding i itself.
	countAtLeast(i int32, k int) bool
}

// Cluster runs DBSCAN over pts and returns per-point labels.
// The clustering is deterministic: seeds are visited in input order, so
// (as §2.1 notes) border points claimed by two clusters go to the cluster
// whose seed appears first.
func Cluster(pts []geom.Point, params Params, kind IndexKind) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	idx := buildIndex(pts, params.Eps, kind)
	return run(pts, params, idx), nil
}

func buildIndex(pts []geom.Point, eps float64, kind IndexKind) neighborIndex {
	switch kind {
	case IndexGrid:
		return &gridIndex{idx: grid.NewIndex(grid.New(eps), pts), eps: eps}
	case IndexKDTree:
		return &kdIndex{t: kdtree.Build(pts, 0), eps: eps, pts: pts}
	default:
		return &bruteIndex{pts: pts, eps: eps}
	}
}

func run(pts []geom.Point, params Params, idx neighborIndex) *Result {
	n := len(pts)
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	core := make([]bool, n)
	// minNeighbors excludes the point itself from the neighborhood count.
	minNeighbors := params.MinPts - 1

	nextCluster := 0
	var queue []int32
	for seed := 0; seed < n; seed++ {
		if labels[seed] != unvisited {
			continue
		}
		if !idx.countAtLeast(int32(seed), minNeighbors) {
			labels[seed] = Noise // may be re-labeled as border later
			continue
		}
		// Expand a new cluster from this core point (§2.1: "Once an
		// unvisited core point is found, it is considered a new cluster
		// along with its Eps-neighborhood").
		cid := nextCluster
		nextCluster++
		core[seed] = true
		labels[seed] = cid
		queue = queue[:0]
		idx.neighbors(int32(seed), func(j int32) {
			queue = append(queue, j)
		})
		for qi := 0; qi < len(queue); qi++ {
			p := queue[qi]
			if labels[p] == Noise {
				labels[p] = cid // border point
			}
			if labels[p] != unvisited {
				continue
			}
			labels[p] = cid
			if !idx.countAtLeast(p, minNeighbors) {
				continue // border point: member but not expanded
			}
			core[p] = true
			idx.neighbors(p, func(j int32) {
				if labels[j] == unvisited || labels[j] == Noise {
					queue = append(queue, j)
				}
			})
		}
	}
	return &Result{Labels: labels, Core: core, NumClusters: nextCluster}
}

// --- index implementations ---

type bruteIndex struct {
	pts []geom.Point
	eps float64
}

func (b *bruteIndex) neighbors(i int32, fn func(j int32)) {
	p := b.pts[i]
	eps2 := b.eps * b.eps
	for j := range b.pts {
		if int32(j) == i {
			continue
		}
		if geom.Dist2(p, b.pts[j]) <= eps2 {
			fn(int32(j))
		}
	}
}

func (b *bruteIndex) countAtLeast(i int32, k int) bool {
	if k <= 0 {
		return true
	}
	p := b.pts[i]
	eps2 := b.eps * b.eps
	count := 0
	for j := range b.pts {
		if int32(j) == i {
			continue
		}
		if geom.Dist2(p, b.pts[j]) <= eps2 {
			count++
			if count >= k {
				return true
			}
		}
	}
	return false
}

type gridIndex struct {
	idx *grid.Index
	eps float64
}

func (g *gridIndex) neighbors(i int32, fn func(j int32)) {
	g.idx.Neighbors(g.idx.Points()[i], g.eps, i, fn)
}

func (g *gridIndex) countAtLeast(i int32, k int) bool {
	if k <= 0 {
		return true
	}
	return g.idx.CountNeighbors(g.idx.Points()[i], g.eps, i, k) >= k
}

type kdIndex struct {
	t   *kdtree.Tree
	pts []geom.Point
	eps float64
}

func (k *kdIndex) neighbors(i int32, fn func(j int32)) {
	k.t.Range(k.pts[i], k.eps, i, func(j int32) bool {
		fn(j)
		return true
	})
}

func (k *kdIndex) countAtLeast(i int32, want int) bool {
	if want <= 0 {
		return true
	}
	return k.t.CountRange(k.pts[i], k.eps, i, want) >= want
}
