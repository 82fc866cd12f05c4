package baseline

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dbscan"
	"repro/internal/geom"
)

// TIDBSCAN implements TI-DBSCAN (Kryszkiewicz & Lasek, RSCTC 2010), the
// single-core DBSCAN optimization the paper discusses in §2.2: instead of
// a spatial index, the input is sorted by distance to a reference point,
// and the triangle inequality bounds each point's candidate neighborhood
// to a window of that ordering — "the input dataset is sorted to
// determine a point's Eps-Neighborhood, which is similar to the way our
// GPU implementation of the algorithm uses its KD-tree."
//
// The output is exactly DBSCAN's (same core points, same cluster
// partition); only the candidate pruning differs.
func TIDBSCAN(pts []geom.Point, params geom.Params) (*dbscan.Result, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	n := len(pts)
	// Reference point: the corner of the bounding box, as in the paper's
	// formulation (any fixed reference is correct; a corner spreads the
	// projection well for geo data). A point with a NaN or infinite
	// coordinate is no point's neighbour: it stays out of the box and
	// projects to +Inf, past every finite point's window and its own.
	finite := func(p geom.Point) bool { return !math.IsNaN(p.X-p.X) && !math.IsNaN(p.Y-p.Y) }
	ref := geom.Point{X: math.Inf(1), Y: math.Inf(1)}
	for _, p := range pts {
		if finite(p) {
			ref.X, ref.Y = min(ref.X, p.X), min(ref.Y, p.Y)
		}
	}

	// Sort indices by distance to the reference. Hypot does not overflow
	// where the squared distance would.
	order := make([]tiProj, n)
	for i, p := range pts {
		order[i] = tiProj{idx: int32(i), dist: math.Inf(1)}
		if finite(p) {
			order[i].dist = math.Hypot(p.X-ref.X, p.Y-ref.Y)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].dist != order[b].dist {
			return order[a].dist < order[b].dist
		}
		return order[a].idx < order[b].idx
	})
	// pos[i] is point i's rank in the projection order.
	pos := make([]int32, n)
	for r, pr := range order {
		pos[pr.idx] = int32(r)
	}

	// reach bounds the distance between two points within Eps: Eps
	// itself, or about 2⁻⁵¹¹ when Eps² underflows; when Eps² overflows,
	// every two finite points are within Eps.
	reach := max(params.Eps, 0x1p-510)
	if math.IsInf(params.Eps*params.Eps, 1) {
		reach = math.Inf(1)
	}
	idx := &tiIndex{pts: pts, eps2: params.Eps * params.Eps, reach: reach, order: order, pos: pos}
	return tiRun(pts, params, idx), nil
}

// tiIndex prunes neighborhood candidates with the triangle inequality:
// dist(p,q) <= eps implies |dist(p,ref) - dist(q,ref)| <= eps, so only a
// contiguous window of the sorted order needs scanning.
// tiProj is one entry of the projection order: a point index and its
// distance to the reference point.
type tiProj struct {
	idx  int32
	dist float64
}

type tiIndex struct {
	pts         []geom.Point
	eps2, reach float64
	order       []tiProj
	pos         []int32
}

// scan counts the points within Eps of point i, excluding i, until it
// reaches limit, and calls fn (if not nil) with each. The window around
// i's projection d is reach wide plus the rounding of two projections
// near d; a point with a non-finite coordinate (projection +Inf) has no
// window and is in none.
func (t *tiIndex) scan(i int32, limit int, fn func(j int32)) int {
	p := t.pts[i]
	center := int(t.pos[i])
	d := t.order[center].dist
	if math.IsInf(d, 1) {
		return 0
	}
	window := t.reach + 0x1p-50*(2*d+t.reach)
	n := 0
	for _, step := range [2]int{-1, 1} {
		for r := center + step; r >= 0 && r < len(t.order); r += step {
			if dr := t.order[r].dist; math.Abs(dr-d) > window || math.IsInf(dr, 1) {
				break
			}
			j := t.order[r].idx
			// The oracle's Eps test: no multiply fused into the add.
			if dx, dy := p.X-t.pts[j].X, p.Y-t.pts[j].Y; float64(dx*dx)+float64(dy*dy) <= t.eps2 {
				if n++; fn != nil {
					fn(j)
				}
				if n >= limit {
					return n
				}
			}
		}
	}
	return n
}

func (t *tiIndex) neighbors(i int32, fn func(j int32)) { t.scan(i, math.MaxInt, fn) }

func (t *tiIndex) countAtLeast(i int32, k int) bool { return t.scan(i, k, nil) >= k }

// tiRun is the textbook DBSCAN control loop (§2.1) over the TI index:
// seeds in input order, each cluster expanded breadth-first from its
// first core point. It is the only such loop outside tests; the reference
// in internal/dbscan computes the same labels from a cell graph.
func tiRun(pts []geom.Point, params geom.Params, idx *tiIndex) *dbscan.Result {
	n := len(pts)
	const unvisited = -2
	labels := make([]int, n)
	for i := range labels {
		labels[i] = unvisited
	}
	core := make([]bool, n)
	minNeighbors := params.MinPts - 1
	nextCluster := 0
	var queue []int32
	for seed := 0; seed < n; seed++ {
		if labels[seed] != unvisited {
			continue
		}
		if !idx.countAtLeast(int32(seed), minNeighbors) {
			labels[seed] = geom.Noise
			continue
		}
		cid := nextCluster
		nextCluster++
		core[seed] = true
		labels[seed] = cid
		queue = queue[:0]
		idx.neighbors(int32(seed), func(j int32) { queue = append(queue, j) })
		for qi := 0; qi < len(queue); qi++ {
			p := queue[qi]
			if labels[p] == geom.Noise {
				labels[p] = cid
			}
			if labels[p] != unvisited {
				continue
			}
			labels[p] = cid
			if !idx.countAtLeast(p, minNeighbors) {
				continue
			}
			core[p] = true
			idx.neighbors(p, func(j int32) {
				if labels[j] == unvisited || labels[j] == geom.Noise {
					queue = append(queue, j)
				}
			})
		}
	}
	return &dbscan.Result{Labels: labels, Core: core, NumClusters: nextCluster}
}
