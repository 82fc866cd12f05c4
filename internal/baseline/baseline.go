// Package baseline implements the two prior parallel DBSCAN designs the
// paper positions Mr. Scan against (§2.2):
//
//   - PDS: a PDSDBSCAN-style shared disjoint-set algorithm (Patwary et
//     al., SC'12). Workers classify core points and union directly-
//     density-reachable cores in a shared union-find structure. The
//     structure counts accesses, exposing the message growth that limited
//     PDSDBSCAN's scaling beyond 8,192 cores.
//
//   - DBDC: a master/slave design (Januzaj et al., EDBT'04) where slaves
//     cluster disjoint shards with no shadow regions and send a few
//     naively-chosen representatives to a master that merges clusters.
//     Its representative selection "decreased the quality of the
//     clustering output" — reproduced here as the quality-contrast
//     baseline for Figure 11.
package baseline

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dbscan"
	"repro/internal/dsu"
	"repro/internal/geom"
	"repro/internal/grid"
)

// PDSResult is the output of the PDS baseline.
type PDSResult struct {
	Labels      []int
	Core        []bool
	NumClusters int
	// Unions and Messages report disjoint-set traffic — the PDSDBSCAN
	// scaling bottleneck ("a large increase in messages sent between
	// cores to access and update the data structure").
	Unions   int64
	Messages int64
}

// PDS runs the PDSDBSCAN-style parallel DBSCAN with the given number of
// workers.
func PDS(pts []geom.Point, params geom.Params, workers int) (*PDSResult, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if workers < 1 {
		return nil, fmt.Errorf("baseline: need at least one worker, got %d", workers)
	}
	n := len(pts)
	idx := grid.NewIndex(grid.New(params.Eps), pts)
	core := make([]bool, n)
	minNeighbors := params.MinPts - 1

	// Phase 1: parallel core classification over disjoint ranges.
	parallelRanges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			core[i] = idx.CountNeighbors(pts[i], params.Eps, int32(i), minNeighbors) >= minNeighbors
		}
	})

	// Phase 2: parallel unions on the shared disjoint-set structure.
	// Each worker unions its core points with core neighbors; borders
	// attach to the first core neighbor that claims them.
	uf := dsu.NewConcurrent(n)
	owner := make([]int32, n) // border owner: core index + 1, 0 = unclaimed
	parallelRanges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if !core[i] {
				continue
			}
			idx.Neighbors(pts[i], params.Eps, int32(i), func(j int32) {
				if core[j] {
					if int(j) > i { // each edge once
						uf.Union(i, int(j))
					}
				} else {
					atomic.CompareAndSwapInt32(&owner[j], 0, int32(i)+1)
				}
			})
		}
	})

	// Label assignment: dense IDs per disjoint set holding a core point.
	labels := make([]int, n)
	ids := make(map[int]int)
	for i := 0; i < n; i++ {
		if core[i] {
			root := uf.Find(i)
			id, ok := ids[root]
			if !ok {
				id = len(ids)
				ids[root] = id
			}
			labels[i] = id
		} else {
			labels[i] = geom.Noise
		}
	}
	for i := 0; i < n; i++ {
		if !core[i] && owner[i] != 0 {
			labels[i] = labels[owner[i]-1]
		}
	}
	unions, messages := uf.Stats()
	return &PDSResult{
		Labels:      labels,
		Core:        core,
		NumClusters: len(ids),
		Unions:      unions,
		Messages:    messages,
	}, nil
}

func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(n*w/workers, n*(w+1)/workers)
		}(w)
	}
	wg.Wait()
}

// DBDCOptions tunes the DBDC-style baseline.
type DBDCOptions struct {
	// Slaves is the number of slave shards.
	Slaves int
	// RepsPerCluster is the number of representative points each slave
	// sends the master per local cluster (DBDC used a small sample).
	RepsPerCluster int
}

// DBDCResult is the output of the DBDC baseline.
type DBDCResult struct {
	Labels      []int
	NumClusters int
}

// DBDC runs the master/slave baseline: slaves cluster disjoint x-striped
// shards (no shadow regions — the design's quality flaw), send sampled
// representatives to the master, and the master merges local clusters
// whose representatives are within Eps.
func DBDC(pts []geom.Point, params geom.Params, opt DBDCOptions) (*DBDCResult, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if opt.Slaves < 1 {
		return nil, fmt.Errorf("baseline: need at least one slave, got %d", opt.Slaves)
	}
	if opt.RepsPerCluster < 1 {
		opt.RepsPerCluster = 5
	}
	n := len(pts)
	// Disjoint x-striped distribution ("assumes that the dataset to
	// cluster is already distributed among the compute nodes").
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pts[order[a]].X < pts[order[b]].X })
	type shard struct {
		indices []int
		res     *dbscan.Result
	}
	shards := make([]shard, opt.Slaves)
	for s := 0; s < opt.Slaves; s++ {
		lo, hi := n*s/opt.Slaves, n*(s+1)/opt.Slaves
		shards[s].indices = order[lo:hi]
	}
	var wg sync.WaitGroup
	errs := make([]error, opt.Slaves)
	for s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			local := make([]geom.Point, len(shards[s].indices))
			for i, gi := range shards[s].indices {
				local[i] = pts[gi]
			}
			shards[s].res, errs[s] = dbscan.Cluster(local, params)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Representatives: every (size/Reps)-th member of each local cluster
	// — DBDC's naive sampling, not Mr. Scan's geometric anchors.
	type repPoint struct {
		p     geom.Point
		slave int
		local int
	}
	var reps []repPoint
	for s := range shards {
		members := make(map[int][]int)
		for i, l := range shards[s].res.Labels {
			if l >= 0 {
				members[l] = append(members[l], i)
			}
		}
		for l, idxs := range members {
			step := len(idxs) / opt.RepsPerCluster
			if step < 1 {
				step = 1
			}
			for k := 0; k < len(idxs); k += step {
				gi := shards[s].indices[idxs[k]]
				reps = append(reps, repPoint{p: pts[gi], slave: s, local: l})
			}
		}
	}
	// Master merge: single-linkage over representatives within Eps.
	type key struct{ slave, local int }
	uf := dsu.NewKeyed[key]()
	sort.Slice(reps, func(a, b int) bool { return reps[a].p.ID < reps[b].p.ID })
	eps2 := params.Eps * params.Eps
	for i := range reps {
		uf.Add(key{reps[i].slave, reps[i].local})
		for j := i + 1; j < len(reps); j++ {
			if geom.Dist2(reps[i].p, reps[j].p) <= eps2 {
				uf.Union(key{reps[i].slave, reps[i].local}, key{reps[j].slave, reps[j].local})
			}
		}
	}
	// Global labels.
	ids := make(map[key]int)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = geom.Noise
	}
	nextID := 0
	for s := range shards {
		for i, l := range shards[s].res.Labels {
			if l < 0 {
				continue
			}
			root := uf.Find(key{s, l})
			id, ok := ids[root]
			if !ok {
				id = nextID
				nextID++
				ids[root] = id
			}
			labels[shards[s].indices[i]] = id
		}
	}
	return &DBDCResult{Labels: labels, NumClusters: nextID}, nil
}
