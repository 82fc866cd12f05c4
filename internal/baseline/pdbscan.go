package baseline

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dsu"
	"repro/internal/geom"
	"repro/internal/kdtree"
)

// PDBSCANResult is the output of the PDBSCAN baseline.
type PDBSCANResult struct {
	Labels      []int
	Core        []bool
	NumClusters int
	// RemoteMessages counts point fetches from other nodes — the cost
	// whose super-linear growth "hampered its scalability" (§2.2).
	RemoteMessages int64
	// MergeEdges counts cross-node cluster merge notifications sent to
	// the master.
	MergeEdges int64
}

// PDBSCAN implements the design of the first parallel DBSCAN (Xu, Jäger
// & Kriegel 1999; paper §2.2): the data is spatially partitioned among
// compute nodes, but the spatial index is *replicated on every node* —
// "distributed R*-trees partition data but they replicate the entire
// index on each node. If a neighborhood query included an area of the
// dataset that resides on a different node, the node that started the
// query must send a message to obtain the data." The replicated index
// is the KD-tree, not the original's R*-tree (EXPERIMENTS.md §2.2).
//
// Three phases, with barriers where the original had communication
// rounds: parallel core classification over owned points, parallel
// expansion collecting union edges (touching a remotely-owned point
// counts one message), and a master round applying the edges.
func PDBSCAN(pts []geom.Point, params geom.Params, nodes int) (*PDBSCANResult, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if nodes < 1 {
		return nil, fmt.Errorf("baseline: need at least one node, got %d", nodes)
	}
	n := len(pts)
	// Spatial partitioning: x-striped shards of equal point count (the
	// original used the R*-tree directory; stripes preserve the property
	// that matters — most neighbors are local, boundary neighbors are
	// not).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if pts[order[a]].X != pts[order[b]].X {
			return pts[order[a]].X < pts[order[b]].X
		}
		return order[a] < order[b]
	})
	owner := make([]int32, n)
	for rank, idx := range order {
		owner[idx] = int32(nodes * rank / n)
	}

	// The replicated index: every node holds the full tree.
	index := kdtree.Build(pts, 0)

	core := make([]bool, n)
	minNeighbors := params.MinPts - 1
	var remote atomic.Int64

	// --- Phase 1: parallel core classification of owned points ---
	eachNode(nodes, func(w int) {
		var msgs int64
		for i := 0; i < n; i++ {
			if owner[i] != int32(w) {
				continue
			}
			count := 0
			index.Range(pts[i], params.Eps, int32(i), func(j int32) bool {
				count++
				if owner[j] != int32(w) {
					msgs++ // fetch the remote point
				}
				return count < minNeighbors
			})
			core[i] = count >= minNeighbors
		}
		remote.Add(msgs)
	})

	// --- Phase 2: parallel expansion; nodes collect union edges ---
	type edge struct{ a, b int32 }
	edges := make([][]edge, nodes)
	borderOwner := make([]int32, n) // claiming core index + 1
	eachNode(nodes, func(w int) {
		var msgs int64
		for i := 0; i < n; i++ {
			if owner[i] != int32(w) || !core[i] {
				continue
			}
			index.Range(pts[i], params.Eps, int32(i), func(j int32) bool {
				if owner[j] != int32(w) {
					msgs++ // remote classification lookup
				}
				if core[j] {
					if int(j) > i {
						edges[w] = append(edges[w], edge{int32(i), j})
					}
				} else {
					atomic.CompareAndSwapInt32(&borderOwner[j], 0, int32(i)+1)
				}
				return true
			})
		}
		remote.Add(msgs)
	})

	// --- Phase 3: the master applies union edges ---
	master := dsu.New(n)
	var mergeEdges int64
	for w := range edges {
		for _, e := range edges[w] {
			if owner[e.a] != owner[e.b] {
				mergeEdges++ // a cross-node merge notification
			}
			master.Union(int(e.a), int(e.b))
		}
	}
	labels := make([]int, n)
	ids := make(map[int]int)
	for i := 0; i < n; i++ {
		if core[i] {
			root := master.Find(i)
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
		if !core[i] && borderOwner[i] != 0 {
			labels[i] = labels[borderOwner[i]-1]
		}
	}
	return &PDBSCANResult{
		Labels:         labels,
		Core:           core,
		NumClusters:    len(ids),
		RemoteMessages: remote.Load(),
		MergeEdges:     mergeEdges,
	}, nil
}

func eachNode(nodes int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(nodes)
	for w := 0; w < nodes; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
