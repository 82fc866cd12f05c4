// Treenet: using the MRNet-style overlay directly, outside the DBSCAN
// pipeline — the paper's broader claim is that "a tree-based distribution
// network of GPGPU-equipped nodes is useful for developing large-scale
// data analysis applications" (§6). This example builds a 3-level tree,
// multicasts a query region to 512 leaf processes, reduces a per-leaf
// spatial histogram through the internal filters, and prints the overlay
// traffic accounting.
//
//	go run ./examples/treenet
package main

import (
	"context"
	"fmt"
	"log"

	mrscan "repro"
	"repro/internal/grid"
	"repro/internal/mrnet"
)

func main() {
	const leaves = 512
	// The paper's topology policy: 256-way fanout, so 512 leaves get 2
	// intermediate processes (Table 1).
	net, err := mrnet.New(leaves, mrnet.DefaultFanout, mrnet.TitanCosts(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree: %d leaves, %d internal processes, depth %d\n",
		net.NumLeaves(), net.NumInternal(), net.Depth())

	// Each leaf owns a shard of a dataset.
	g := grid.New(1.0)
	shards := make([][]mrscan.Point, leaves)
	for i := range shards {
		shards[i] = mrscan.Twitter(2_000, int64(i))
	}

	// Multicast a query region to every leaf.
	query := mrscan.Rect{MinX: -130, MinY: 20, MaxX: -60, MaxY: 55} // North America
	err = mrnet.Multicast(context.Background(), net, query, nil, func(leaf int, r mrscan.Rect) error {
		// Leaves filter their shard in place for the upcoming reduction.
		kept := shards[leaf][:0]
		for _, p := range shards[leaf] {
			if r.Contains(p) {
				kept = append(kept, p)
			}
		}
		shards[leaf] = kept
		return nil
	}, func(mrscan.Rect) int64 { return 32 })
	if err != nil {
		log.Fatal(err)
	}

	// Reduce per-leaf histograms of the filtered points up the tree; the
	// internal nodes run the sum filter, exactly like the partitioner's
	// histogram aggregation (§3.1.3).
	hist, err := mrnet.Reduce(context.Background(), net,
		func(leaf int) (*grid.Histogram, error) {
			return g.HistogramOf(shards[leaf]), nil
		},
		func(n *mrnet.Node, in []*grid.Histogram) (*grid.Histogram, error) {
			return grid.Sum(in), nil
		},
		func(h *grid.Histogram) int64 { return int64(h.Len()) * 12 },
	)
	if err != nil {
		log.Fatal(err)
	}

	cell, count := hist.MaxCell()
	fmt.Printf("query region holds %d points in %d one-degree cells\n",
		hist.Total(), hist.Len())
	fmt.Printf("densest cell: %v with %d points (rect %+v)\n", cell, count, g.CellRect(cell))

	stats := net.Stats()
	fmt.Printf("overlay traffic: %d packets, %d bytes\n", stats.Packets, stats.Bytes)
	fmt.Printf("simulated network time: %v (startup %v)\n",
		net.Clock().Now(), net.Clock().Resource("mrnet/startup"))
}
