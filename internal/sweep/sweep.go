// Package sweep implements Mr. Scan's final phase (paper §3.4): writing
// the finished clusters to the file system.
//
// The root computes per-leaf file offsets, the global cluster ID mapping
// travels down the tree "with each level of the tree reversing the merge
// operation", and each leaf relabels its partition's points with their
// global cluster IDs and writes them to the output file in parallel.
//
// Only owned (non-shadow) points are written: each point is owned by
// exactly one partition, which deduplicates the shadow copies naturally.
package sweep

import (
	"context"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/merge"
	"repro/internal/mrnet"
	"repro/internal/ptio"
)

// NoiseID is the cluster ID written for noise points when they are
// included in the output.
const NoiseID int64 = -1

// LeafData is one leaf's sweep input: its owned points and their
// leaf-local cluster labels (negative = noise).
type LeafData struct {
	Points []geom.Point
	Labels []int32
}

// Result reports what the sweep wrote.
type Result struct {
	// PointsWritten counts output records.
	PointsWritten int64
	// NoiseSkipped counts noise points omitted (IncludeNoise false).
	NoiseSkipped int64
	// Elapsed is the phase's wall time.
	Elapsed time.Duration
}

// Options configures the sweep.
type Options struct {
	// IncludeNoise writes noise points with cluster ID NoiseID instead of
	// omitting them. The paper writes "a file of the points included in a
	// cluster", i.e. omits noise; keeping it is useful for analysis.
	IncludeNoise bool
	// Claims carries border-reclaim information (merge.BorderClaims):
	// an owned point labeled noise locally whose ID appears here is
	// written as a border member of the claimed global cluster instead.
	Claims map[uint64]int32
}

// Run executes the sweep over the cluster-phase tree. mapping is the
// root's global ID assignment (merge.AssignGlobalIDs); data returns each
// leaf's owned points and labels (already in leaf memory after the
// cluster phase).
func Run(ctx context.Context, net *mrnet.Network, fs *lustre.FS, outFile string, mapping map[merge.ClusterKey]int32, data func(leaf int) (*LeafData, error), opt Options) (*Result, error) {
	start := time.Now()
	leaves := net.NumLeaves()

	// Leaves report output record counts; the root computes offsets
	// ("It first calculates file offsets to be used by the leaf nodes to
	// write out the points for each cluster").
	leafData := make([]*LeafData, leaves)
	counts, err := mrnet.Reduce(ctx, net,
		func(leaf int) ([]int64, error) {
			d, err := data(leaf)
			if err != nil {
				return nil, err
			}
			if len(d.Points) != len(d.Labels) {
				return nil, fmt.Errorf("sweep: leaf %d has %d points, %d labels", leaf, len(d.Points), len(d.Labels))
			}
			leafData[leaf] = d
			var n int64
			for i, l := range d.Labels {
				if l >= 0 || opt.IncludeNoise {
					n++
					continue
				}
				if _, claimed := opt.Claims[d.Points[i].ID]; claimed {
					n++
				}
			}
			return []int64{n}, nil
		},
		func(_ *mrnet.Node, parts [][]int64) ([]int64, error) {
			var out []int64
			for _, p := range parts {
				out = append(out, p...)
			}
			return out, nil
		},
		func(cs []int64) int64 { return int64(len(cs)) * 8 },
	)
	if err != nil {
		return nil, err
	}
	// Records start after the 16-byte MRSL header the root writes.
	const headerSize = 16
	offsets := make([]int64, leaves)
	cursor := int64(headerSize)
	var totalRecords int64
	for l, n := range counts {
		offsets[l] = cursor
		cursor += n * ptio.LabeledRecordSize
		totalRecords += n
	}

	// Multicast the mapping and per-leaf offsets down the tree; leaves
	// relabel and write in parallel. The mapping travels resolved into one
	// dense table per leaf, so a leaf relabels by index, not by hash.
	type payload struct {
		global  [][]int32
		offsets []int64
	}
	global := merge.GlobalByLeaf(mapping, leaves)
	root := fs.Create(outFile)
	root.Grow(int(cursor)) // every record's offset is assigned: size the file once
	if _, err := root.WriteAt(ptio.LabeledHeader(totalRecords), 0); err != nil {
		return nil, fmt.Errorf("sweep: writing header: %w", err)
	}
	var written, skipped int64
	writtenPerLeaf := make([]int64, leaves)
	skippedPerLeaf := make([]int64, leaves)
	err = mrnet.Multicast(ctx, net, payload{global: global, offsets: offsets},
		nil,
		func(leaf int, pl payload) error {
			d := leafData[leaf]
			table := pl.global[leaf]
			h := fs.OpenOrCreate(outFile)
			buf := make([]byte, 0, 1<<16)
			off := pl.offsets[leaf]
			flush := func() error {
				if len(buf) == 0 {
					return nil
				}
				if _, err := h.WriteAt(buf, off); err != nil {
					return err
				}
				off += int64(len(buf))
				buf = buf[:0]
				return nil
			}
			for i, p := range d.Points {
				var cluster int64
				if l := d.Labels[i]; l >= 0 {
					if int(l) >= len(table) || table[l] < 0 {
						return fmt.Errorf("sweep: leaf %d cluster %d missing from global mapping", leaf, l)
					}
					cluster = int64(table[l])
				} else if gid, claimed := opt.Claims[p.ID]; claimed {
					// Border reclaim: another leaf saw this point within
					// Eps of one of its core points.
					cluster = int64(gid)
				} else if opt.IncludeNoise {
					cluster = NoiseID
				} else {
					skippedPerLeaf[leaf]++
					continue
				}
				buf = ptio.AppendLabeled(buf, ptio.LabeledPoint{Point: p, Cluster: cluster})
				writtenPerLeaf[leaf]++
				if len(buf) >= 1<<16 {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			return flush()
		},
		func(pl payload) int64 { return int64(len(mapping))*12 + int64(len(pl.offsets))*8 },
	)
	if err != nil {
		return nil, err
	}
	for l := range writtenPerLeaf {
		written += writtenPerLeaf[l]
		skipped += skippedPerLeaf[l]
	}
	return &Result{
		PointsWritten: written,
		NoiseSkipped:  skipped,
		Elapsed:       time.Since(start),
	}, nil
}

// ReadOutput loads every labeled record from a sweep output file (an
// MRSL file: header plus records). An empty file reads as no records.
func ReadOutput(fs *lustre.FS, file string) ([]ptio.LabeledPoint, error) {
	h, err := fs.Open(file)
	if err != nil {
		return nil, err
	}
	if h.Size() == 0 {
		return nil, nil
	}
	return ptio.ReadLabeled(h)
}
