package partition

// Log-structured write aggregation for the partition phase (§5.1.1).
//
// The legacy stage 3 has every partitioner leaf write one small run at a
// specific offset of nearly every partition region — O(leaves×partitions)
// random writes, which the paper measures at 65.2% of the partition
// phase. The aggregated writer inverts the layout: each leaf appends its
// *entire* contribution (every partition's owned and shadow runs, in
// partition order) as one contiguous region of a segment file, and the
// metadata carries an index of runs. Writes become O(leaves) sequential
// appends; the seek penalty that dominated the phase is paid once per
// leaf instead of twice per (leaf, partition) pair. Segment files are
// sharded (leaf l → shard l mod S) so concurrent leaves append to
// different files instead of contending on one.
//
// Readers reassemble a partition from its runs in leaf order — the same
// concatenation order the legacy layout stores — so both layouts yield
// byte-identical partitions.

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrnet"
	"repro/internal/ptio"
)

// segPlace tells one leaf where its region lives: segment shard index and
// the byte offset its sequential run starts at.
type segPlace struct {
	Seg  int
	Base int64
}

// segmentName derives a shard file's name from the partition output file.
func segmentName(outputFile string, s int) string {
	return fmt.Sprintf("%s.seg%d", outputFile, s)
}

// segmentShardCount resolves the shard count: the requested value,
// defaulting to 8, never more than the number of leaves (an empty shard
// is pointless).
func segmentShardCount(leaves, requested int) int {
	s := requested
	if s <= 0 {
		s = 8
	}
	if s > leaves {
		s = leaves
	}
	return s
}

// buildSegmentLayout assigns each leaf a contiguous region of a segment
// shard — regions stacked in leaf order within each shard — and records
// every non-empty run in meta.Segments (offset-ascending per shard). The
// legacy per-entry offsets do not apply to this layout, so they are set
// to -1: a reader that ignores the segment index fails fast instead of
// returning the wrong bytes.
func buildSegmentLayout(meta *ptio.PartitionMeta, allCounts []leafCounts, outputFile string, numPartitions, shards int) []segPlace {
	rs := int64(ptio.RecordSize(meta.HasWeight))
	s := segmentShardCount(len(allCounts), shards)
	meta.Segments = make([]ptio.Segment, s)
	for i := range meta.Segments {
		meta.Segments[i].File = segmentName(outputFile, i)
	}
	cursor := make([]int64, s)
	places := make([]segPlace, len(allCounts))
	for l, lc := range allCounts {
		shard := l % s
		places[l] = segPlace{Seg: shard, Base: cursor[shard]}
		off := cursor[shard]
		for j := 0; j < numPartitions; j++ {
			if n := lc[j][0]; n > 0 {
				meta.Segments[shard].Runs = append(meta.Segments[shard].Runs, ptio.SegmentRun{
					Leaf: l, Partition: j, Offset: off, Count: n,
				})
				off += n * rs
			}
			if n := lc[j][1]; n > 0 {
				meta.Segments[shard].Runs = append(meta.Segments[shard].Runs, ptio.SegmentRun{
					Leaf: l, Partition: j, Shadow: true, Offset: off, Count: n,
				})
				off += n * rs
			}
		}
		cursor[shard] = off
	}
	for j := range meta.Partitions {
		meta.Partitions[j].Offset = -1
		meta.Partitions[j].ShadowOffset = -1
	}
	return places
}

// writePartitionsAggregated is stage 3's log-structured write path. The
// root creates (truncating — phase retries restart the log) the segment
// shards, then every leaf appends its region sequentially. Without a
// durability callback the leaf's whole contribution is a single WriteAt;
// with one, the leaf writes per-partition chunks (still sequential on its
// handle) and the last leaf to finish a partition syncs the segments and
// signals it — the hook the pipelined cluster phase hangs off.
func writePartitionsAggregated(ctx context.Context, net *mrnet.Network, fs *lustre.FS, contribs []*leafContrib, places []segPlace, meta *ptio.PartitionMeta, opt DistOptions) error {
	hasWeight := meta.HasWeight
	segNames := make([]string, len(meta.Segments))
	// OST-aware placement: with OST health tracking enabled, each shard
	// stripes only over currently healthy OSTs, rotated per shard so the
	// shards spread the load. Without tracking (nil HealthyOSTs) the
	// legacy all-OST layout — and its simulated costs — are unchanged.
	healthy := fs.HealthyOSTs()
	rs := int64(ptio.RecordSize(hasWeight))
	for i, seg := range meta.Segments {
		segNames[i] = seg.File
		var h *lustre.Handle
		if len(healthy) > 0 {
			osts := make([]int, len(healthy))
			for j := range healthy {
				osts[j] = healthy[(i+j)%len(healthy)]
			}
			h = fs.CreateWithOSTs(seg.File, osts)
		} else {
			h = fs.Create(seg.File)
		}
		// The index is offset-ascending, so its last run ends the shard:
		// size the file before the leaves append to it.
		if n := len(seg.Runs); n > 0 {
			h.Grow(int(seg.Runs[n-1].Offset + seg.Runs[n-1].Count*rs))
		}
	}
	// Redelivery guard: overlay crash recovery may re-run deliver at a
	// leaf; the claim makes the write and the countdown once-per-leaf so
	// OnPartitionDurable cannot double-fire.
	claimed := make([]atomic.Bool, len(places))
	remaining := make([]atomic.Int64, opt.NumPartitions)
	for j := range remaining {
		remaining[j].Store(int64(len(places)))
	}
	durable := func(j int) error {
		for _, name := range segNames {
			if err := fs.Sync(name); err != nil {
				return fmt.Errorf("partition: syncing %s: %w", name, err)
			}
		}
		if err := fs.SyncDir("."); err != nil {
			return fmt.Errorf("partition: syncing segment dir: %w", err)
		}
		opt.OnPartitionDurable(j)
		return nil
	}
	return mrnet.Multicast(ctx, net, places, nil,
		func(leaf int, pl []segPlace) error {
			if !claimed[leaf].CompareAndSwap(false, true) {
				return nil
			}
			h := fs.OpenOrCreate(segNames[pl[leaf].Seg])
			c := contribs[leaf]
			if opt.OnPartitionDurable == nil {
				// Maximal aggregation: the leaf's whole contribution as
				// one sequential write, encoded into a buffer of its size.
				var records int64
				for j := 0; j < opt.NumPartitions; j++ {
					records += int64(len(c.part[j]) + len(c.shadow[j]))
				}
				buf := make([]byte, 0, records*rs)
				for j := 0; j < opt.NumPartitions; j++ {
					for _, p := range c.part[j] {
						buf = ptio.AppendRecord(buf, p, hasWeight)
					}
					for _, p := range c.shadow[j] {
						buf = ptio.AppendRecord(buf, p, hasWeight)
					}
				}
				if len(buf) > 0 {
					if _, err := h.WriteAt(buf, pl[leaf].Base); err != nil {
						return err
					}
				}
				return nil
			}
			// Pipelined: per-partition chunks, sequential on the handle,
			// with the per-partition countdown after each.
			off := pl[leaf].Base
			for j := 0; j < opt.NumPartitions; j++ {
				buf := ptio.EncodeRecords(c.part[j], hasWeight)
				for _, p := range c.shadow[j] {
					buf = ptio.AppendRecord(buf, p, hasWeight)
				}
				if len(buf) > 0 {
					if _, err := h.WriteAt(buf, off); err != nil {
						return err
					}
					off += int64(len(buf))
				}
				if remaining[j].Add(-1) == 0 {
					if err := durable(j); err != nil {
						return err
					}
				}
			}
			return nil
		},
		func(pl []segPlace) int64 { return int64(len(pl)) * 16 },
	)
}

// segRunRef pairs a run with the segment file holding it.
type segRunRef struct {
	file string
	run  ptio.SegmentRun
}

// partitionRuns collects partition j's runs from the segment index,
// split into owned and shadow, each sorted by contributing leaf — the
// assembly order that makes a segmented read byte-identical to a legacy
// one.
func partitionRuns(meta *ptio.PartitionMeta, j int) (owned, shadow []segRunRef) {
	for _, seg := range meta.Segments {
		for _, r := range seg.Runs {
			if r.Partition != j {
				continue
			}
			ref := segRunRef{file: seg.File, run: r}
			if r.Shadow {
				shadow = append(shadow, ref)
			} else {
				owned = append(owned, ref)
			}
		}
	}
	byLeaf := func(refs []segRunRef) {
		sort.Slice(refs, func(a, b int) bool { return refs[a].run.Leaf < refs[b].run.Leaf })
	}
	byLeaf(owned)
	byLeaf(shadow)
	return owned, shadow
}

// appendPartitionSegments reassembles partition j from the log-structured
// layout onto slab: its owned runs in leaf order, then its shadow runs.
func appendPartitionSegments(slab []geom.Point, fs *lustre.FS, meta *ptio.PartitionMeta, j int) ([]geom.Point, error) {
	handles := make(map[string]*lustre.Handle)
	open := func(file string) (*lustre.Handle, error) {
		if h := handles[file]; h != nil {
			return h, nil
		}
		h, err := fs.Open(file)
		if err != nil {
			return nil, fmt.Errorf("partition: opening segment: %w", err)
		}
		handles[file] = h
		return h, nil
	}
	appendRuns := func(refs []segRunRef, want int64) error {
		var got int64
		for _, ref := range refs {
			got += ref.run.Count
		}
		if got != want {
			return fmt.Errorf("partition: segment index holds %d records for partition %d, metadata entry says %d",
				got, j, want)
		}
		for _, ref := range refs {
			h, err := open(ref.file)
			if err != nil {
				return err
			}
			if slab, err = appendRecordsAt(slab, h, ref.run.Offset, ref.run.Count, meta.HasWeight); err != nil {
				return err
			}
		}
		return nil
	}
	ownedRefs, shadowRefs := partitionRuns(meta, j)
	e := meta.Partitions[j]
	if err := appendRuns(ownedRefs, e.Count); err != nil {
		return nil, err
	}
	if err := appendRuns(shadowRefs, e.ShadowCount); err != nil {
		return nil, err
	}
	return slab, nil
}
