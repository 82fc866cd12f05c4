package partition

import (
	"context"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lustre"
	"repro/internal/mrnet"
	"repro/internal/ptio"
)

// DistOptions configures the distributed partitioner (§3.1.3).
type DistOptions struct {
	// NumPartitions is the number of partitions to produce — one per
	// cluster-phase leaf process.
	NumPartitions int
	// MinPts is DBSCAN's MinPts (minimum partition size constraint).
	MinPts int
	// Rebalance enables the backward rebalancing pass.
	Rebalance bool
	// ShadowReps enables the representative-shadow write reduction.
	ShadowReps bool
	// HasWeight selects the record format.
	HasWeight bool
	// SplitThreshold, when positive, subdivides grid cells holding more
	// points than the threshold into quadrant tiles shared across
	// partitions — the paper's §5.1.2 fix for the single-dense-cell
	// strong-scaling limit ("we need to subdivide grid cells when they
	// have extremely high density").
	SplitThreshold int64
}

// hotCells picks the subdivision depth of every cell holding more than
// threshold points (none when threshold is not positive).
func hotCells(hist *grid.Histogram, threshold int64) map[grid.Coord]uint8 {
	depth := make(map[grid.Coord]uint8)
	if threshold > 0 {
		for i := range hist.Len() {
			if c, n := hist.At(i); n > threshold {
				depth[c] = DepthFor(n, threshold)
			}
		}
	}
	return depth
}

// tileCounts is the second, small histogram round hot cells cost: the
// root announces their subdivision depths down the tree and the leaves
// reduce per-unit counts back up.
func tileCounts(ctx context.Context, net *mrnet.Network, g grid.Grid, shards []leafShard, depth map[grid.Coord]uint8) (*UnitHistogram, error) {
	// Announce depths; leaves only need the hot cells.
	if err := mrnet.Multicast(ctx, net, depth, nil,
		func(int, map[grid.Coord]uint8) error { return nil },
		func(d map[grid.Coord]uint8) int64 { return int64(len(d)) * 9 },
	); err != nil {
		return nil, err
	}
	counts, err := mrnet.Reduce(ctx, net,
		func(leaf int) (map[Unit]int64, error) {
			return QuadCounts(g, shards[leaf].pts, depth), nil
		},
		func(_ *mrnet.Node, parts []map[Unit]int64) (map[Unit]int64, error) {
			out := make(map[Unit]int64)
			for _, m := range parts {
				for u, n := range m {
					out[u] += n
				}
			}
			return out, nil
		},
		func(m map[Unit]int64) int64 { return int64(len(m)) * 20 },
	)
	if err != nil {
		return nil, err
	}
	return &UnitHistogram{Counts: counts, Depth: depth}, nil
}

// DistResult reports what the partitioner produced and where time went.
// The paper breaks the phase down the same way: at MinPts=400 "this write
// operation took 65.2% of the partition phase, while the initial read
// operation took 29.92%" (§5.1.1).
type DistResult struct {
	Plan *Plan
	Meta *ptio.PartitionMeta
	// Wall-clock durations of the phase's three stages, cut where
	// DirectResult cuts them. ReadTime is stage 1 (shard reads and the
	// histogram reduction); PlanTime is stage 2 (hot-cell resolution and
	// the root's serial MakePlanUnits) and nothing else; WriteTime is
	// stage 3: the leaves' Split, the root's offset layout and the
	// partition writes.
	ReadTime  time.Duration
	PlanTime  time.Duration
	WriteTime time.Duration
	// ReadSim and WriteSim are the simulated-hardware costs charged
	// during the read and write stages (Lustre OST traffic and seeks):
	// the quantities behind §5.1.1's "this write operation took 65.2% of
	// the partition phase, while the initial read operation took 29.92%".
	ReadSim  time.Duration
	WriteSim time.Duration
	// TotalPoints is the input size; WrittenPoints includes the shadow
	// duplication ("the addition of the shadow regions increases the
	// total number of points in the partitioned dataset", §3.1.2).
	TotalPoints   int64
	WrittenPoints int64
}

// leafCounts holds one leaf's per-partition contribution sizes:
// counts[j] = {owned points, shadow points} destined for partition j.
type leafCounts [][2]int64

// leafShard is what one partitioner leaf keeps in memory from the read
// stage to the write stage: its slice of the input, that slice's
// histogram and, while unspent, the ranks the histogram's sort gave its
// points (grid.RankedHistogramOf; nil when it could not rank them).
type leafShard struct {
	pts    []geom.Point
	hist   *grid.Histogram
	rank   []int32
	unitOf []int32
}

// units returns the table index of every point's unit under plan
// (Plan.unitsOf), which spends the ranks. The first call's answer is
// kept: a leaf the overlay re-executes after a node failure must not
// read unit indices as ranks.
func (s *leafShard) units(plan *Plan) ([]int32, error) {
	if s.unitOf == nil {
		unitOf, err := plan.unitsOf(s.pts, s.hist, s.rank)
		if err != nil {
			return nil, err
		}
		s.unitOf, s.rank = unitOf, nil
	}
	return s.unitOf, nil
}

// leafContrib holds one leaf's split output: the indices, into its shard
// pts, of the owned and shadow points it must deliver to each partition.
type leafContrib struct {
	pts          []geom.Point
	part, shadow [][]int32
}

// counts is the contribution's size per partition.
func (c *leafContrib) counts() leafCounts {
	counts := make(leafCounts, len(c.part))
	for j := range counts {
		counts[j] = [2]int64{int64(len(c.part[j])), int64(len(c.shadow[j]))}
	}
	return counts
}

// write encodes each of the contribution's regions straight from the
// shard into one buffer, reused across regions, and writes it at its
// offset: owned then shadow, partition by partition.
func (c *leafContrib) write(h *lustre.Handle, offsets [][2]int64, hasWeight bool) error {
	most := 0
	for j := range c.part {
		most = max(most, len(c.part[j]), len(c.shadow[j]))
	}
	buf := make([]byte, 0, most*ptio.RecordSize(hasWeight))
	for j := range c.part {
		for k, region := range [2][]int32{c.part[j], c.shadow[j]} {
			if len(region) == 0 {
				continue
			}
			buf = buf[:0]
			for _, i := range region {
				buf = ptio.AppendRecord(buf, c.pts[i], hasWeight)
			}
			if _, err := h.WriteAt(buf, offsets[j][k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// openInput validates an MRSC input file before either partitioner
// touches a record, returning the record count. Every rejection here was
// once silent corruption: a header-less or empty file slipped past a dead
// `total < 0` guard (truncated division), a torn tail was dropped without
// error, and the header's magic/version/weight bits were never checked —
// a weight-flag mismatch misparses every record into garbage coordinates.
func openInput(fs *lustre.FS, inputFile string, hasWeight bool) (int64, error) {
	in, err := fs.Open(inputFile)
	if err != nil {
		return 0, fmt.Errorf("partition: opening input: %w", err)
	}
	size := in.Size()
	if size < ptio.DatasetHeaderSize {
		return 0, fmt.Errorf("partition: input file %q too short: %d bytes, need at least the %d-byte header",
			inputFile, size, ptio.DatasetHeaderSize)
	}
	var hdr [ptio.DatasetHeaderSize]byte
	if _, err := in.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("partition: reading input header: %w", err)
	}
	dh, err := ptio.ParseDatasetHeader(hdr[:])
	if err != nil {
		return 0, fmt.Errorf("partition: input file %q: %w", inputFile, err)
	}
	if dh.HasWeight != hasWeight {
		return 0, fmt.Errorf("partition: input file %q header says hasWeight=%t but options say %t — refusing to misparse records",
			inputFile, dh.HasWeight, hasWeight)
	}
	rs := int64(ptio.RecordSize(hasWeight))
	body := size - ptio.DatasetHeaderSize
	if body%rs != 0 {
		return 0, fmt.Errorf("partition: input file %q is torn: %d payload bytes is not a multiple of record size %d (%d trailing bytes would be dropped)",
			inputFile, body, rs, body%rs)
	}
	total := body / rs
	if total != dh.Count {
		return 0, fmt.Errorf("partition: input file %q holds %d records but its header declares %d",
			inputFile, total, dh.Count)
	}
	return total, nil
}

// planned is what stages 1 and 2 hand to the delivery stage, whichever
// way the partitions then travel (Distribute: files; DistributeDirect:
// messages).
type planned struct {
	// total is the input's record count; shards[l] what leaf l read of
	// it and keeps in memory.
	total  int64
	shards []leafShard
	plan   *Plan
	// readTime and readSim cover stage 1, planTime stage 2.
	readTime, planTime time.Duration
	readSim            time.Duration
}

// readAndPlan runs the two stages both partitioners share. Stage 1: the
// leaves read equal shards of the input and reduce an Eps-cell histogram
// to the root — "the partitioner is able to distribute the entire input
// dataset across the memory of the leaf processes and only send a point
// count of each non-empty Eps x Eps cell to the root" (§3.1.3). Stage 2:
// the root resolves hot cells into tiles (one more small reduction, only
// when there are any) and serially forms the plan (§3.1.2).
func readAndPlan(ctx context.Context, net *mrnet.Network, fs *lustre.FS, eps float64, inputFile string, opt DistOptions) (*planned, error) {
	if opt.NumPartitions < 1 {
		return nil, fmt.Errorf("partition: NumPartitions must be positive, got %d", opt.NumPartitions)
	}
	if opt.MinPts < 1 {
		return nil, fmt.Errorf("partition: MinPts must be positive, got %d", opt.MinPts)
	}
	g := grid.New(eps)
	leaves := net.NumLeaves()
	rs := int64(ptio.RecordSize(opt.HasWeight))

	readStart := time.Now()
	simAtStart := fs.Clock().Total()
	total, err := openInput(fs, inputFile, opt.HasWeight)
	if err != nil {
		return nil, err
	}
	shards := make([]leafShard, leaves)
	hist, err := mrnet.Reduce(ctx, net,
		func(leaf int) (*grid.Histogram, error) {
			lo := total * int64(leaf) / int64(leaves)
			hi := total * int64(leaf+1) / int64(leaves)
			h, err := fs.Open(inputFile)
			if err != nil {
				return nil, err
			}
			var pts []geom.Point
			if err := h.View(ptio.DatasetHeaderSize+lo*rs, (hi-lo)*rs, func(b []byte) (err error) {
				pts, err = ptio.DecodeRecords(b, opt.HasWeight)
				return err
			}); err != nil {
				return nil, fmt.Errorf("reading shard [%d,%d): %w", lo, hi, err)
			}
			hist, rank := g.RankedHistogramOf(pts)
			shards[leaf] = leafShard{pts: pts, hist: hist, rank: rank}
			return hist, nil
		},
		func(_ *mrnet.Node, parts []*grid.Histogram) (*grid.Histogram, error) {
			return grid.Sum(parts), nil
		},
		func(h *grid.Histogram) int64 { return int64(h.Len()) * 12 },
	)
	if err != nil {
		return nil, err
	}
	st := &planned{
		total:    total,
		shards:   shards,
		readTime: time.Since(readStart),
		readSim:  fs.Clock().Total() - simAtStart,
	}

	planStart := time.Now()
	if depth := hotCells(hist, opt.SplitThreshold); len(depth) == 0 {
		st.plan, err = MakePlan(g, hist, opt.NumPartitions, opt.MinPts, opt.Rebalance)
	} else {
		var uh *UnitHistogram
		if uh, err = tileCounts(ctx, net, g, shards, depth); err == nil {
			st.plan, err = MakePlanUnits(g, uh, PlanOptions{
				NumPartitions: opt.NumPartitions,
				MinPts:        opt.MinPts,
				Rebalance:     opt.Rebalance,
			})
		}
	}
	if err != nil {
		return nil, err
	}
	st.planTime = time.Since(planStart)
	return st, nil
}

// Distribute runs the distributed partition phase: the partitioner leaves
// read shards of the input file, reduce an Eps-cell histogram to the
// root, the root forms the plan serially (§3.1.2) and broadcasts offset
// assignments, and the leaves write every partition's points (and shadow
// points) into a single output file in parallel. The root writes a JSON
// metadata file locating each partition ("the root generates a metadata
// file to specify the offset from which each partition starts").
//
// The partitioner runs on its own (typically flat) network, separate from
// the cluster-phase tree, as in the paper.
func Distribute(ctx context.Context, net *mrnet.Network, fs *lustre.FS, eps float64, inputFile, outputFile, metaFile string, opt DistOptions) (*DistResult, error) {
	st, err := readAndPlan(ctx, net, fs, eps, inputFile, opt)
	if err != nil {
		return nil, err
	}
	leaves, plan, shards := net.NumLeaves(), st.plan, st.shards

	// --- Stage 3: leaves write partitions in parallel ---
	writeStart := time.Now()
	splitOpt := SplitOptions{ShadowReps: opt.ShadowReps}

	// Leaves split their shards against the plan and report contribution
	// counts so the root can assign disjoint file offsets. (In-process,
	// the plan reaches the leaves by reference; the sizer charges the
	// broadcast's wire size to the simulated clock.)
	contribs := make([]*leafContrib, leaves)
	allCounts, err := mrnet.Reduce(ctx, net,
		func(leaf int) ([]leafCounts, error) {
			s := &shards[leaf]
			unitOf, err := s.units(plan)
			if err != nil {
				return nil, err
			}
			c := &leafContrib{pts: s.pts}
			c.part, c.shadow = splitIndices(plan, s.pts, unitOf, splitOpt)
			contribs[leaf] = c
			return []leafCounts{c.counts()}, nil
		},
		func(_ *mrnet.Node, parts [][]leafCounts) ([]leafCounts, error) {
			var out []leafCounts
			for _, p := range parts {
				out = append(out, p...)
			}
			return out, nil
		},
		func(cs []leafCounts) int64 { return int64(len(cs)) * int64(opt.NumPartitions) * 16 },
	)
	if err != nil {
		return nil, err
	}
	if len(allCounts) != leaves {
		return nil, fmt.Errorf("partition: gathered counts from %d leaves, want %d", len(allCounts), leaves)
	}

	// Root: region layout.
	meta, offsets, size := layoutRegions(eps, opt.HasWeight, opt.NumPartitions, allCounts)

	// Each leaf holds a random portion of the data and "may need to
	// contribute some point data to nearly every partition. These
	// contributions are generally small, and each must be written at a
	// specific offset" — the small random writes that dominate the phase.
	simAtWrite := fs.Clock().Total()
	if err := writePartitions(ctx, net, fs, outputFile, size, contribs, offsets, opt.NumPartitions, opt.HasWeight); err != nil {
		return nil, err
	}
	// Root writes the metadata document.
	metaBytes, err := meta.Marshal()
	if err != nil {
		return nil, err
	}
	if _, err := fs.Create(metaFile).WriteAt(metaBytes, 0); err != nil {
		return nil, fmt.Errorf("partition: writing metadata: %w", err)
	}
	writeTime := time.Since(writeStart)
	writeSim := fs.Clock().Total() - simAtWrite

	var written int64
	for _, e := range meta.Partitions {
		written += e.Count + e.ShadowCount
	}
	return &DistResult{
		Plan:          plan,
		Meta:          meta,
		ReadTime:      st.readTime,
		PlanTime:      st.planTime,
		WriteTime:     writeTime,
		ReadSim:       st.readSim,
		WriteSim:      writeSim,
		TotalPoints:   st.total,
		WrittenPoints: written,
	}, nil
}

// layoutRegions computes the paper's contiguous layout: the output file
// holds, per partition, its owned points then its shadow points, and
// offsets[l][j] = {owned, shadow} write cursors for leaf l — exclusive
// prefix sums within each region — and size is the file's final length.
func layoutRegions(eps float64, hasWeight bool, numPartitions int, allCounts []leafCounts) (meta *ptio.PartitionMeta, offsets [][][2]int64, size int64) {
	rs := int64(ptio.RecordSize(hasWeight))
	leaves := len(allCounts)
	partTotal := make([]int64, numPartitions)
	shadTotal := make([]int64, numPartitions)
	for _, lc := range allCounts {
		for j := 0; j < numPartitions; j++ {
			partTotal[j] += lc[j][0]
			shadTotal[j] += lc[j][1]
		}
	}
	meta = &ptio.PartitionMeta{Eps: eps, HasWeight: hasWeight}
	var cursor int64
	for j := 0; j < numPartitions; j++ {
		entry := ptio.PartitionEntry{
			Offset:       cursor,
			Count:        partTotal[j],
			ShadowOffset: cursor + partTotal[j]*rs,
			ShadowCount:  shadTotal[j],
		}
		cursor = entry.ShadowOffset + shadTotal[j]*rs
		meta.Partitions = append(meta.Partitions, entry)
	}
	offsets = make([][][2]int64, leaves)
	for l := range offsets {
		offsets[l] = make([][2]int64, numPartitions)
	}
	for j := 0; j < numPartitions; j++ {
		partCur := meta.Partitions[j].Offset
		shadCur := meta.Partitions[j].ShadowOffset
		for l := 0; l < leaves; l++ {
			offsets[l][j] = [2]int64{partCur, shadCur}
			partCur += allCounts[l][j][0] * rs
			shadCur += allCounts[l][j][1] * rs
		}
	}
	return meta, offsets, cursor
}

// writePartitions is stage 3's write path: every leaf issues one small
// WriteAt per partition region it contributes to, O(leaves×partitions)
// random writes in total — the behaviour §5.1.1 measured at 65.2% of the
// phase. The root creates the file at its final size, so the leaves'
// writes land in place. With OST health tracking on, the file stripes
// over the currently healthy OSTs only; without it (nil HealthyOSTs) it
// gets the default all-OST layout and its simulated costs.
func writePartitions(ctx context.Context, net *mrnet.Network, fs *lustre.FS, outputFile string, size int64, contribs []*leafContrib, offsets [][][2]int64, numPartitions int, hasWeight bool) error {
	var h *lustre.Handle
	if healthy := fs.HealthyOSTs(); len(healthy) > 0 {
		h = fs.CreateWithOSTs(outputFile, healthy)
	} else {
		h = fs.Create(outputFile)
	}
	h.Grow(int(size))
	return mrnet.Multicast(ctx, net, offsets,
		func(n *mrnet.Node, in [][][2]int64) ([][][][2]int64, error) {
			pLo, _ := n.LeafRange()
			out := make([][][][2]int64, len(n.Children()))
			for i, c := range n.Children() {
				lo, hi := c.LeafRange()
				out[i] = in[lo-pLo : hi-pLo]
			}
			return out, nil
		},
		func(leaf int, rows [][][2]int64) error {
			if len(rows) != 1 {
				return fmt.Errorf("leaf %d received %d offset rows", leaf, len(rows))
			}
			return contribs[leaf].write(fs.OpenOrCreate(outputFile), rows[0], hasWeight)
		},
		func(rows [][][2]int64) int64 { return int64(len(rows)) * int64(numPartitions) * 16 },
	)
}

// ReadPartition loads partition j's owned and shadow points from the
// partition file meta describes. The two slices are ReadPartitionSlab's
// one allocation, cut at the owned count.
func ReadPartition(fs *lustre.FS, file string, meta *ptio.PartitionMeta, j int) (points, shadow []geom.Point, err error) {
	slab, owned, err := ReadPartitionSlab(fs, file, meta, j)
	if err != nil {
		return nil, nil, err
	}
	return slab[:owned:owned], slab[owned:], nil
}

// ReadPartitionSlab loads partition j as the cluster phase consumes it:
// one slice holding the owned points then the shadow points, decoded
// straight from the stored bytes into a single allocation, and the owned
// count that cuts it.
func ReadPartitionSlab(fs *lustre.FS, file string, meta *ptio.PartitionMeta, j int) (slab []geom.Point, owned int, err error) {
	if j < 0 || j >= len(meta.Partitions) {
		return nil, 0, fmt.Errorf("partition: index %d out of range (%d partitions)", j, len(meta.Partitions))
	}
	e := meta.Partitions[j]
	if e.Count < 0 || e.ShadowCount < 0 {
		return nil, 0, fmt.Errorf("partition: metadata entry %d has negative counts (%d owned, %d shadow)", j, e.Count, e.ShadowCount)
	}
	h, err := fs.Open(file)
	if err != nil {
		return nil, 0, err
	}
	slab = make([]geom.Point, 0, e.Count+e.ShadowCount)
	if slab, err = appendRecordsAt(slab, h, e.Offset, e.Count, meta.HasWeight); err != nil {
		return nil, 0, err
	}
	if slab, err = appendRecordsAt(slab, h, e.ShadowOffset, e.ShadowCount, meta.HasWeight); err != nil {
		return nil, 0, err
	}
	return slab, int(e.Count), nil
}

// appendRecordsAt decodes the count records stored at off of h onto pts.
func appendRecordsAt(pts []geom.Point, h *lustre.Handle, off, count int64, hasWeight bool) ([]geom.Point, error) {
	if count == 0 {
		return pts, nil
	}
	err := h.View(off, count*int64(ptio.RecordSize(hasWeight)), func(b []byte) (err error) {
		pts, err = ptio.AppendPoints(pts, b, hasWeight)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("partition: reading %d records at %d of %s: %w", count, off, h.Name(), err)
	}
	return pts, nil
}

// ReadMeta loads a metadata document written by Distribute.
func ReadMeta(fs *lustre.FS, metaFile string) (meta *ptio.PartitionMeta, err error) {
	h, err := fs.Open(metaFile)
	if err != nil {
		return nil, err
	}
	err = h.View(0, h.Size(), func(b []byte) (err error) {
		meta, err = ptio.UnmarshalPartitionMeta(b)
		return err
	})
	return meta, err
}
