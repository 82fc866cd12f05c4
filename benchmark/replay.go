package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dbscan"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/lustre"
	"repro/internal/merge"
	"repro/internal/mrnet"
	pipeline "repro/internal/mrscan"
	"repro/internal/partition"
	"repro/internal/ptio"
	"repro/internal/sweep"
)

// The staged replay walks one input through the pipeline the way
// mrscan.RunContext does — same substrates, same public functions, same
// order — but with every call into a layer under one of the benchmark's
// own spans. It is how per-layer times are taken from outside the
// program: the driver itself is not edited, and the replay's labels must
// be cluster-isomorphic to the driver's for the numbers to count.

const (
	replayInput  = "input.mrsc"
	replayOutput = "output.mrsl"
	replayParts  = "mrscan-partitions.bin"
	replayMeta   = "mrscan-partitions.json"
)

// replayLeaf is one leaf's cluster-phase state.
type replayLeaf struct {
	owned     []geom.Point
	combined  []geom.Point // owned first, then shadow
	labels    []int32      // over owned
	summaries []*merge.Summary
}

// replayOut is what the replay measured and produced.
type replayOut struct {
	labels []int // aligned with the input points

	// wall of the stages the driver also runs, start to finish, with the
	// leaves concurrent: the numerator of mrscan.replay_coverage.
	coverageWall time.Duration

	writeDataset  time.Duration
	distribute    time.Duration
	readPartition time.Duration // Σ leaves
	buildSums     time.Duration // Σ leaves
	combine       time.Duration // Σ merge.Combine calls inside the reduction
	assignIDs     time.Duration
	sweepRun      time.Duration
	labelsByID    time.Duration

	// taken after the covered stages, alone on the machine
	cluster    clusterProbe
	makePlan   time.Duration
	split      time.Duration
	readOutput time.Duration
	wireBytes  int64
	fs         lustre.Stats
	net        mrnet.Stats
	dist       *partition.DistResult
}

func stagedReplay(rec *recorder, op int, pts []geom.Point, cfg pipeline.Config) (*replayOut, error) {
	ctx := context.Background()
	out := &replayOut{}
	root := rec.start(nil, "replay", op)
	defer root.end()
	stage := func(parent *span, name string, fn func() error) (time.Duration, error) {
		d, err := timed(rec, parent, name, op, fn)
		if err != nil {
			err = fmt.Errorf("replay %s: %w", name, err)
		}
		return d, err
	}
	var err error
	start := time.Now()
	fs := lustre.New(lustre.Titan(), nil)
	g := grid.New(cfg.Eps)

	if out.writeDataset, err = stage(root, "ptio.write_dataset", func() error {
		return ptio.WriteDataset(fs.Create(replayInput), pts, false)
	}); err != nil {
		return nil, err
	}

	// Phase 1: partition, on its own flat network (§3.1.3).
	partNet, err := mrnet.New(max(cfg.Leaves/16, 1), cfg.Fanout, cfg.Costs, fs.Clock())
	if err != nil {
		return nil, err
	}
	if out.distribute, err = stage(root, "partition.distribute", func() error {
		var err error
		out.dist, err = partition.Distribute(ctx, partNet, fs, cfg.Eps, replayInput, replayParts, replayMeta,
			partition.DistOptions{NumPartitions: cfg.Leaves, MinPts: cfg.MinPts, Rebalance: cfg.Rebalance})
		if err != nil {
			return err
		}
		return syncFiles(fs, replayParts, replayMeta)
	}); err != nil {
		return nil, err
	}

	// Phase 2: cluster — one goroutine, device and workspace per leaf,
	// as the driver's default (ClusterWorkers 0) schedules them.
	clusterNet, err := mrnet.New(cfg.Leaves, cfg.Fanout, cfg.Costs, fs.Clock())
	if err != nil {
		return nil, err
	}
	leaves := make([]*replayLeaf, cfg.Leaves)
	errs := make([]error, cfg.Leaves)
	var mu sync.Mutex
	clusterSpan := rec.start(root, "cluster.leaves", op)
	var wg sync.WaitGroup
	for leaf := range leaves {
		wg.Add(1)
		go func(leaf int) {
			defer wg.Done()
			leafSpan := clusterSpan.child(fmt.Sprintf("leaf.%02d", leaf))
			defer leafSpan.end()
			st := &replayLeaf{}
			var shadow []geom.Point
			dRead, err := stage(leafSpan, "partition.read_partition", func() error {
				var err error
				st.owned, shadow, err = partition.ReadPartition(fs, replayParts, out.dist.Meta, leaf)
				return err
			})
			if err != nil {
				errs[leaf] = err
				return
			}
			st.combined = make([]geom.Point, 0, len(st.owned)+len(shadow))
			st.combined = append(append(st.combined, st.owned...), shadow...)
			var ws gdbscan.Workspace
			var res *gdbscan.Result
			if _, err := stage(leafSpan, "gdbscan.cluster", func() error {
				var err error
				res, err = gdbscan.Cluster(newDevice(cfg, fs, leaf), st.combined, clusterOptions(cfg, &ws))
				return err
			}); err != nil {
				errs[leaf] = err
				return
			}
			dSums, err := stage(leafSpan, "merge.build_summaries", func() error {
				var err error
				st.summaries, err = merge.BuildSummaries(g, leaf, st.combined, len(st.owned), res.Labels, res.Core, res.NumClusters)
				return err
			})
			if err != nil {
				errs[leaf] = err
				return
			}
			st.labels = res.Labels[:len(st.owned)]
			leaves[leaf] = st
			mu.Lock()
			out.readPartition += dRead
			out.buildSums += dSums
			mu.Unlock()
		}(leaf)
	}
	wg.Wait()
	clusterSpan.end()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 3: merge — progressive reduction up the cluster tree (§3.3).
	var final []*merge.Summary
	mergeSpan := rec.start(root, "merge", op)
	reduceSpan := mergeSpan.child("mrnet.reduce")
	final, err = mrnet.Reduce(ctx, clusterNet,
		func(leaf int) ([]*merge.Summary, error) { return leaves[leaf].summaries, nil },
		func(_ *mrnet.Node, groups [][]*merge.Summary) ([]*merge.Summary, error) {
			var combined []*merge.Summary
			d, _ := timed(rec, reduceSpan, "merge.combine", op, func() error {
				combined = merge.Combine(g, cfg.Eps, groups)
				return nil
			})
			mu.Lock()
			out.combine += d
			mu.Unlock()
			return combined, nil
		},
		summariesWireSize)
	reduceSpan.end()
	if err != nil {
		return nil, fmt.Errorf("replay mrnet.reduce: %w", err)
	}
	var mapping map[merge.ClusterKey]int32
	out.assignIDs, _ = stage(mergeSpan, "merge.assign_ids", func() error {
		mapping = merge.AssignGlobalIDs(final)
		return nil
	})
	mergeSpan.end()

	// Phase 4: sweep — global IDs down the tree, parallel write (§3.4).
	if out.sweepRun, err = stage(root, "sweep.run", func() error {
		_, err := sweep.Run(ctx, clusterNet, fs, replayOutput, mapping,
			func(leaf int) (*sweep.LeafData, error) {
				return &sweep.LeafData{Points: leaves[leaf].owned, Labels: leaves[leaf].labels}, nil
			},
			sweep.Options{IncludeNoise: true})
		if err != nil {
			return err
		}
		return syncFiles(fs, replayOutput)
	}); err != nil {
		return nil, err
	}
	if out.labelsByID, err = stage(root, "mrscan.labels_by_id", func() error {
		var err error
		out.labels, err = pipeline.LabelsByID(fs, replayOutput, pts)
		return err
	}); err != nil {
		return nil, err
	}
	out.coverageWall = time.Since(start)
	out.fs = fs.Stats()
	pn, cn := partNet.Stats(), clusterNet.Stats()
	out.net = mrnet.Stats{Packets: pn.Packets + cn.Packets, Bytes: pn.Bytes + cn.Bytes}

	// Beyond this point nothing is part of the driver's op: the same
	// layer calls again, alone on the machine, for uncontended times.
	extra := rec.start(root, "uncontended", op)
	defer extra.end()
	parts := make([][]geom.Point, len(leaves))
	for leaf, st := range leaves {
		parts[leaf] = st.combined
		out.wireBytes += summariesWireSize(st.summaries)
	}
	if out.cluster, err = probeCluster(rec, extra, op, parts, cfg); err != nil {
		return nil, err
	}

	var plan *partition.Plan
	if out.makePlan, err = stage(extra, "partition.make_plan", func() error {
		var err error
		plan, err = partition.MakePlan(g, g.HistogramOf(pts), cfg.Leaves, cfg.MinPts, cfg.Rebalance)
		return err
	}); err != nil {
		return nil, err
	}
	if out.split, err = stage(extra, "partition.split", func() error {
		_, err := partition.Split(plan, pts, partition.SplitOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	if out.readOutput, err = stage(extra, "sweep.read_output", func() error {
		_, err := sweep.ReadOutput(fs, replayOutput)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func syncFiles(fs *lustre.FS, names ...string) error {
	for _, name := range names {
		if err := fs.Sync(name); err != nil {
			return err
		}
	}
	return fs.SyncDir(".")
}

func newDevice(cfg pipeline.Config, fs *lustre.FS, id int) *gpusim.Device {
	gpu := cfg.GPU
	gpu.Name = fmt.Sprintf("gpu%04d", id)
	return gpusim.New(gpu, fs.Clock())
}

func clusterOptions(cfg pipeline.Config, ws *gdbscan.Workspace) gdbscan.Options {
	return gdbscan.Options{
		Params:          dbscan.Params{Eps: cfg.Eps, MinPts: cfg.MinPts},
		DenseBox:        cfg.DenseBox,
		Mode:            cfg.Mode,
		Blocks:          cfg.Blocks,
		ThreadsPerBlock: cfg.ThreadsPerBlock,
		LeafSize:        cfg.LeafSize,
		Workspace:       ws,
	}
}

func summariesWireSize(sums []*merge.Summary) int64 {
	var n int64
	for _, s := range sums {
		n += s.WireSize()
	}
	return n
}
