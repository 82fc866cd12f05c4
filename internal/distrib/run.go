package distrib

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/merge"
	"repro/internal/partition"
)

// Options configures a distributed run.
type Options struct {
	Eps      float64
	MinPts   int
	Leaves   int // partitions to produce (≥ workers; round-robined)
	DenseBox bool

	// Checkpoint, when non-nil, durably snapshots every partition's
	// winning response (its wire payload) under "cluster-%04d" as results
	// stream in, and a
	// later run over the same store restores those partitions instead of
	// re-dispatching them. Back the store with checkpoint.DirFS to
	// survive coordinator process restarts.
	Checkpoint *checkpoint.Store
}

// CheckpointRunID fingerprints a run for the store behind
// Options.Checkpoint: the input's name and size, the parameters that
// shape every partition's response, the shape of the summaries the
// snapshots hold and their record format — a store written under another
// ID is ignored, its partitions dispatched again.
func CheckpointRunID(input string, n int, opt Options) string {
	return fmt.Sprintf("mrscan-dist|%s|%d|%g|%d|%d|summary-v%d|%s", input, n, opt.Eps, opt.MinPts, opt.Leaves, merge.SummarySchema, checkpoint.RecordsTag)
}

// clusterSnapshot names partition i's checkpoint on the store.
func clusterSnapshot(i int) string { return fmt.Sprintf("cluster-%04d", i) }

// Result is a completed distributed run.
type Result struct {
	// Labels aligns with the input points (-1 = noise).
	Labels      []int
	NumClusters int
	// RestoredPartitions counts partitions recovered from checkpoints
	// instead of dispatched to workers.
	RestoredPartitions int
}

// Run is RunContext without a deadline.
func (c *Coordinator) Run(pts []geom.Point, opt Options) (*Result, error) {
	return c.RunContext(context.Background(), pts, opt)
}

// RunContext executes the full algorithm with the cluster phase on the
// coordinator's connected workers: partition locally, dispatch each
// partition over TCP, merge the returned summaries, and resolve global
// labels. It is the distributed counterpart of mrscan.RunContext.
// Cancelling ctx aborts the dispatch (see DispatchContext).
func (c *Coordinator) RunContext(ctx context.Context, pts []geom.Point, opt Options) (*Result, error) {
	if opt.Leaves < 1 {
		return nil, fmt.Errorf("distrib: need at least one leaf, got %d", opt.Leaves)
	}
	g := grid.New(opt.Eps)
	h, rank := g.RankedHistogramOf(pts)
	plan, err := partition.MakePlan(g, h, opt.Leaves, opt.MinPts, true)
	if err != nil {
		return nil, err
	}
	split, err := partition.SplitRanked(plan, pts, h, rank, partition.SplitOptions{})
	if err != nil {
		return nil, err
	}
	reqs := make([]WorkRequest, opt.Leaves)
	for leaf := 0; leaf < opt.Leaves; leaf++ {
		reqs[leaf] = WorkRequest{
			Leaf:     leaf,
			Eps:      opt.Eps,
			MinPts:   opt.MinPts,
			DenseBox: opt.DenseBox,
			Owned:    split.Partitions[leaf],
			Shadow:   split.Shadows[leaf],
		}
	}

	responses, todo := restorePartitions(opt.Checkpoint, reqs)
	if len(todo) > 0 {
		// Stream each winning response into its snapshot as it arrives —
		// a coordinator killed mid-dispatch resumes with the partitions
		// it already has. Chained after any caller-installed hook.
		if opt.Checkpoint != nil {
			prev := c.OnResponse
			c.OnResponse = func(i int, resp *WorkResponse) {
				if prev != nil {
					prev(i, resp)
				}
				// Best-effort: a failed snapshot write costs re-execution
				// on resume, not correctness now.
				_ = opt.Checkpoint.Save(clusterSnapshot(resp.Leaf), resp)
			}
			defer func() { c.OnResponse = prev }()
		}
		dispatched, err := c.DispatchContext(ctx, todo)
		if err != nil {
			return nil, err
		}
		for _, r := range dispatched {
			responses[r.Leaf] = r
		}
	}

	// Merge the summaries exactly as the tree root would (a flat
	// combine is a one-level tree).
	groups := make([][]*merge.Summary, 0, len(responses))
	for _, r := range responses {
		groups = append(groups, r.Summaries)
	}
	final := merge.Combine(g, opt.Eps, groups)
	labels, err := alignLabels(pts, reqs, responses, merge.AssignGlobalIDs(final))
	if err != nil {
		return nil, err
	}
	return &Result{Labels: labels, NumClusters: len(final), RestoredPartitions: len(reqs) - len(todo)}, nil
}

// restorePartitions loads the partitions a previous run checkpointed on
// store (nil: none) and returns the requests still to dispatch. A corrupt
// or missing snapshot simply re-dispatches that partition.
func restorePartitions(store *checkpoint.Store, reqs []WorkRequest) (responses []*WorkResponse, todo []WorkRequest) {
	responses = make([]*WorkResponse, len(reqs))
	if store == nil {
		return responses, reqs
	}
	for leaf := range reqs {
		var resp WorkResponse
		if err := store.Load(clusterSnapshot(leaf), &resp); err == nil && resp.Leaf == leaf {
			responses[leaf] = &resp
			continue
		}
		todo = append(todo, reqs[leaf])
	}
	return responses, todo
}

// alignLabels is the sweep: it resolves every leaf's owned labels to
// global IDs through one table per leaf (-1 where the mapping has no
// entry) and aligns them with pts by point ID.
func alignLabels(pts []geom.Point, reqs []WorkRequest, responses []*WorkResponse, mapping map[merge.ClusterKey]int32) ([]int, error) {
	global := merge.GlobalByLeaf(mapping, len(reqs))
	starts := make([]int, len(reqs)+1) // leaf's owned points are pairs starts[leaf]..starts[leaf+1]
	for leaf, r := range responses {
		if len(r.Labels) != len(reqs[leaf].Owned) {
			return nil, fmt.Errorf("distrib: leaf %d returned %d labels for %d points", leaf, len(r.Labels), len(reqs[leaf].Owned))
		}
		starts[leaf+1] = starts[leaf] + len(r.Labels)
	}
	const absent = -2
	var unmapped error
	leaf := 0
	labels, dup, ok := geom.AlignByID(pts, starts[len(reqs)], func(i int) (uint64, int) {
		for i >= starts[leaf+1] { // pairs are asked for in order
			leaf++
		}
		i -= starts[leaf]
		l := int(responses[leaf].Labels[i])
		if l >= 0 && l < len(global[leaf]) && global[leaf][l] >= 0 {
			l = int(global[leaf][l])
		} else if l >= 0 {
			unmapped = fmt.Errorf("distrib: leaf %d cluster %d missing from mapping", leaf, l)
		}
		return reqs[leaf].Owned[i].ID, l
	}, absent)
	if unmapped != nil {
		return nil, unmapped
	}
	if !ok {
		return nil, fmt.Errorf("distrib: point %d returned by two leaves", dup)
	}
	if i := slices.Index(labels, absent); i >= 0 {
		return nil, fmt.Errorf("distrib: point %d not returned by any worker", pts[i].ID)
	}
	return labels, nil
}
