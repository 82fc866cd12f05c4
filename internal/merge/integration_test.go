package merge

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/partition"
	"repro/internal/quality"
)

// TestMergeIsolatedFromGPU drives the merge phase with *exact* per-leaf
// clusterings (the sequential reference run on each partition+shadow), so
// any failure is attributable to the summary/merge logic alone. The
// merged global clustering must score >= 0.995 against a global
// sequential run, across partition counts, random tree shapes and both
// datasets.
func TestMergeIsolatedFromGPU(t *testing.T) {
	// The uniform case sits right at the core-density margin
	// (MinPts = 8 vs ~7.5 expected neighbors), maximizing the paper's
	// residual error class: border points whose only core neighbors are
	// shadow-misclassified, which their owner labels noise. The sweep's
	// rule (SweepLabel) gives them the cluster a shadow view claims, and
	// the core-point partition stays exact; what quality still loses
	// there is border points within Eps of two clusters' cores, where
	// either is exact DBSCAN, so the floor stays 0.98 rather than 0.995.
	cases := []struct {
		name   string
		pts    []geom.Point
		params geom.Params
		floor  float64
	}{
		{"twitter", dataset.Twitter(6000, 31), geom.Params{Eps: 0.1, MinPts: 10}, 0.995},
		{"sdss", dataset.SDSS(6000, 32), geom.Params{Eps: 0.00015, MinPts: 5}, 0.995},
		{"uniform", dataset.Uniform(6000, 33, geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5}), geom.Params{Eps: 0.1, MinPts: 8}, 0.98},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			global, err := dbscan.Cluster(tc.pts, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			for _, nParts := range []int{2, 5, 9} {
				labels := mergeViaSummaries(t, tc.pts, tc.params, nParts, 41)
				score, err := quality.Score(global.Labels, labels)
				if err != nil {
					t.Fatal(err)
				}
				if score < tc.floor {
					t.Errorf("nParts=%d: merged quality = %.4f, want >= %.3f", nParts, score, tc.floor)
				}
				// The core partition itself must be exact: every quality
				// loss must come from border/noise flips.
				coreSplits, falseMerges := corePartitionDiff(global, labels)
				if coreSplits != 0 || falseMerges != 0 {
					t.Errorf("nParts=%d: core splits=%d falseMerges=%d, want 0/0",
						nParts, coreSplits, falseMerges)
				}
			}
		})
	}
}

// corePartitionDiff counts cluster splits and false merges over core
// points only.
func corePartitionDiff(global *dbscan.Result, labels []int) (splits, falseMerges int) {
	refToGot := map[int]int{}
	gotToRef := map[int]int{}
	for i := range labels {
		if !global.Core[i] || labels[i] < 0 {
			if global.Core[i] {
				splits++ // core point lost entirely
			}
			continue
		}
		r, g := global.Labels[i], labels[i]
		if prev, ok := refToGot[r]; ok && prev != g {
			splits++
		} else {
			refToGot[r] = g
		}
		if prev, ok := gotToRef[g]; ok && prev != r {
			falseMerges++
		} else {
			gotToRef[g] = r
		}
	}
	return splits, falseMerges
}

// mergeViaSummaries partitions pts, clusters each partition exactly,
// merges the summaries through a random tree, and returns global labels
// aligned with pts.
func mergeViaSummaries(t *testing.T, pts []geom.Point, params geom.Params, nParts int, treeSeed int64) []int {
	t.Helper()
	g := grid.New(params.Eps)
	h := g.HistogramOf(pts)
	plan, err := partition.MakePlan(g, h, nParts, params.MinPts, true)
	if err != nil {
		t.Fatal(err)
	}
	split, err := partition.Split(plan, pts, partition.SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(treeSeed))

	type leafOut struct {
		owned  []geom.Point
		labels []int
		sums   []*Summary
	}
	leaves := make([]leafOut, nParts)
	for leaf := 0; leaf < nParts; leaf++ {
		combined := append(append([]geom.Point(nil), split.Partitions[leaf]...), split.Shadows[leaf]...)
		res, err := dbscan.Cluster(combined, params)
		if err != nil {
			t.Fatal(err)
		}
		labels32 := make([]int32, len(res.Labels))
		for i, l := range res.Labels {
			labels32[i] = int32(l)
		}
		sums, err := BuildSummaries(g, leaf, combined, len(split.Partitions[leaf]), labels32, res.Core, res.NumClusters)
		if err != nil {
			t.Fatal(err)
		}
		leaves[leaf] = leafOut{
			owned:  split.Partitions[leaf],
			labels: res.Labels[:len(split.Partitions[leaf])],
			sums:   sums,
		}
	}

	// Random progressive merge: repeatedly combine random groups of the
	// outstanding summary lists, as arbitrary tree shapes would.
	groups := make([][]*Summary, nParts)
	for i := range groups {
		groups[i] = leaves[i].sums
	}
	for len(groups) > 1 {
		k := 2 + rng.Intn(3)
		if k > len(groups) {
			k = len(groups)
		}
		merged := Combine(g, params.Eps, groups[:k])
		groups = append([][]*Summary{merged}, groups[k:]...)
	}
	mapping := AssignGlobalIDs(groups[0])

	// Relabel owned points by the sweep's rule, align by point ID.
	global, claims := GlobalByLeaf(mapping, nParts), BorderClaims(groups[0], mapping)
	byID := make(map[uint64]int, len(pts))
	for leaf := 0; leaf < nParts; leaf++ {
		for i, p := range leaves[leaf].owned {
			l := leaves[leaf].labels[i]
			gid, ok := SweepLabel(global[leaf], int32(l), p.ID, claims)
			if !ok {
				t.Fatalf("leaf %d cluster %d missing from mapping", leaf, l)
			}
			byID[p.ID] = int(gid)
		}
	}
	labels := make([]int, len(pts))
	for i, p := range pts {
		l, ok := byID[p.ID]
		if !ok {
			t.Fatalf("point %d not owned by any leaf", p.ID)
		}
		labels[i] = l
	}
	return labels
}
