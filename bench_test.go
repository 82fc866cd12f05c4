// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5) at laptop scale, plus ablations of the design choices
// called out in DESIGN.md. Each benchmark runs the real pipeline on a
// scaled-down ladder (the harness in cmd/experiments prints the same
// rows plus the paper-scale projections from internal/scale).
//
// Custom metrics reported via b.ReportMetric:
//
//	partition-frac   fraction of total time in the partition phase (Fig 9a)
//	gpu-sec          slowest leaf's GPGPU DBSCAN seconds (Fig 9c)
//	quality          DBDC quality score vs sequential DBSCAN (Fig 11)
//	clusters         global cluster count
package mrscan

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/kdtree"
	"repro/internal/partition"
	"repro/internal/quality"
)

// benchPointsPerLeaf is the scaled-down stand-in for the paper's 800k
// points per leaf.
const benchPointsPerLeaf = 12_500

// benchLeaves is the scaled-down Table 1 ladder.
var benchLeaves = []int{2, 4, 8, 16}

var (
	twitterCache = map[int][]Point{}
	twitterMu    sync.Mutex
)

func twitterData(n int) []Point {
	twitterMu.Lock()
	defer twitterMu.Unlock()
	pts, ok := twitterCache[n]
	if !ok {
		pts = dataset.Twitter(n, 1)
		twitterCache[n] = pts
	}
	return pts
}

func runPipeline(b *testing.B, pts []Point, cfg Config) *Result {
	b.Helper()
	res, _, err := RunPoints(pts, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1WeakConfigs reproduces Table 1's configuration ladder:
// points grow with leaves at a fixed per-leaf load; partitioner node
// counts follow the paper's ratio (Leaves/16, min 1).
func BenchmarkTable1WeakConfigs(b *testing.B) {
	for _, leaves := range benchLeaves {
		pts := twitterData(leaves * benchPointsPerLeaf)
		b.Run(fmt.Sprintf("leaves=%d/points=%d", leaves, len(pts)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runPipeline(b, pts, Default(0.1, 40, leaves))
				b.ReportMetric(float64(res.NumClusters), "clusters")
			}
		})
	}
}

// BenchmarkFig8WeakScalingTotal reproduces Figure 8: total elapsed time
// under weak scaling for the paper's four MinPts values.
func BenchmarkFig8WeakScalingTotal(b *testing.B) {
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, leaves := range benchLeaves {
			pts := twitterData(leaves * benchPointsPerLeaf)
			b.Run(fmt.Sprintf("minPts=%d/leaves=%d", minPts, leaves), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runPipeline(b, pts, Default(0.1, minPts, leaves))
				}
			})
		}
	}
}

// BenchmarkFig9aPartitionTime reproduces Figure 9a: the partition phase,
// reporting its fraction of total time.
func BenchmarkFig9aPartitionTime(b *testing.B) {
	for _, leaves := range benchLeaves {
		pts := twitterData(leaves * benchPointsPerLeaf)
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runPipeline(b, pts, Default(0.1, 400, leaves))
				b.ReportMetric(res.Times.Partition.Seconds(), "partition-sec")
				b.ReportMetric(res.Times.Partition.Seconds()/res.Times.Total.Seconds(), "partition-frac")
			}
		})
	}
}

// BenchmarkFig9bClusterMergeSweep reproduces Figure 9b: the combined
// cluster + merge + sweep time.
func BenchmarkFig9bClusterMergeSweep(b *testing.B) {
	for _, minPts := range []int{40, 400} {
		for _, leaves := range benchLeaves {
			pts := twitterData(leaves * benchPointsPerLeaf)
			b.Run(fmt.Sprintf("minPts=%d/leaves=%d", minPts, leaves), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := runPipeline(b, pts, Default(0.1, minPts, leaves))
					cms := res.Times.Cluster + res.Times.Merge + res.Times.Sweep
					b.ReportMetric(cms.Seconds(), "cms-sec")
				}
			})
		}
	}
}

// BenchmarkFig9cGPUDBSCAN reproduces Figure 9c: time inside the GPGPU
// DBSCAN only (slowest leaf), across MinPts values.
func BenchmarkFig9cGPUDBSCAN(b *testing.B) {
	for _, minPts := range []int{4, 40, 400} {
		for _, leaves := range benchLeaves {
			pts := twitterData(leaves * benchPointsPerLeaf)
			b.Run(fmt.Sprintf("minPts=%d/leaves=%d", minPts, leaves), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := runPipeline(b, pts, Default(0.1, minPts, leaves))
					b.ReportMetric(res.Times.GPUDBSCAN.Seconds(), "gpu-sec")
				}
			})
		}
	}
}

// BenchmarkFig10StrongScaling reproduces Figure 10: a fixed dataset
// clustered by growing leaf counts.
func BenchmarkFig10StrongScaling(b *testing.B) {
	pts := twitterData(16 * benchPointsPerLeaf)
	for _, leaves := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runPipeline(b, pts, Default(0.1, 40, leaves))
				b.ReportMetric(res.Times.GPUDBSCAN.Seconds(), "gpu-sec")
			}
		})
	}
}

// BenchmarkFig11Quality reproduces Figure 11: output quality versus
// sequential DBSCAN across data sizes (the paper holds ≥ 0.995).
func BenchmarkFig11Quality(b *testing.B) {
	for _, n := range []int{25_000, 50_000, 100_000} {
		pts := twitterData(n)
		ref, err := DBSCAN(pts, 0.1, 40)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, labels, err := RunPoints(pts, Default(0.1, 40, 8))
				if err != nil {
					b.Fatal(err)
				}
				q, err := quality.Score(ref, labels)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(q, "quality")
			}
		})
	}
}

// BenchmarkFig12SDSSWeak reproduces Figure 12: SDSS weak scaling at
// Eps = 0.00015, MinPts = 5.
func BenchmarkFig12SDSSWeak(b *testing.B) {
	for _, leaves := range benchLeaves {
		pts := dataset.SDSS(leaves*benchPointsPerLeaf, 2)
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runPipeline(b, pts, Default(0.00015, 5, leaves))
			}
		})
	}
}

// BenchmarkFig13SDSSPartition reproduces Figure 13: the SDSS partition
// phase time.
func BenchmarkFig13SDSSPartition(b *testing.B) {
	for _, leaves := range benchLeaves {
		pts := dataset.SDSS(leaves*benchPointsPerLeaf, 2)
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := runPipeline(b, pts, Default(0.00015, 5, leaves))
				b.ReportMetric(res.Times.Partition.Seconds(), "partition-sec")
			}
		})
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationDenseBox compares the cluster phase with the §3.2.3
// dense box optimization on and off.
func BenchmarkAblationDenseBox(b *testing.B) {
	pts := twitterData(8 * benchPointsPerLeaf)
	for _, dense := range []bool{true, false} {
		b.Run(fmt.Sprintf("densebox=%v", dense), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Default(0.1, 40, 8)
				cfg.DenseBox = dense
				res := runPipeline(b, pts, cfg)
				b.ReportMetric(res.Times.GPUDBSCAN.Seconds(), "gpu-sec")
				b.ReportMetric(float64(res.Stats.DenseBoxPoints), "eliminated-points")
			}
		})
	}
}

// BenchmarkAblationHostTransfers compares Mr. Scan's single round trip
// (§3.2.2) against the CUDA-DClust per-iteration transfer profile.
func BenchmarkAblationHostTransfers(b *testing.B) {
	pts := twitterData(4 * benchPointsPerLeaf)
	for _, mode := range []gdbscan.Mode{gdbscan.ModeMrScan, gdbscan.ModeCUDADClust} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev := gpusim.New(gpusim.K20(), nil)
				_, err := gdbscan.Cluster(dev, pts, gdbscan.Options{
					Params:   geom.Params{Eps: 0.1, MinPts: 40},
					Mode:     mode,
					DenseBox: mode == gdbscan.ModeMrScan,
				})
				if err != nil {
					b.Fatal(err)
				}
				st := dev.Stats()
				b.ReportMetric(float64(st.H2DTransfers+st.D2HTransfers), "transfers")
				b.ReportMetric(dev.Clock().Resource(dev.Config().Name+"/pcie").Seconds(), "pcie-sim-sec")
			}
		})
	}
}

// BenchmarkAblationShadowReps compares the partitioner with and without
// the representative-shadow write reduction (§3.1.3).
func BenchmarkAblationShadowReps(b *testing.B) {
	pts := twitterData(8 * benchPointsPerLeaf)
	for _, reps := range []bool{false, true} {
		b.Run(fmt.Sprintf("shadowreps=%v", reps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Default(0.1, 40, 8)
				cfg.ShadowReps = reps
				res := runPipeline(b, pts, cfg)
				b.ReportMetric(float64(res.Stats.WrittenPoints), "written-points")
			}
		})
	}
}

// BenchmarkAblationDirectTransfer compares the partition phase through
// Lustre (small random writes) against the §6 future-work path that sends
// partitions over the network directly to the clustering processes.
func BenchmarkAblationDirectTransfer(b *testing.B) {
	pts := twitterData(8 * benchPointsPerLeaf)
	for _, direct := range []bool{false, true} {
		name := "via-lustre"
		if direct {
			name = "direct-network"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Default(0.1, 40, 8)
				cfg.DirectPartitions = direct
				res := runPipeline(b, pts, cfg)
				b.ReportMetric(res.Times.Partition.Seconds(), "partition-sec")
			}
		})
	}
}

// BenchmarkAblationHotCellSplit compares strong scaling with and without
// hot-cell subdivision (§5.1.2 future work): without it the slowest leaf
// owns the densest Eps cell whole; with it the cell spreads over leaves.
func BenchmarkAblationHotCellSplit(b *testing.B) {
	pts := twitterData(16 * benchPointsPerLeaf)
	for _, threshold := range []int64{0, 10_000} {
		name := "split=off"
		if threshold > 0 {
			name = "split=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Default(0.1, 40, 16)
				cfg.HotCellThreshold = threshold
				res := runPipeline(b, pts, cfg)
				b.ReportMetric(res.Times.GPUDBSCAN.Seconds(), "slowest-gpu-sec")
				b.ReportMetric(float64(res.Stats.MaxLeafPoints), "max-leaf-points")
			}
		})
	}
}

// BenchmarkAblationRebalance compares partition plans with and without
// the backward rebalancing pass (§3.1.2), reporting load imbalance.
func BenchmarkAblationRebalance(b *testing.B) {
	pts := twitterData(8 * benchPointsPerLeaf)
	g := grid.New(0.1)
	h := g.HistogramOf(pts)
	for _, rebalance := range []bool{false, true} {
		b.Run(fmt.Sprintf("rebalance=%v", rebalance), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, err := partition.MakePlan(g, h, 16, 40, rebalance)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(plan.MaxTotal())/plan.MeanTotal(), "imbalance")
			}
		})
	}
}

// BenchmarkCheckpointOverhead compares a full pipeline run with phase
// checkpointing off and on. The snapshots ride the simulated Lustre FS
// through the same charged write path as the pipeline's own I/O, so the
// delta between the two sub-benchmarks is the real cost of durability.
// Measured at PR 25 on a 2-core box: checkpoint-on takes 29–31 ms/op
// against 26–27 off (≈ 1.13×) and allocates 24.5 MB/op against 20.1
// (1.22×); with gob snapshots it was 36–39 against 28–30 ms/op and 32.8
// MB/op (1.63×). TestCheckpointOverheadBytes holds the bytes ratio under
// 1.25×, clock-free.
func BenchmarkCheckpointOverhead(b *testing.B) {
	pts := twitterData(4 * benchPointsPerLeaf)
	for _, ckpt := range []bool{false, true} {
		b.Run(fmt.Sprintf("checkpoint=%v", ckpt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := Default(0.1, 40, 4)
				cfg.Checkpoint = ckpt
				res := runPipeline(b, pts, cfg)
				b.ReportMetric(res.Times.Total.Seconds(), "total-sec")
				b.ReportMetric(res.Stats.SimNow.Seconds(), "sim-sec")
			}
		})
	}
}

// --- Cluster-phase throughput benchmarks ---
//
// The cluster phase dominates the pipeline ("the time of the cluster
// phase is dictated by the slowest node", §5), and a leaf processes its
// partitions back-to-back on one device. These benchmarks measure that
// inner loop directly: repeated gdbscan.Cluster calls on a single
// simulated device over realistic partition shapes. They are the
// wall-clock series gated by CI against BENCH_14.json (cmd/benchjson
// -compare).

// benchClusterPartitions splits pts into the combined (owned + shadow)
// per-leaf point sets the cluster phase sees, using the real partitioner.
func benchClusterPartitions(b *testing.B, pts []Point, parts int) [][]Point {
	b.Helper()
	g := grid.New(0.1)
	h := g.HistogramOf(pts)
	plan, err := partition.MakePlan(g, h, parts, 40, true)
	if err != nil {
		b.Fatal(err)
	}
	split, err := partition.Split(plan, pts, partition.SplitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	combined := make([][]Point, parts)
	for i := 0; i < parts; i++ {
		combined[i] = append(append([]Point{}, split.Partitions[i]...), split.Shadows[i]...)
	}
	return combined
}

// BenchmarkClusterMultiPartition runs every partition of a dataset
// through gdbscan.Cluster on one device per op — the per-leaf work loop
// of the cluster phase. Device buffers and KD workspaces are reusable
// across the calls, so this is where allocation churn shows up.
func BenchmarkClusterMultiPartition(b *testing.B) {
	for _, parts := range []int{4, 8} {
		pts := twitterData(parts * benchPointsPerLeaf)
		combined := benchClusterPartitions(b, pts, parts)
		b.Run(fmt.Sprintf("parts=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			dev := gpusim.New(gpusim.K20(), nil)
			var ws gdbscan.Workspace
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, part := range combined {
					if _, err := gdbscan.Cluster(dev, part, gdbscan.Options{
						Params:    geom.Params{Eps: 0.1, MinPts: 40},
						DenseBox:  true,
						Workspace: &ws,
					}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRunPoints is the whole front door at the two batch workloads'
// shapes (benchmark/'s batch_io and batch_dense): points in, aligned
// labels out, through every file of the batch data path. B/op here is the
// number behind alloc_mb_per_mpoint, and it repeats to well under 1 %,
// which is what lets benchjson gate it.
func BenchmarkRunPoints(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  []Point
		cfg  Config
	}{
		{"sdss150k_16", dataset.SDSS(150_000, 1), Default(0.00015, 5, 16)},
		{"twitter60k_8", twitterData(60_000), Default(0.1, 40, 8)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runPipeline(b, c.pts, c.cfg)
			}
		})
	}
}

// BenchmarkPartition is the partition-phase microbenchmark: the full
// in-memory partition computation — density histogram, plan (with the
// backward rebalancing pass), and the point split with shadow
// regions — per op, at cluster-phase leaf counts. It pins the baseline
// for the partition-phase attack (ROADMAP item 2); like the Cluster
// series it is wall-clock gated by CI against BENCH_14.json.
func BenchmarkPartition(b *testing.B) {
	for _, leaves := range []int{4, 8} {
		pts := twitterData(leaves * benchPointsPerLeaf)
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := grid.New(0.1)
				h := g.HistogramOf(pts)
				plan, err := partition.MakePlan(g, h, leaves, 40, true)
				if err != nil {
					b.Fatal(err)
				}
				split, err := partition.Split(plan, pts, partition.SplitOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(plan.MaxTotal())/plan.MeanTotal(), "imbalance")
				b.ReportMetric(float64(len(split.Partitions)), "partitions")
			}
		})
	}
}

// BenchmarkClusterSinglePartition is one partition-sized Cluster call per
// op on a reused device: the classify+expand hot path without
// multi-partition amortization.
func BenchmarkClusterSinglePartition(b *testing.B) {
	pts := twitterData(2 * benchPointsPerLeaf)
	b.ReportAllocs()
	dev := gpusim.New(gpusim.K20(), nil)
	var ws gdbscan.Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gdbscan.Cluster(dev, pts, gdbscan.Options{
			Params:    geom.Params{Eps: 0.1, MinPts: 40},
			DenseBox:  true,
			Workspace: &ws,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexStructures compares the spatial indexes of §2.1 — no
// index, the Eps grid and the KD-tree — on the query DBSCAN repeats: one
// op finds the Eps-neighbourhood of every point of Twitter 20k, building
// the index first. It is the O(n²) vs O(n log n) row of EXPERIMENTS.md;
// the neighbours/op metric is the same in every arm.
func BenchmarkIndexStructures(b *testing.B) {
	pts := twitterData(20_000)
	const eps = 0.1
	arms := []struct {
		name      string
		neighbors func() int
	}{
		{"brute", func() int {
			n := 0
			for i, p := range pts {
				for j, q := range pts {
					if j != i && geom.Dist2(p, q) <= eps*eps {
						n++
					}
				}
			}
			return n
		}},
		{"grid", func() int {
			idx := grid.NewIndex(grid.New(eps), pts)
			n := 0
			for i, p := range pts {
				idx.Neighbors(p, eps, int32(i), func(int32) { n++ })
			}
			return n
		}},
		{"kdtree", func() int {
			t := kdtree.Build(pts, 0)
			n := 0
			for i, p := range pts {
				t.Range(p, eps, int32(i), func(int32) bool { n++; return true })
			}
			return n
		}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				n = arm.neighbors()
			}
			b.ReportMetric(float64(n), "neighbors/op")
		})
	}
}

// BenchmarkBaselinePDS runs the PDSDBSCAN-style baseline across worker
// counts, reporting the disjoint-set message proxy (§2.2's bottleneck).
func BenchmarkBaselinePDS(b *testing.B) {
	pts := twitterData(4 * benchPointsPerLeaf)
	params := geom.Params{Eps: 0.1, MinPts: 40}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := baseline.PDS(pts, params, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Messages), "dsu-messages")
			}
		})
	}
}

// BenchmarkBaselineDBDCQuality contrasts the DBDC-style baseline's output
// quality with Mr. Scan's ≥0.995 (Figure 11's framing in §2.2).
func BenchmarkBaselineDBDCQuality(b *testing.B) {
	pts := twitterData(4 * benchPointsPerLeaf)
	ref, err := DBSCAN(pts, 0.1, 40)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dbdc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := baseline.DBDC(pts, geom.Params{Eps: 0.1, MinPts: 40}, baseline.DBDCOptions{Slaves: 8})
			if err != nil {
				b.Fatal(err)
			}
			q, err := quality.Score(ref, res.Labels)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(q, "quality")
		}
	})
	b.Run("mrscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, labels, err := RunPoints(pts, Default(0.1, 40, 8))
			if err != nil {
				b.Fatal(err)
			}
			q, err := quality.Score(ref, labels)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(q, "quality")
		}
	})
}
