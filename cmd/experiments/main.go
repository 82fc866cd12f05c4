// Command experiments regenerates every table and figure of the paper's
// evaluation (§5). For each experiment it prints:
//
//   - measured rows: the real pipeline executed at laptop scale (a
//     scaled-down ladder with -ppl points per leaf, default 12,500 in
//     place of the paper's 800,000), and
//   - modeled rows: the calibrated cost model (internal/scale) projected
//     to the paper's Titan-scale configurations,
//
// together with the values the paper reports, so shapes can be compared
// directly. EXPERIMENTS.md is generated from this output.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -exp fig9c      # one experiment
//	experiments -ppl 25000      # heavier measured ladder
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/mrscan"
	"repro/internal/partition"
	"repro/internal/quality"
	"repro/internal/scale"
	"repro/internal/viz"
)

var (
	ppl     = flag.Int("ppl", 12_500, "measured-run points per leaf (paper: 800,000)")
	seed    = flag.Int64("seed", 1, "dataset seed")
	leaves  = flag.String("ladder", "2,4,8,16", "measured-run leaf ladder")
	expFlag = flag.String("exp", "all", "experiment: all|table1|fig2|fig8|fig9a|fig9b|fig9c|fig10|fig11|fig12|fig13|ablations|calibrate")
	fig2Dir = flag.String("fig2ppm", "", "directory to write Figure 2 partition images (PPM); empty = text only")
)

func main() {
	flag.Parse()
	ladder, err := parseLadder(*leaves)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	h := &harness{ppl: *ppl, seed: *seed, ladder: ladder}
	experiments := map[string]func(){
		"table1":    h.table1,
		"fig2":      h.fig2,
		"fig8":      h.fig8,
		"fig9a":     h.fig9a,
		"fig9b":     h.fig9b,
		"fig9c":     h.fig9c,
		"fig10":     h.fig10,
		"fig11":     h.fig11,
		"fig12":     h.fig12,
		"fig13":     h.fig13,
		"ablations": h.ablations,
		"calibrate": h.calibrate,
	}
	if *expFlag == "all" {
		for _, name := range []string{"table1", "fig2", "fig8", "fig9a", "fig9b", "fig9c", "fig10", "fig11", "fig12", "fig13", "ablations", "calibrate"} {
			experiments[name]()
		}
		return
	}
	run, ok := experiments[*expFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
	run()
}

func parseLadder(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil || v < 1 {
			return nil, fmt.Errorf("bad ladder entry %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

type harness struct {
	ppl    int
	seed   int64
	ladder []int

	twitterCache map[int][]geom.Point
}

func (h *harness) twitter(n int) []geom.Point {
	if h.twitterCache == nil {
		h.twitterCache = make(map[int][]geom.Point)
	}
	if pts, ok := h.twitterCache[n]; ok {
		return pts
	}
	pts := dataset.Twitter(n, h.seed)
	h.twitterCache[n] = pts
	return pts
}

func (h *harness) run(pts []geom.Point, cfg mrscan.Config) *mrscan.Result {
	res, _, err := mrscan.RunPoints(pts, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: run failed:", err)
		os.Exit(1)
	}
	return res
}

func header(title, paper string) {
	fmt.Printf("\n=== %s ===\n", title)
	fmt.Printf("paper: %s\n", paper)
}

func secs(d time.Duration) float64 { return d.Seconds() }

// --- experiment implementations ---

func (h *harness) table1() {
	header("Table 1: weak scaling configurations",
		"points 1.6M-6.5536B, internal processes 0-32, leaves 2-8192, partition nodes 2-128")
	fmt.Println("measured (scaled-down ladder actually executed):")
	fmt.Printf("%-12s %-12s %-10s %-16s\n", "points", "internal", "leaves", "partition nodes")
	for _, l := range h.ladder {
		pts := h.twitter(l * h.ppl)
		cfg := mrscan.Default(0.1, 40, l)
		res := h.run(pts, cfg)
		internal := scale.InternalProcessesFor(l)
		partNodes := l / 16
		if partNodes < 1 {
			partNodes = 1
		}
		_ = res
		fmt.Printf("%-12d %-12d %-10d %-16d\n", len(pts), internal, l, partNodes)
	}
	fmt.Println("paper-scale ladder (Table 1 exactly, from the topology rules):")
	fmt.Printf("%-14s %-12s %-10s %-16s\n", "points", "internal", "leaves", "partition nodes")
	for _, l := range scale.Table1Leaves {
		fmt.Printf("%-14d %-12d %-10d %-16d\n",
			l*scale.WeakPointsPerLeaf, scale.InternalProcessesFor(l), l, scale.PartNodesFor(l))
	}
}

// fig2 reproduces the partition algorithm walk-through of Figure 2: the
// oversized final partition before rebalancing (the populous end of the
// iteration order lands in the last partition) and the balanced result
// after.
func (h *harness) fig2() {
	header("Figure 2: partition boundaries before/after rebalancing",
		"the last partition absorbs the leftovers (the Eastern US in the paper's example); rebalancing moves cells backward until every partition fits 1.075x the final target")
	pts := h.twitter(8 * h.ppl)
	g := grid.New(0.1)
	hist := g.HistogramOf(pts)
	for _, rebalance := range []bool{false, true} {
		plan, err := partition.MakePlan(g, hist, 8, 40, rebalance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		label := "before rebalancing"
		if rebalance {
			label = "after rebalancing"
		}
		fmt.Printf("%s (mean incl. shadows = %.0f, threshold = %.0f):\n",
			label, plan.MeanTotal(), partition.RebalanceThreshold*plan.MeanTotal())
		for i, s := range plan.Specs {
			bar := strings.Repeat("#", int(s.Total()*40/(plan.MaxTotal()+1)))
			fmt.Printf("  partition %d: %7d points (+%6d shadow) %s\n",
				i, s.PointCount, s.ShadowCount, bar)
		}
		if *fig2Dir != "" {
			// Color every point by its owning partition — the paper's
			// Figure 2 images of partitioned tweets.
			owners := make([]int, len(pts))
			for i, p := range pts {
				owners[i], _ = plan.UnitOwner(partition.CellUnit(g.CellOf(p)))
			}
			name := fmt.Sprintf("%s/fig2-%s.ppm", *fig2Dir, map[bool]string{false: "before", true: "after"}[rebalance])
			f, err := os.Create(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			if err := viz.WritePPM(f, pts, owners, viz.Options{Width: 1200, Height: 600}); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("  wrote %s\n", name)
		}
	}
}

func (h *harness) fig8() {
	header("Figure 8: total elapsed time, weak scaling (Twitter, Eps=0.1)",
		"6.5B points in 1,040-1,401s depending on MinPts; growth 18.5-31.7x over 4096x data")
	fmt.Println("measured (real pipeline, scaled-down ladder):")
	fmt.Printf("%-8s %-10s %-8s %-10s\n", "minPts", "leaves", "points", "total")
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, l := range h.ladder {
			pts := h.twitter(l * h.ppl)
			res := h.run(pts, mrscan.Default(0.1, minPts, l))
			fmt.Printf("%-8d %-10d %-8d %9.3fs\n", minPts, l, len(pts), secs(res.Times.Total))
		}
	}
	fmt.Println("modeled (paper scale, internal/scale):")
	m := scale.Twitter()
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, row := range m.WeakScaling(scale.Table1Leaves, minPts) {
			fmt.Println("  " + row.String())
		}
	}
}

func (h *harness) fig9a() {
	header("Figure 9a: partition phase time (Twitter, MinPts=400)",
		"scales linearly with data; ~68% of total at scale; write 65.2% / read 29.9% of the phase")
	fmt.Println("measured (in-phase split from simulated Lustre costs):")
	fmt.Printf("%-10s %-8s %-12s %-10s %-12s\n", "leaves", "points", "partition", "of total", "write/read sim")
	for _, l := range h.ladder {
		pts := h.twitter(l * h.ppl)
		res := h.run(pts, mrscan.Default(0.1, 400, l))
		ratio := 0.0
		if res.Times.PartitionReadSim > 0 {
			ratio = float64(res.Times.PartitionWriteSim) / float64(res.Times.PartitionReadSim)
		}
		fmt.Printf("%-10d %-8d %10.3fs %9.1f%% %10.1fx\n", l, len(pts),
			secs(res.Times.Partition), 100*secs(res.Times.Partition)/secs(res.Times.Total), ratio)
	}
	fmt.Println("modeled (paper scale):")
	m := scale.Twitter()
	for _, row := range m.WeakScaling(scale.Table1Leaves, 400) {
		fmt.Printf("  leaves=%-5d partition=%7.1fs (%.0f%% of total)\n",
			row.Leaves, row.Partition, 100*row.Partition/row.Total)
	}
}

func (h *harness) fig9b() {
	header("Figure 9b: cluster+merge+sweep time (Twitter)",
		"similar shape to GPU DBSCAN; MinPts=4000 adds linear MRNet startup growth")
	fmt.Println("measured:")
	fmt.Printf("%-8s %-10s %-12s\n", "minPts", "leaves", "cms")
	for _, minPts := range []int{40, 4000} {
		for _, l := range h.ladder {
			pts := h.twitter(l * h.ppl)
			res := h.run(pts, mrscan.Default(0.1, minPts, l))
			cms := res.Times.Cluster + res.Times.Merge + res.Times.Sweep
			fmt.Printf("%-8d %-10d %10.3fs\n", minPts, l, secs(cms))
		}
	}
	fmt.Println("modeled (paper scale):")
	m := scale.Twitter()
	for _, minPts := range []int{40, 4000} {
		for _, row := range m.WeakScaling(scale.Table1Leaves, minPts) {
			fmt.Printf("  minPts=%-5d leaves=%-5d cms=%7.1fs\n", minPts, row.Leaves, row.ClusterMergeSweep)
		}
	}
}

func (h *harness) fig9c() {
	header("Figure 9c: GPGPU DBSCAN time (Twitter)",
		"dense-box dip at mid scale for MinPts<=400, upturn at 6.5B; MinPts=4000 logarithmic, no dip")
	fmt.Println("measured (slowest leaf):")
	fmt.Printf("%-8s %-10s %-12s %-14s\n", "minPts", "leaves", "gpu", "elim-points")
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, l := range h.ladder {
			pts := h.twitter(l * h.ppl)
			res := h.run(pts, mrscan.Default(0.1, minPts, l))
			fmt.Printf("%-8d %-10d %10.3fs %-14d\n", minPts, l, secs(res.Times.GPUDBSCAN), res.Stats.DenseBoxPoints)
		}
	}
	fmt.Println("modeled (paper scale):")
	m := scale.Twitter()
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, row := range m.WeakScaling(scale.Table1Leaves, minPts) {
			fmt.Printf("  minPts=%-5d leaves=%-5d gpu=%6.1fs elim=%.3f\n", minPts, row.Leaves, row.GPUDBSCAN, row.DenseBoxElim)
		}
	}
}

func (h *harness) fig10() {
	header("Figure 10: strong scaling on the largest dataset (Twitter, MinPts=40)",
		"4.7x GPU speedup from 256 to 2,048 leaves; no speedup beyond (single dense cell limit)")
	total := h.ladder[len(h.ladder)-1] * h.ppl
	pts := h.twitter(total)
	strongLadder := append(append([]int{}, h.ladder...), h.ladder[len(h.ladder)-1]*2)
	fmt.Println("measured (fixed dataset; leaves run sequentially so each")
	fmt.Println("simulated GPU is timed in isolation on this host):")
	fmt.Printf("%-10s %-12s %-12s\n", "leaves", "slowest-gpu", "total")
	for _, l := range strongLadder {
		cfg := mrscan.Default(0.1, 40, l)
		cfg.SequentialLeaves = true
		res := h.run(pts, cfg)
		fmt.Printf("%-10d %-11.3fs %-11.3fs\n", l, secs(res.Times.GPUDBSCAN), secs(res.Times.Total))
	}
	fmt.Println("modeled (6.5B points):")
	m := scale.Twitter()
	for _, row := range m.StrongScaling(scale.Fig10Leaves, 8192*scale.WeakPointsPerLeaf, 40) {
		fmt.Printf("  leaves=%-5d gpu=%6.1fs total=%7.1fs\n", row.Leaves, row.GPUDBSCAN, row.Total)
	}
	fmt.Println("modeled with hot-cell subdivision (the §5.1.2 fix, lifts the plateau):")
	for _, row := range m.StrongScalingSplit(scale.Fig10Leaves, 8192*scale.WeakPointsPerLeaf, 40) {
		fmt.Printf("  leaves=%-5d gpu=%6.1fs total=%7.1fs\n", row.Leaves, row.GPUDBSCAN, row.Total)
	}
}

func (h *harness) fig11() {
	header("Figure 11: output quality vs single-CPU DBSCAN (Twitter)",
		"never below 0.995 up to 12.8M points (reference: ELKI 0.4.1)")
	fmt.Printf("%-10s %-10s %-10s\n", "points", "leaves", "quality")
	for _, mult := range []int{1, 2, 4} {
		n := mult * h.ppl * 4
		pts := h.twitter(n)
		ref, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 40})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		_, labels, err := mrscan.RunPoints(pts, mrscan.Default(0.1, 40, 8))
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		q, err := quality.Score(ref.Labels, labels)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("%-10d %-10d %-10.5f\n", n, 8, q)
	}
}

func (h *harness) fig12() {
	header("Figure 12: SDSS weak scaling (Eps=0.00015, MinPts=5)",
		"same upward trend as Twitter, dominated by the partitioner")
	fmt.Println("measured:")
	fmt.Printf("%-10s %-8s %-12s\n", "leaves", "points", "total")
	for _, l := range h.ladder {
		pts := dataset.SDSS(l*h.ppl, h.seed)
		res := h.run(pts, mrscan.Default(0.00015, 5, l))
		fmt.Printf("%-10d %-8d %10.3fs\n", l, len(pts), secs(res.Times.Total))
	}
	fmt.Println("modeled (to 1.6B points / 2048 leaves):")
	m := scale.SDSS()
	for _, row := range m.WeakScaling([]int{2, 8, 32, 128, 512, 2048}, 5) {
		fmt.Printf("  leaves=%-5d total=%7.1fs\n", row.Leaves, row.Total)
	}
}

func (h *harness) fig13() {
	header("Figure 13: SDSS partition time",
		"identical I/O-bound behaviour to the Twitter dataset")
	fmt.Println("measured:")
	fmt.Printf("%-10s %-12s %-10s\n", "leaves", "partition", "of total")
	for _, l := range h.ladder {
		pts := dataset.SDSS(l*h.ppl, h.seed)
		res := h.run(pts, mrscan.Default(0.00015, 5, l))
		fmt.Printf("%-10d %10.3fs %9.1f%%\n", l, secs(res.Times.Partition),
			100*secs(res.Times.Partition)/secs(res.Times.Total))
	}
	fmt.Println("modeled:")
	m := scale.SDSS()
	for _, row := range m.WeakScaling([]int{2, 8, 32, 128, 512, 2048}, 5) {
		fmt.Printf("  leaves=%-5d partition=%7.1fs (%.0f%% of total)\n",
			row.Leaves, row.Partition, 100*row.Partition/row.Total)
	}
}

func (h *harness) ablations() {
	header("Ablations: the design choices of §3",
		"dense box (3.2.3), host transfers (3.2.2), shadow reps (3.1.3), rebalance (3.1.2)")
	pts := h.twitter(8 * h.ppl)

	// Dense box on/off.
	on := h.run(pts, mrscan.Default(0.1, 40, 8))
	offCfg := mrscan.Default(0.1, 40, 8)
	offCfg.DenseBox = false
	off := h.run(pts, offCfg)
	fmt.Printf("dense box:    on  gpu=%.3fs (eliminated %d points, %d boxes)\n",
		secs(on.Times.GPUDBSCAN), on.Stats.DenseBoxPoints, on.Stats.DenseBoxes)
	fmt.Printf("              off gpu=%.3fs\n", secs(off.Times.GPUDBSCAN))

	// Host transfer profile.
	for _, mode := range []gdbscan.Mode{gdbscan.ModeMrScan, gdbscan.ModeCUDADClust} {
		dev := gpusim.New(gpusim.K20(), nil)
		_, err := gdbscan.Cluster(dev, pts[:4*h.ppl], gdbscan.Options{
			Params: geom.Params{Eps: 0.1, MinPts: 40},
			Mode:   mode, DenseBox: mode == gdbscan.ModeMrScan,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		st := dev.Stats()
		fmt.Printf("transfers:    %-12s %6d host<->device ops, simulated PCIe %v\n",
			mode, st.H2DTransfers+st.D2HTransfers, dev.Clock().Resource(dev.Config().Name+"/pcie"))
	}

	// Shadow reps.
	repsCfg := mrscan.Default(0.1, 40, 8)
	repsCfg.ShadowReps = true
	reps := h.run(pts, repsCfg)
	fmt.Printf("shadow reps:  off written=%d points\n", on.Stats.WrittenPoints)
	fmt.Printf("              on  written=%d points\n", reps.Stats.WrittenPoints)

	// Direct network transfer (§6 future work).
	directCfg := mrscan.Default(0.1, 40, 8)
	directCfg.DirectPartitions = true
	direct := h.run(pts, directCfg)
	fmt.Printf("partitions:   via Lustre   partition=%.3fs\n", secs(on.Times.Partition))
	fmt.Printf("              via network  partition=%.3fs (zero partition-file writes)\n",
		secs(direct.Times.Partition))

	// PDBSCAN replicated-index message growth (§2.2).
	for _, nodes := range []int{2, 4, 8, 16} {
		res, err := baseline.PDBSCAN(pts[:4*h.ppl], geom.Params{Eps: 0.1, MinPts: 40}, nodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("pdbscan:      nodes=%-3d remote-fetches=%-8d cross-node merges=%d\n",
			nodes, res.RemoteMessages, res.MergeEdges)
	}
}

// calibrate fits the Titan-scale model's GPU expansion term to this
// host: a strong-scaling ladder is measured with isolated leaf timing,
// scale.FitExpand solves for the per-point coefficient, and the 6.5B-row
// GPU projections are reprinted under the fitted constants.
func (h *harness) calibrate() {
	header("Calibration: fit the cost model's GPU term to this host",
		"the model ships with Titan-era constants; FitExpand re-bases them on measured runs")
	pts := h.twitter(8 * h.ppl)
	var ms []scale.Measurement
	fmt.Printf("%-10s %-12s\n", "leaves", "slowest-gpu")
	for _, l := range []int{2, 4, 8, 16} {
		cfg := mrscan.Default(0.1, 40, l)
		cfg.SequentialLeaves = true
		res := h.run(pts, cfg)
		ms = append(ms, scale.Measurement{
			Points: float64(len(pts)),
			Leaves: l,
			MinPts: 40,
			GPUSec: secs(res.Times.GPUDBSCAN),
		})
		fmt.Printf("%-10d %10.3fs\n", l, secs(res.Times.GPUDBSCAN))
	}
	fitted, err := scale.Twitter().FitExpand(ms)
	if err != nil {
		fmt.Printf("fit failed: %v (measurements too flat on this host)\n", err)
		return
	}
	fmt.Printf("fitted: ExpandCoef=%.3g s/point-log (Titan calibration: %.3g), overhead=%.2fs\n",
		fitted.ExpandCoef, scale.Twitter().ExpandCoef, fitted.GPULeafOverhead)
	fmt.Println("re-projected 6.5B GPU rows under the fitted constants:")
	for _, row := range fitted.WeakScaling([]int{512, 2048, 8192}, 40) {
		fmt.Printf("  leaves=%-5d gpu=%6.1fs\n", row.Leaves, row.GPUDBSCAN)
	}
}
