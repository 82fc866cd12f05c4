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
// directly. Measured GPU columns are simulated seconds (gpusim), which
// repeat bit for bit; other times are wall clock. EXPERIMENTS.md is
// generated from this output.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -exp fig9c      # one experiment
//	experiments -ppl 25000      # heavier measured ladder
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it runs the experiments args select,
// prints their tables to stdout, and returns the exit status — 2 for a
// bad command line, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ppl := fs.Int("ppl", 12_500, "measured-run points per leaf (paper: 800,000)")
	seed := fs.Int64("seed", 1, "dataset seed")
	leaves := fs.String("ladder", "2,4,8,16", "measured-run leaf ladder")
	exp := fs.String("exp", "all", "experiment: all|table1|fig2|fig8|fig9a|fig9b|fig9c|fig10|fig11|fig12|fig13|ablations|calibrate")
	fig2Dir := fs.String("fig2ppm", "", "directory to write Figure 2 partition images (PPM); empty = text only")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	ladder, err := parseLadder(*leaves)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	h := &harness{out: stdout, ppl: *ppl, seed: *seed, ladder: ladder, fig2Dir: *fig2Dir}
	experiments := []struct {
		name string
		run  func()
	}{
		{"table1", h.table1}, {"fig2", h.fig2}, {"fig8", h.fig8}, {"fig9a", h.fig9a},
		{"fig9b", h.fig9b}, {"fig9c", h.fig9c}, {"fig10", h.fig10}, {"fig11", h.fig11},
		{"fig12", h.fig12}, {"fig13", h.fig13}, {"ablations", h.ablations}, {"calibrate", h.calibrate},
	}
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			fmt.Fprintln(stderr, "experiments:", f.err)
			code = 1
		}
	}()
	ran := false
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			e.run()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(stderr, "experiments: unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}

// failure carries a failed step's error from check up to run.
type failure struct{ err error }

// check ends the experiments with err, if there is one.
func check(err error) {
	if err != nil {
		panic(failure{err})
	}
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
	out     io.Writer
	ppl     int
	seed    int64
	ladder  []int
	fig2Dir string

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
	check(err)
	return res
}

func (h *harness) header(title, paper string) {
	fmt.Fprintf(h.out, "\n=== %s ===\n", title)
	fmt.Fprintf(h.out, "paper: %s\n", paper)
}

func secs(d time.Duration) float64 { return d.Seconds() }

// --- experiment implementations ---

func (h *harness) table1() {
	h.header("Table 1: weak scaling configurations",
		"points 1.6M-6.5536B, internal processes 0-32, leaves 2-8192, partition nodes 2-128")
	fmt.Fprintln(h.out, "measured (scaled-down ladder actually executed):")
	fmt.Fprintf(h.out, "%-12s %-12s %-10s %-16s\n", "points", "internal", "leaves", "partition nodes")
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
		fmt.Fprintf(h.out, "%-12d %-12d %-10d %-16d\n", len(pts), internal, l, partNodes)
	}
	fmt.Fprintln(h.out, "paper-scale ladder (Table 1 exactly, from the topology rules):")
	fmt.Fprintf(h.out, "%-14s %-12s %-10s %-16s\n", "points", "internal", "leaves", "partition nodes")
	for _, l := range scale.Table1Leaves {
		fmt.Fprintf(h.out, "%-14d %-12d %-10d %-16d\n",
			l*scale.WeakPointsPerLeaf, scale.InternalProcessesFor(l), l, scale.PartNodesFor(l))
	}
}

// fig2 reproduces the partition algorithm walk-through of Figure 2: the
// oversized final partition before rebalancing (the populous end of the
// iteration order lands in the last partition) and the balanced result
// after.
func (h *harness) fig2() {
	h.header("Figure 2: partition boundaries before/after rebalancing",
		"the last partition absorbs the leftovers (the Eastern US in the paper's example); rebalancing moves cells backward until every partition fits 1.075x the final target")
	pts := h.twitter(8 * h.ppl)
	g := grid.New(0.1)
	hist := g.HistogramOf(pts)
	for _, rebalance := range []bool{false, true} {
		plan, err := partition.MakePlan(g, hist, 8, 40, rebalance)
		check(err)
		label := "before rebalancing"
		if rebalance {
			label = "after rebalancing"
		}
		fmt.Fprintf(h.out, "%s (mean incl. shadows = %.0f, threshold = %.0f):\n",
			label, plan.MeanTotal(), partition.RebalanceThreshold*plan.MeanTotal())
		for i, s := range plan.Specs {
			bar := strings.Repeat("#", int(s.Total()*40/(plan.MaxTotal()+1)))
			fmt.Fprintf(h.out, "  partition %d: %7d points (+%6d shadow) %s\n",
				i, s.PointCount, s.ShadowCount, bar)
		}
		if h.fig2Dir != "" {
			// Color every point by its owning partition — the paper's
			// Figure 2 images of partitioned tweets.
			owners := make([]int, len(pts))
			for i, p := range pts {
				owners[i], _ = plan.UnitOwner(partition.CellUnit(g.CellOf(p)))
			}
			name := fmt.Sprintf("%s/fig2-%s.ppm", h.fig2Dir, map[bool]string{false: "before", true: "after"}[rebalance])
			f, err := os.Create(name)
			check(err)
			check(viz.WritePPM(f, pts, owners, viz.Options{Width: 1200, Height: 600}))
			f.Close()
			fmt.Fprintf(h.out, "  wrote %s\n", name)
		}
	}
}

func (h *harness) fig8() {
	h.header("Figure 8: total elapsed time, weak scaling (Twitter, Eps=0.1)",
		"6.5B points in 1,040-1,401s depending on MinPts; growth 18.5-31.7x over 4096x data")
	fmt.Fprintln(h.out, "measured (real pipeline, scaled-down ladder):")
	fmt.Fprintf(h.out, "%-8s %-10s %-8s %-10s\n", "minPts", "leaves", "points", "total")
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, l := range h.ladder {
			pts := h.twitter(l * h.ppl)
			res := h.run(pts, mrscan.Default(0.1, minPts, l))
			fmt.Fprintf(h.out, "%-8d %-10d %-8d %9.3fs\n", minPts, l, len(pts), secs(res.Times.Total))
		}
	}
	fmt.Fprintln(h.out, "modeled (paper scale, internal/scale):")
	m := scale.Twitter()
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, row := range m.WeakScaling(scale.Table1Leaves, minPts) {
			fmt.Fprintln(h.out, "  "+row.String())
		}
	}
}

func (h *harness) fig9a() {
	h.header("Figure 9a: partition phase time (Twitter, MinPts=400)",
		"scales linearly with data; ~68% of total at scale; write 65.2% / read 29.9% of the phase")
	fmt.Fprintln(h.out, "measured (in-phase split from simulated Lustre costs):")
	fmt.Fprintf(h.out, "%-10s %-8s %-12s %-10s %-12s\n", "leaves", "points", "partition", "of total", "write/read sim")
	for _, l := range h.ladder {
		pts := h.twitter(l * h.ppl)
		res := h.run(pts, mrscan.Default(0.1, 400, l))
		ratio := 0.0
		if res.Times.PartitionReadSim > 0 {
			ratio = float64(res.Times.PartitionWriteSim) / float64(res.Times.PartitionReadSim)
		}
		fmt.Fprintf(h.out, "%-10d %-8d %10.3fs %9.1f%% %10.1fx\n", l, len(pts),
			secs(res.Times.Partition), 100*secs(res.Times.Partition)/secs(res.Times.Total), ratio)
	}
	fmt.Fprintln(h.out, "modeled (paper scale):")
	m := scale.Twitter()
	for _, row := range m.WeakScaling(scale.Table1Leaves, 400) {
		fmt.Fprintf(h.out, "  leaves=%-5d partition=%7.1fs (%.0f%% of total)\n",
			row.Leaves, row.Partition, 100*row.Partition/row.Total)
	}
}

func (h *harness) fig9b() {
	h.header("Figure 9b: cluster+merge+sweep time (Twitter)",
		"similar shape to GPU DBSCAN; MinPts=4000 adds linear MRNet startup growth")
	fmt.Fprintln(h.out, "measured:")
	fmt.Fprintf(h.out, "%-8s %-10s %-12s\n", "minPts", "leaves", "cms")
	for _, minPts := range []int{40, 4000} {
		for _, l := range h.ladder {
			pts := h.twitter(l * h.ppl)
			res := h.run(pts, mrscan.Default(0.1, minPts, l))
			cms := res.Times.Cluster + res.Times.Merge + res.Times.Sweep
			fmt.Fprintf(h.out, "%-8d %-10d %10.3fs\n", minPts, l, secs(cms))
		}
	}
	fmt.Fprintln(h.out, "modeled (paper scale):")
	m := scale.Twitter()
	for _, minPts := range []int{40, 4000} {
		for _, row := range m.WeakScaling(scale.Table1Leaves, minPts) {
			fmt.Fprintf(h.out, "  minPts=%-5d leaves=%-5d cms=%7.1fs\n", minPts, row.Leaves, row.ClusterMergeSweep)
		}
	}
}

func (h *harness) fig9c() {
	h.header("Figure 9c: GPGPU DBSCAN time (Twitter)",
		"dense-box dip at mid scale for MinPts<=400, upturn at 6.5B; MinPts=4000 logarithmic, no dip")
	fmt.Fprintln(h.out, "measured (slowest leaf):")
	fmt.Fprintf(h.out, "%-8s %-10s %-12s %-14s\n", "minPts", "leaves", "gpu", "elim-points")
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, l := range h.ladder {
			pts := h.twitter(l * h.ppl)
			res := h.run(pts, mrscan.Default(0.1, minPts, l))
			fmt.Fprintf(h.out, "%-8d %-10d %10.6fs %-14d\n", minPts, l, secs(res.Times.GPUDBSCAN), res.Stats.DenseBoxPoints)
		}
	}
	fmt.Fprintln(h.out, "modeled (paper scale):")
	m := scale.Twitter()
	for _, minPts := range []int{4, 40, 400, 4000} {
		for _, row := range m.WeakScaling(scale.Table1Leaves, minPts) {
			fmt.Fprintf(h.out, "  minPts=%-5d leaves=%-5d gpu=%6.1fs elim=%.3f\n", minPts, row.Leaves, row.GPUDBSCAN, row.DenseBoxElim)
		}
	}
}

func (h *harness) fig10() {
	h.header("Figure 10: strong scaling on the largest dataset (Twitter, MinPts=40)",
		"4.7x GPU speedup from 256 to 2,048 leaves; no speedup beyond (single dense cell limit)")
	total := h.ladder[len(h.ladder)-1] * h.ppl
	pts := h.twitter(total)
	strongLadder := append(append([]int{}, h.ladder...), h.ladder[len(h.ladder)-1]*2)
	fmt.Fprintln(h.out, "measured (fixed dataset; gpu simulated, total wall):")
	fmt.Fprintf(h.out, "%-10s %-12s %-12s\n", "leaves", "slowest-gpu", "total")
	for _, l := range strongLadder {
		res := h.run(pts, mrscan.Default(0.1, 40, l))
		fmt.Fprintf(h.out, "%-10d %-11.3fs %-11.3fs\n", l, secs(res.Times.GPUDBSCAN), secs(res.Times.Total))
	}
	fmt.Fprintln(h.out, "modeled (6.5B points):")
	m := scale.Twitter()
	for _, row := range m.StrongScaling(scale.Fig10Leaves, 8192*scale.WeakPointsPerLeaf, 40) {
		fmt.Fprintf(h.out, "  leaves=%-5d gpu=%6.1fs total=%7.1fs\n", row.Leaves, row.GPUDBSCAN, row.Total)
	}
	fmt.Fprintln(h.out, "modeled with hot-cell subdivision (the §5.1.2 fix, lifts the plateau):")
	for _, row := range m.StrongScalingSplit(scale.Fig10Leaves, 8192*scale.WeakPointsPerLeaf, 40) {
		fmt.Fprintf(h.out, "  leaves=%-5d gpu=%6.1fs total=%7.1fs\n", row.Leaves, row.GPUDBSCAN, row.Total)
	}
}

func (h *harness) fig11() {
	h.header("Figure 11: output quality vs single-CPU DBSCAN (Twitter)",
		"never below 0.995 up to 12.8M points (reference: ELKI 0.4.1)")
	fmt.Fprintf(h.out, "%-10s %-10s %-10s\n", "points", "leaves", "quality")
	for _, mult := range []int{1, 2, 4} {
		n := mult * h.ppl * 4
		pts := h.twitter(n)
		ref, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 40})
		check(err)
		_, labels, err := mrscan.RunPoints(pts, mrscan.Default(0.1, 40, 8))
		check(err)
		q, err := quality.Score(ref.Labels, labels)
		check(err)
		fmt.Fprintf(h.out, "%-10d %-10d %-10.5f\n", n, 8, q)
	}
}

func (h *harness) fig12() {
	h.header("Figure 12: SDSS weak scaling (Eps=0.00015, MinPts=5)",
		"same upward trend as Twitter, dominated by the partitioner")
	fmt.Fprintln(h.out, "measured:")
	fmt.Fprintf(h.out, "%-10s %-8s %-12s\n", "leaves", "points", "total")
	for _, l := range h.ladder {
		pts := dataset.SDSS(l*h.ppl, h.seed)
		res := h.run(pts, mrscan.Default(0.00015, 5, l))
		fmt.Fprintf(h.out, "%-10d %-8d %10.3fs\n", l, len(pts), secs(res.Times.Total))
	}
	fmt.Fprintln(h.out, "modeled (to 1.6B points / 2048 leaves):")
	m := scale.SDSS()
	for _, row := range m.WeakScaling([]int{2, 8, 32, 128, 512, 2048}, 5) {
		fmt.Fprintf(h.out, "  leaves=%-5d total=%7.1fs\n", row.Leaves, row.Total)
	}
}

func (h *harness) fig13() {
	h.header("Figure 13: SDSS partition time",
		"identical I/O-bound behaviour to the Twitter dataset")
	fmt.Fprintln(h.out, "measured:")
	fmt.Fprintf(h.out, "%-10s %-12s %-10s\n", "leaves", "partition", "of total")
	for _, l := range h.ladder {
		pts := dataset.SDSS(l*h.ppl, h.seed)
		res := h.run(pts, mrscan.Default(0.00015, 5, l))
		fmt.Fprintf(h.out, "%-10d %10.3fs %9.1f%%\n", l, secs(res.Times.Partition),
			100*secs(res.Times.Partition)/secs(res.Times.Total))
	}
	fmt.Fprintln(h.out, "modeled:")
	m := scale.SDSS()
	for _, row := range m.WeakScaling([]int{2, 8, 32, 128, 512, 2048}, 5) {
		fmt.Fprintf(h.out, "  leaves=%-5d partition=%7.1fs (%.0f%% of total)\n",
			row.Leaves, row.Partition, 100*row.Partition/row.Total)
	}
}

func (h *harness) ablations() {
	h.header("Ablations: the design choices of §3",
		"dense box (3.2.3), host transfers (3.2.2), shadow reps (3.1.3), rebalance (3.1.2)")
	pts := h.twitter(8 * h.ppl)

	// Dense box on/off.
	on := h.run(pts, mrscan.Default(0.1, 40, 8))
	offCfg := mrscan.Default(0.1, 40, 8)
	offCfg.DenseBox = false
	off := h.run(pts, offCfg)
	fmt.Fprintf(h.out, "dense box:    on  gpu=%.3fs (eliminated %d points, %d boxes)\n",
		secs(on.Times.GPUDBSCAN), on.Stats.DenseBoxPoints, on.Stats.DenseBoxes)
	fmt.Fprintf(h.out, "              off gpu=%.3fs\n", secs(off.Times.GPUDBSCAN))

	// Host transfer profile.
	for _, mode := range []gdbscan.Mode{gdbscan.ModeMrScan, gdbscan.ModeCUDADClust} {
		dev := gpusim.New(gpusim.K20(), nil)
		_, err := gdbscan.Cluster(dev, pts[:4*h.ppl], gdbscan.Options{
			Params: geom.Params{Eps: 0.1, MinPts: 40},
			Mode:   mode, DenseBox: mode == gdbscan.ModeMrScan,
		})
		check(err)
		st := dev.Stats()
		fmt.Fprintf(h.out, "transfers:    %-12s %6d host<->device ops, simulated PCIe %v\n",
			mode, st.H2DTransfers+st.D2HTransfers, dev.Clock().Resource(dev.Config().Name+"/pcie"))
	}

	// Shadow reps.
	repsCfg := mrscan.Default(0.1, 40, 8)
	repsCfg.ShadowReps = true
	reps := h.run(pts, repsCfg)
	fmt.Fprintf(h.out, "shadow reps:  off written=%d points\n", on.Stats.WrittenPoints)
	fmt.Fprintf(h.out, "              on  written=%d points\n", reps.Stats.WrittenPoints)

	// Direct network transfer (§6 future work).
	directCfg := mrscan.Default(0.1, 40, 8)
	directCfg.DirectPartitions = true
	direct := h.run(pts, directCfg)
	fmt.Fprintf(h.out, "partitions:   via Lustre   partition=%.3fs\n", secs(on.Times.Partition))
	fmt.Fprintf(h.out, "              via network  partition=%.3fs (zero partition-file writes)\n",
		secs(direct.Times.Partition))

	// PDBSCAN replicated-index message growth (§2.2).
	for _, nodes := range []int{2, 4, 8, 16} {
		res, err := baseline.PDBSCAN(pts[:4*h.ppl], geom.Params{Eps: 0.1, MinPts: 40}, nodes)
		check(err)
		fmt.Fprintf(h.out, "pdbscan:      nodes=%-3d remote-fetches=%-8d cross-node merges=%d\n",
			nodes, res.RemoteMessages, res.MergeEdges)
	}
}

// calibrate fits the Titan-scale model's GPU expansion term to the
// simulated device: a strong-scaling ladder's slowest-leaf GPU times
// are measured, scale.FitExpand solves for the per-point coefficient,
// and the 6.5B-row GPU projections are reprinted under the fitted
// constants.
func (h *harness) calibrate() {
	h.header("Calibration: fit the cost model's GPU term to the simulated device",
		"the model ships with Titan-era constants; FitExpand re-bases them on measured runs")
	pts := h.twitter(8 * h.ppl)
	var ms []scale.Measurement
	fmt.Fprintf(h.out, "%-10s %-12s\n", "leaves", "slowest-gpu")
	for _, l := range []int{2, 4, 8, 16} {
		res := h.run(pts, mrscan.Default(0.1, 40, l))
		ms = append(ms, scale.Measurement{
			Points: float64(len(pts)),
			Leaves: l,
			MinPts: 40,
			GPUSec: secs(res.Times.GPUDBSCAN),
		})
		fmt.Fprintf(h.out, "%-10d %10.3fs\n", l, secs(res.Times.GPUDBSCAN))
	}
	fitted, err := scale.Twitter().FitExpand(ms)
	if err != nil {
		fmt.Fprintf(h.out, "fit failed: %v (measurements too flat)\n", err)
		return
	}
	fmt.Fprintf(h.out, "fitted: ExpandCoef=%.3g s/point-log (Titan calibration: %.3g), overhead=%.2fs\n",
		fitted.ExpandCoef, scale.Twitter().ExpandCoef, fitted.GPULeafOverhead)
	fmt.Fprintln(h.out, "re-projected 6.5B GPU rows under the fitted constants:")
	for _, row := range fitted.WeakScaling([]int{512, 2048, 8192}, 40) {
		fmt.Fprintf(h.out, "  leaves=%-5d gpu=%6.1fs\n", row.Leaves, row.GPUDBSCAN)
	}
}
