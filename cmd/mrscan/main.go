// Command mrscan runs the full Mr. Scan pipeline on a dataset file:
// it loads the input into the simulated parallel file system, executes
// the four phases (partition → cluster → merge → sweep), writes the
// labeled output back to the local file system, and prints the per-phase
// breakdown the paper's evaluation reports.
//
// Usage:
//
//	mrscan -input tweets.mrsc -output clusters.mrsl -eps 0.1 -minpts 40 -leaves 8
//	mrscan -input sky.mrsc -eps 0.00015 -minpts 5 -leaves 16 -v
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/lustre"
	"repro/internal/mrscan"
	"repro/internal/ptio"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

func main() {
	var (
		input      = flag.String("input", "", "input MRSC dataset file (required)")
		output     = flag.String("output", "clusters.mrsl", "output labeled file")
		eps        = flag.Float64("eps", 0.1, "DBSCAN Eps")
		minPts     = flag.Int("minpts", 40, "DBSCAN MinPts")
		leaves     = flag.Int("leaves", 8, "cluster-phase leaf processes (one simulated GPGPU each)")
		partNodes  = flag.Int("partnodes", 0, "partitioner processes (default leaves/16, min 1)")
		denseBox   = flag.Bool("densebox", true, "enable the dense box optimization (§3.2.3): Eps-cell KD leaves, all-core cells skip expansion")
		shadowReps = flag.Bool("shadowreps", false, "enable representative shadow regions (§3.1.3)")
		noise      = flag.Bool("noise", false, "include noise points (cluster -1) in the output")
		weight     = flag.Bool("weight", false, "input records carry the weight field")
		direct     = flag.Bool("direct", false, "send partitions over the network instead of the file system (§6 future work)")
		writeAgg   = flag.Bool("write-aggregation", false, "log-structured partition writes: sequential per-leaf segment appends instead of small random writes (§5.1.1), pipelining the cluster phase over durable partitions")
		hotCell    = flag.Int64("hotcell", 0, "subdivide cells holding more points than this (§5.1.2 future work; 0 = off)")
		reclaim    = flag.Bool("reclaim", false, "feed shadow-view border observations back during the sweep (beyond-paper fix)")
		tcpMerge   = flag.Bool("tcpmerge", false, "run the merge phase over real TCP sockets")
		topology   = flag.String("topology", "", "explicit cluster-tree spec, e.g. 2x16 (leaf product must equal -leaves)")
		format     = flag.String("format", "bin", "input format: bin (MRSC) | text (id x y [w] lines)")
		verbose    = flag.Bool("v", false, "print simulated-hardware accounting")
		retries    = flag.Int("retries", 1, "attempts per phase before a transient fault is fatal (1 = no retry)")
		faultPlan  = flag.String("fault-plan", "", "fault injection plan, e.g. 'lustre.io:after=100,times=2;mrnet.node:times=1' (see internal/faultinject)")
		faultSeed  = flag.Int64("fault-seed", 1, "RNG seed for probabilistic fault rules")
		ckpt       = flag.Bool("checkpoint", false, "write verified phase snapshots and stage them to -checkpoint-dir")
		resume     = flag.Bool("resume", false, "restart from the last valid checkpoint in -checkpoint-dir (implies -checkpoint)")
		ckptDir    = flag.String("checkpoint-dir", ".mrscan-ckpt", "directory holding checkpoint state across process restarts")
		deadline   = flag.Duration("deadline", 0, "abort the run after this long (0 = none); completed phases stay checkpointed")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON of the run (open in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics in Prometheus text format")
		reportOut  = flag.String("report-out", "", "write a structured per-run JSON report (phase breakdown + metrics)")
	)
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "mrscan: -input is required")
		flag.Usage()
		os.Exit(2)
	}
	cfg := mrscan.Default(*eps, *minPts, *leaves)
	cfg.PartitionLeaves = *partNodes
	cfg.DenseBox = *denseBox
	cfg.ShadowReps = *shadowReps
	cfg.IncludeNoise = *noise
	cfg.HasWeight = *weight
	cfg.DirectPartitions = *direct
	cfg.WriteAggregation = *writeAgg
	cfg.HotCellThreshold = *hotCell
	cfg.ReclaimBorders = *reclaim
	cfg.MergeOverTCP = *tcpMerge
	cfg.Topology = *topology
	cfg.Retry = mrscan.RetryPolicy{MaxAttempts: *retries}
	plan, err := faultinject.Parse(*faultPlan, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrscan:", err)
		os.Exit(2)
	}
	cfg.FaultPlan = plan
	cfg.Checkpoint = *ckpt
	cfg.Resume = *resume
	exp := exports{trace: *traceOut, metrics: *metricsOut, report: *reportOut}
	if err := run(*input, *output, cfg, *format, *verbose, *ckptDir, *deadline, exp); err != nil {
		fmt.Fprintln(os.Stderr, "mrscan:", err)
		os.Exit(1)
	}
}

// exports holds the telemetry output paths; empty paths disable the
// corresponding exporter.
type exports struct {
	trace, metrics, report string
}

func (e exports) any() bool { return e.trace != "" || e.metrics != "" || e.report != "" }

func run(input, output string, cfg mrscan.Config, format string, verbose bool, ckptDir string, deadline time.Duration, exp exports) error {
	fs := lustre.New(lustre.Titan(), nil)
	if exp.any() {
		cfg.Telemetry = telemetry.New(fs.Clock())
	}
	// Stage the real input file onto the simulated PFS, converting text
	// input to the binary format the pipeline consumes ("the input
	// points are contained in a single binary or text file", §3).
	src, err := os.Open(input)
	if err != nil {
		return err
	}
	defer src.Close()
	dst := fs.Create("input.mrsc")
	switch format {
	case "bin":
		if _, err := io.Copy(dst, src); err != nil {
			return fmt.Errorf("staging input: %w", err)
		}
	case "text":
		pts, err := ptio.ReadText(src)
		if err != nil {
			return fmt.Errorf("parsing text input: %w", err)
		}
		if err := ptio.WriteDataset(dst, pts, cfg.HasWeight); err != nil {
			return fmt.Errorf("staging input: %w", err)
		}
	default:
		return fmt.Errorf("unknown input format %q", format)
	}

	// The checkpoint directory is reached through a port on its parent,
	// so staging out can make the directory's own name durable too.
	var port checkpoint.FS
	ckptDir = filepath.Clean(ckptDir)
	stateDir := filepath.Base(ckptDir)
	if cfg.Checkpoint || cfg.Resume {
		if port, err = checkpoint.DirFS(filepath.Dir(ckptDir)); err != nil {
			return err
		}
	}
	if cfg.Resume {
		if err := mrscan.StageStateIn(fs, port, stateDir); err != nil {
			return fmt.Errorf("staging checkpoint state in: %w", err)
		}
	}
	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	res, err := mrscan.RunContext(ctx, fs, "input.mrsc", "output.mrsl", cfg)
	if cfg.Telemetry != nil {
		// Export even on failure: a trace of an aborted run is exactly
		// what you want when diagnosing it.
		if xerr := telemetry.WriteFiles(cfg.Telemetry, exp.trace, exp.metrics, exp.report); xerr != nil {
			fmt.Fprintln(os.Stderr, "mrscan:", xerr)
		}
	}
	if cfg.Checkpoint || cfg.Resume {
		// Stage state out even on failure: the snapshots written before
		// the abort are what the next -resume run restarts from.
		if serr := mrscan.StageStateOut(fs, port, stateDir); serr != nil {
			fmt.Fprintln(os.Stderr, "mrscan: staging checkpoint state out:", serr)
		}
	}
	if err != nil {
		if res != nil && len(res.CompletedPhases) > 0 {
			fmt.Fprintf(os.Stderr, "mrscan: phases completed before abort: %v (rerun with -resume to continue)\n",
				res.CompletedPhases)
		}
		return err
	}
	if len(res.RestoredPhases) > 0 {
		fmt.Printf("resumed: phases restored from checkpoints: %v\n", res.RestoredPhases)
	}

	// Copy the labeled output back out.
	out, err := fs.Open("output.mrsl")
	if err != nil {
		return err
	}
	records, err := sweep.ReadOutput(fs, "output.mrsl")
	if err != nil {
		return err
	}
	dstFile, err := os.Create(output)
	if err != nil {
		return err
	}
	defer dstFile.Close()
	if _, err := io.Copy(dstFile, out); err != nil {
		return fmt.Errorf("writing output: %w", err)
	}
	if err := dstFile.Close(); err != nil {
		return err
	}

	fmt.Printf("input points:      %d\n", res.Stats.TotalPoints)
	fmt.Printf("clusters found:    %d\n", res.NumClusters)
	fmt.Printf("points in output:  %d (noise skipped: %d)\n", res.Stats.OutputPoints, res.Stats.NoiseSkipped)
	fmt.Printf("dense boxes:       %d (removed %d points from expansion)\n", res.Stats.DenseBoxes, res.Stats.DenseBoxPoints)
	fmt.Printf("decided per cell:  %d core + %d non-core of %d clustered points\n", res.Stats.CellCorePoints, res.Stats.CellNonCorePoints, res.Stats.WrittenPoints)
	fmt.Println("phase breakdown (wall):")
	fmt.Printf("  partition        %12v\n", res.Times.Partition)
	fmt.Printf("  cluster          %12v  (GPGPU DBSCAN, slowest leaf: %v)\n", res.Times.Cluster, res.Times.GPUDBSCAN)
	fmt.Printf("  merge            %12v\n", res.Times.Merge)
	fmt.Printf("  sweep            %12v\n", res.Times.Sweep)
	fmt.Printf("  total            %12v\n", res.Times.Total)
	fmt.Printf("simulated hardware time: %v\n", res.Stats.SimNow)
	if res.Stats.FaultsInjected > 0 || res.Times.Retries() > 0 || res.Stats.NetRecoveries > 0 {
		fmt.Printf("faults injected: %d (phase retries: %d, overlay node recoveries: %d)\n",
			res.Stats.FaultsInjected, res.Times.Retries(), res.Stats.NetRecoveries)
	}

	// Cluster size histogram (top 10).
	sizes := map[int64]int{}
	for _, lp := range records {
		if lp.Cluster >= 0 {
			sizes[lp.Cluster]++
		}
	}
	type cs struct {
		id int64
		n  int
	}
	var top []cs
	for id, n := range sizes {
		top = append(top, cs{id, n})
	}
	sort.Slice(top, func(a, b int) bool {
		if top[a].n != top[b].n {
			return top[a].n > top[b].n
		}
		return top[a].id < top[b].id
	})
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Println("largest clusters:")
	for _, c := range top {
		fmt.Printf("  cluster %-6d %8d points\n", c.id, c.n)
	}

	if verbose {
		fmt.Println("simulated resource accounting:")
		for _, r := range fs.Clock().Snapshot() {
			fmt.Printf("  %v\n", r)
		}
	}
	return nil
}
