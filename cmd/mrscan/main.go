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
	"errors"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options is a parsed command line: the pipeline configuration and what
// the command does around the run.
type options struct {
	cfg                            mrscan.Config
	input, output, format, ckptDir string
	verbose                        bool
	deadline                       time.Duration
	exp                            exports
}

// run is the command behind main: it parses args, runs the pipeline and
// prints its report to stdout, and returns the exit status — 2 for a bad
// command line, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	if err := execute(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "mrscan:", err)
		return 1
	}
	return 0
}

// parseFlags reads the command line into options. Every error it returns
// has already been reported on stderr.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	flags := flag.NewFlagSet("mrscan", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		input      = flags.String("input", "", "input MRSC dataset file (required)")
		output     = flags.String("output", "clusters.mrsl", "output labeled file")
		eps        = flags.Float64("eps", 0.1, "DBSCAN Eps")
		minPts     = flags.Int("minpts", 40, "DBSCAN MinPts")
		leaves     = flags.Int("leaves", 8, "cluster-phase leaf processes (one simulated GPGPU each)")
		partNodes  = flags.Int("partnodes", 0, "partitioner processes (default leaves/16, min 1)")
		denseBox   = flags.Bool("densebox", true, "enable the dense box optimization (§3.2.3): Eps-cell KD leaves, all-core cells skip expansion")
		shadowReps = flags.Bool("shadowreps", false, "enable representative shadow regions (§3.1.3)")
		noise      = flags.Bool("noise", false, "include noise points (cluster -1) in the output")
		weight     = flags.Bool("weight", false, "input records carry the weight field")
		direct     = flags.Bool("direct", false, "send partitions over the network instead of the file system (§6 future work)")
		hotCell    = flags.Int64("hotcell", 0, "subdivide cells holding more points than this (§5.1.2 future work; 0 = off)")
		tcpMerge   = flags.Bool("tcpmerge", false, "run the merge phase over real TCP sockets")
		topology   = flags.String("topology", "", "explicit cluster-tree spec, e.g. 2x16 (leaf product must equal -leaves)")
		format     = flags.String("format", "bin", "input format: bin (MRSC) | text (id x y [w] lines)")
		verbose    = flags.Bool("v", false, "print simulated-hardware accounting")
		retries    = flags.Int("retries", 1, "attempts per phase before a transient fault is fatal (1 = no retry)")
		faultPlan  = flags.String("fault-plan", "", "fault injection plan, e.g. 'lustre.io:after=100,times=2;mrnet.node:times=1' (see internal/faultinject)")
		faultSeed  = flags.Int64("fault-seed", 1, "RNG seed for probabilistic fault rules")
		ckpt       = flags.Bool("checkpoint", false, "write verified phase snapshots and stage them to -checkpoint-dir")
		resume     = flags.Bool("resume", false, "restart from the last valid checkpoint in -checkpoint-dir (implies -checkpoint)")
		ckptDir    = flags.String("checkpoint-dir", ".mrscan-ckpt", "directory holding checkpoint state across process restarts")
		deadline   = flags.Duration("deadline", 0, "abort the run after this long (0 = none); completed phases stay checkpointed")
		traceOut   = flags.String("trace-out", "", "write a Chrome trace_event JSON of the run (open in chrome://tracing or Perfetto)")
		metricsOut = flags.String("metrics-out", "", "write the run's metrics in Prometheus text format")
		reportOut  = flags.String("report-out", "", "write a structured per-run JSON report (phase breakdown + metrics)")
	)
	if err := flags.Parse(args); err != nil {
		return nil, err
	}
	if *input == "" {
		fmt.Fprintln(stderr, "mrscan: -input is required")
		flags.Usage()
		return nil, errors.New("no input")
	}
	plan, err := faultinject.Parse(*faultPlan, *faultSeed)
	if err != nil {
		fmt.Fprintln(stderr, "mrscan:", err)
		return nil, err
	}
	cfg := mrscan.Default(*eps, *minPts, *leaves)
	cfg.PartitionLeaves = *partNodes
	cfg.DenseBox = *denseBox
	cfg.ShadowReps = *shadowReps
	cfg.IncludeNoise = *noise
	cfg.HasWeight = *weight
	cfg.DirectPartitions = *direct
	cfg.HotCellThreshold = *hotCell
	cfg.MergeOverTCP = *tcpMerge
	cfg.Topology = *topology
	cfg.Retry = mrscan.RetryPolicy{MaxAttempts: *retries}
	cfg.FaultPlan = plan
	cfg.Checkpoint = *ckpt
	cfg.Resume = *resume
	return &options{
		cfg: cfg, input: *input, output: *output, format: *format, ckptDir: *ckptDir,
		verbose: *verbose, deadline: *deadline,
		exp: exports{trace: *traceOut, metrics: *metricsOut, report: *reportOut},
	}, nil
}

// exports holds the telemetry output paths; empty paths disable the
// corresponding exporter.
type exports struct {
	trace, metrics, report string
}

func (e exports) any() bool { return e.trace != "" || e.metrics != "" || e.report != "" }

// execute stages the input onto a simulated file system (and the
// checkpoint state, when resuming), runs the pipeline, stages its state
// back out, copies the labeled output to o.output and prints the report.
func execute(o *options, stdout, stderr io.Writer) error {
	cfg := o.cfg
	fs := lustre.New(lustre.Titan(), nil)
	defer fs.Release()
	if o.exp.any() {
		cfg.Telemetry = telemetry.New(fs.Clock())
	}
	if err := stageInput(fs, o.input, o.format, cfg.HasWeight); err != nil {
		return err
	}

	// The checkpoint directory is reached through a port on its parent,
	// so staging out can make the directory's own name durable too.
	var port checkpoint.FS
	ckptDir := filepath.Clean(o.ckptDir)
	stateDir := filepath.Base(ckptDir)
	if cfg.Checkpoint || cfg.Resume {
		var err error
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
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	res, err := mrscan.RunContext(ctx, fs, "input.mrsc", "output.mrsl", cfg)
	if cfg.Telemetry != nil {
		// Export even on failure: a trace of an aborted run is exactly
		// what you want when diagnosing it.
		if xerr := telemetry.WriteFiles(cfg.Telemetry, o.exp.trace, o.exp.metrics, o.exp.report); xerr != nil {
			fmt.Fprintln(stderr, "mrscan:", xerr)
		}
	}
	if cfg.Checkpoint || cfg.Resume {
		// Stage state out even on failure: the snapshots written before
		// the abort are what the next -resume run restarts from.
		if serr := mrscan.StageStateOut(fs, port, stateDir); serr != nil {
			fmt.Fprintln(stderr, "mrscan: staging checkpoint state out:", serr)
		}
	}
	if err != nil {
		if res != nil && len(res.CompletedPhases) > 0 {
			fmt.Fprintf(stderr, "mrscan: phases completed before abort: %v (rerun with -resume to continue)\n",
				res.CompletedPhases)
		}
		return err
	}
	if len(res.RestoredPhases) > 0 {
		fmt.Fprintf(stdout, "resumed: phases restored from checkpoints: %v\n", res.RestoredPhases)
	}
	records, err := copyOutput(fs, o.output)
	if err != nil {
		return err
	}
	report(stdout, fs, res, records, o.verbose)
	return nil
}

// stageInput puts the real input file onto the simulated PFS as
// input.mrsc, converting text input to the binary format the pipeline
// consumes ("the input points are contained in a single binary or text
// file", §3).
func stageInput(fs *lustre.FS, input, format string, hasWeight bool) error {
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
		if err := ptio.WriteDataset(dst, pts, hasWeight); err != nil {
			return fmt.Errorf("staging input: %w", err)
		}
	default:
		return fmt.Errorf("unknown input format %q", format)
	}
	return nil
}

// copyOutput copies the labeled output back out to the real file output
// and returns its records.
func copyOutput(fs *lustre.FS, output string) ([]ptio.LabeledPoint, error) {
	out, err := fs.Open("output.mrsl")
	if err != nil {
		return nil, err
	}
	records, err := sweep.ReadOutput(fs, "output.mrsl")
	if err != nil {
		return nil, err
	}
	dstFile, err := os.Create(output)
	if err != nil {
		return nil, err
	}
	defer dstFile.Close()
	if _, err := io.Copy(dstFile, out); err != nil {
		return nil, fmt.Errorf("writing output: %w", err)
	}
	return records, dstFile.Close()
}

// report prints the run's counts, its phase breakdown, its ten largest
// clusters and, when verbose, the simulated resource accounting.
func report(w io.Writer, fs *lustre.FS, res *mrscan.Result, records []ptio.LabeledPoint, verbose bool) {
	fmt.Fprintf(w, "input points:      %d\n", res.Stats.TotalPoints)
	fmt.Fprintf(w, "clusters found:    %d\n", res.NumClusters)
	fmt.Fprintf(w, "points in output:  %d (noise skipped: %d)\n", res.Stats.OutputPoints, res.Stats.NoiseSkipped)
	fmt.Fprintf(w, "dense boxes:       %d (removed %d points from expansion)\n", res.Stats.DenseBoxes, res.Stats.DenseBoxPoints)
	fmt.Fprintf(w, "decided per cell:  %d core + %d non-core of %d clustered points\n", res.Stats.CellCorePoints, res.Stats.CellNonCorePoints, res.Stats.WrittenPoints)
	fmt.Fprintln(w, "phase breakdown (wall):")
	fmt.Fprintf(w, "  partition        %12v\n", res.Times.Partition)
	fmt.Fprintf(w, "  cluster          %12v  (GPGPU DBSCAN, slowest leaf: %v)\n", res.Times.Cluster, res.Times.GPUDBSCAN)
	fmt.Fprintf(w, "  merge            %12v\n", res.Times.Merge)
	fmt.Fprintf(w, "  sweep            %12v\n", res.Times.Sweep)
	fmt.Fprintf(w, "  total            %12v\n", res.Times.Total)
	fmt.Fprintf(w, "simulated hardware time: %v\n", res.Stats.SimNow)
	if res.Stats.FaultsInjected > 0 || res.Times.Retries() > 0 || res.Stats.NetRecoveries > 0 {
		fmt.Fprintf(w, "faults injected: %d (phase retries: %d, overlay node recoveries: %d)\n",
			res.Stats.FaultsInjected, res.Times.Retries(), res.Stats.NetRecoveries)
	}
	fmt.Fprintln(w, "largest clusters:")
	for _, c := range largestClusters(records, 10) {
		fmt.Fprintf(w, "  cluster %-6d %8d points\n", c.id, c.n)
	}
	if verbose {
		fmt.Fprintln(w, "simulated resource accounting:")
		for _, r := range fs.Clock().Snapshot() {
			fmt.Fprintf(w, "  %v\n", r)
		}
	}
}

// clusterSize is one cluster's ID and point count.
type clusterSize struct {
	id int64
	n  int
}

// largestClusters returns the k biggest clusters in records, largest
// first, ties by ID.
func largestClusters(records []ptio.LabeledPoint, k int) []clusterSize {
	sizes := map[int64]int{}
	for _, lp := range records {
		if lp.Cluster >= 0 {
			sizes[lp.Cluster]++
		}
	}
	var top []clusterSize
	for id, n := range sizes {
		top = append(top, clusterSize{id, n})
	}
	sort.Slice(top, func(a, b int) bool {
		if top[a].n != top[b].n {
			return top[a].n > top[b].n
		}
		return top[a].id < top[b].id
	})
	if len(top) > k {
		top = top[:k]
	}
	return top
}
