// Command mrscan-dist runs Mr. Scan with the cluster phase distributed
// across real worker processes: the coordinator partitions the input,
// spawns N copies of itself in worker mode, ships each partition over
// TCP, and merges the returned summaries — the deployment shape of the
// real system (MRNet backends on separate nodes), in one binary.
//
// Usage:
//
//	mrscan-dist -input tweets.mrsc -output clusters.mrsl -workers 4 -leaves 16
//
// The worker mode (-worker -connect addr) is normally invoked only by the
// coordinator.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/distrib"
	"repro/internal/faultinject"
	"repro/internal/health"
	"repro/internal/ptio"
	"repro/internal/telemetry"
)

// coordOptions bundles the coordinator-mode settings.
type coordOptions struct {
	input, output   string
	eps             float64
	minPts          int
	leaves, workers int
	retries         int
	noise           bool
	plan            *faultinject.Plan
	ckptDir         string
	resume          bool
	deadline        time.Duration
	straggler       float64
	slowWorker      time.Duration
	slowLimpOps     int
	health          bool
	healthLatFactor float64
	healthProbe     time.Duration
	healthBudget    int
	traceOut        string
	metricsOut      string
	reportOut       string
}

func main() {
	var (
		input      = flag.String("input", "", "input MRSC dataset file (required in coordinator mode)")
		output     = flag.String("output", "clusters.mrsl", "output labeled file")
		eps        = flag.Float64("eps", 0.1, "DBSCAN Eps")
		minPts     = flag.Int("minpts", 40, "DBSCAN MinPts")
		leaves     = flag.Int("leaves", 8, "partitions (pulled from a shared queue by workers)")
		workers    = flag.Int("workers", 2, "worker processes to spawn")
		noise      = flag.Bool("noise", false, "include noise points in the output")
		worker     = flag.Bool("worker", false, "run as a worker (internal)")
		connect    = flag.String("connect", "", "coordinator address (worker mode)")
		delay      = flag.Duration("delay", 0, "per-request service delay (worker mode; straggler experiments)")
		retries    = flag.Int("retries", 3, "max workers a partition is sent to before the run fails")
		faultPlan  = flag.String("fault-plan", "", "fault injection plan, e.g. 'distrib.worker.0:after=1' (see internal/faultinject)")
		faultSeed  = flag.Int64("fault-seed", 1, "RNG seed for probabilistic fault rules")
		ckptDir    = flag.String("checkpoint-dir", "", "directory for per-partition checkpoints, written crash-consistently: fsync before the atomic rename, directory sync after (empty = no checkpointing)")
		resume     = flag.Bool("resume", false, "restore partitions checkpointed in -checkpoint-dir by an earlier run")
		deadline   = flag.Duration("deadline", 0, "abort the dispatch after this long (0 = none)")
		straggler  = flag.Float64("straggler-factor", 0, "hedge partitions slower than this × the running p95 service time (0 = off)")
		slowWorker = flag.Duration("slow-worker-delay", 0, "make the last spawned worker this much slower per request (straggler demo)")
		slowLimp   = flag.Int("slow-worker-limp-ops", 0, "the slow worker recovers after this many slow requests (0 = slow forever; gray-failure recovery demo)")
		limpOps    = flag.Int("limp-ops", 0, "number of requests the -delay applies to (worker mode; 0 = all)")
		healthOn   = flag.Bool("health", false, "enable adaptive worker health scoring: limping workers are quarantined on in-flight latency evidence, probed while quarantined, and re-admitted after clean probes plus clean work")
		healthLat  = flag.Float64("health-latency-factor", 0, "quarantine a worker whose latency EWMA exceeds this x the fleet p50 (0 = default 3)")
		healthProb = flag.Duration("health-probe-interval", 0, "probe cadence for quarantined workers (0 = default 5ms)")
		healthBud  = flag.Int("health-retry-budget", 0, "shared retry token budget across partition redispatches (0 = unlimited); exhaustion fails the run loudly")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON of the dispatch (open in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics in Prometheus text format")
		reportOut  = flag.String("report-out", "", "write a structured per-run JSON report")
	)
	flag.Parse()
	if *worker {
		err := distrib.WorkerWithOptions(*connect, os.Getpid(), distrib.WorkerOptions{Delay: *delay, LimpOps: *limpOps})
		if err != nil && !distrib.IsConnClosed(err) {
			fmt.Fprintln(os.Stderr, "mrscan-dist worker:", err)
			os.Exit(1)
		}
		return
	}
	if *input == "" {
		fmt.Fprintln(os.Stderr, "mrscan-dist: -input is required")
		flag.Usage()
		os.Exit(2)
	}
	plan, err := faultinject.Parse(*faultPlan, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrscan-dist:", err)
		os.Exit(2)
	}
	opt := coordOptions{
		input: *input, output: *output, eps: *eps, minPts: *minPts,
		leaves: *leaves, workers: *workers, retries: *retries, noise: *noise,
		plan: plan, ckptDir: *ckptDir, resume: *resume, deadline: *deadline,
		straggler: *straggler, slowWorker: *slowWorker, slowLimpOps: *slowLimp,
		health: *healthOn, healthLatFactor: *healthLat,
		healthProbe: *healthProb, healthBudget: *healthBud,
		traceOut: *traceOut, metricsOut: *metricsOut, reportOut: *reportOut,
	}
	if err := coordinate(opt); err != nil {
		fmt.Fprintln(os.Stderr, "mrscan-dist:", err)
		os.Exit(1)
	}
}

func coordinate(o coordOptions) error {
	input, output := o.input, o.output
	eps, minPts := o.eps, o.minPts
	leaves, workers, retries := o.leaves, o.workers, o.retries
	noise, plan := o.noise, o.plan
	f, err := os.Open(input)
	if err != nil {
		return err
	}
	pts, err := ptio.ReadDataset(f)
	f.Close()
	if err != nil {
		return err
	}

	c, err := distrib.NewCoordinator()
	if err != nil {
		return err
	}
	c.Retry = distrib.RetryPolicy{MaxAttempts: retries}
	c.RequestTimeout = 2 * time.Minute
	c.SetFaultPlan(plan)
	c.StragglerFactor = o.straggler
	var tracker *health.Tracker
	var budget *health.Budget
	if o.health {
		tracker = health.New(health.Config{LatencyFactor: o.healthLatFactor})
		c.Health = tracker
		c.ProbeInterval = o.healthProbe
	}
	if o.healthBudget > 0 {
		budget = health.NewBudget(o.healthBudget, 0)
		c.Budget = budget
	}
	var hub *telemetry.Hub
	var runSpan *telemetry.Span
	if o.traceOut != "" || o.metricsOut != "" || o.reportOut != "" {
		// Wall-clock only: the distributed path runs on real sockets, so
		// there is no simulated clock to read.
		hub = telemetry.New(nil)
		runSpan = hub.Start(nil, "mrscan-dist.run")
		c.SetTelemetry(hub)
		c.SetTraceParent(runSpan)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	procs := make([]*exec.Cmd, workers)
	for i := range procs {
		args := []string{"-worker", "-connect", c.Addr()}
		if o.slowWorker > 0 && i == workers-1 {
			args = append(args, "-delay", o.slowWorker.String())
			if o.slowLimpOps > 0 {
				args = append(args, "-limp-ops", fmt.Sprint(o.slowLimpOps))
			}
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning worker %d: %w", i, err)
		}
		procs[i] = cmd
	}
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				_ = p.Wait()
			}
		}
	}()
	if err := c.AcceptWorkers(workers, 30*time.Second); err != nil {
		return err
	}
	fmt.Printf("clustering %d points on %d worker processes (%d partitions)...\n",
		len(pts), workers, leaves)
	runOpts := distrib.Options{Eps: eps, MinPts: minPts, Leaves: leaves, DenseBox: true}
	if o.ckptDir != "" {
		bk, err := checkpoint.DirFS(o.ckptDir)
		if err != nil {
			return fmt.Errorf("opening checkpoint dir: %w", err)
		}
		store := checkpoint.NewStore(bk, distrib.CheckpointRunID(input, len(pts), runOpts))
		if !o.resume {
			// A fresh (non-resume) run must not restore stale snapshots
			// from an earlier invocation over the same directory.
			if err := store.Clear(); err != nil {
				return fmt.Errorf("clearing stale checkpoints: %w", err)
			}
		}
		if hub != nil {
			store.SetTelemetry(hub)
			store.SetTraceParent(runSpan)
		}
		runOpts.Checkpoint = store
	}
	ctx := context.Background()
	if o.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.deadline)
		defer cancel()
	}
	res, err := c.RunContext(ctx, pts, runOpts)
	stats := c.Stats()
	c.Shutdown()
	if hub != nil {
		runSpan.End()
		// Export even on failure: the trace shows the dispatch up to the
		// abort, retries and hedges included.
		if xerr := telemetry.WriteFiles(hub, o.traceOut, o.metricsOut, o.reportOut); xerr != nil {
			fmt.Fprintln(os.Stderr, "mrscan-dist:", xerr)
		}
	}
	if err != nil {
		if o.ckptDir != "" {
			fmt.Fprintln(os.Stderr, "mrscan-dist: completed partitions are checkpointed; rerun with -resume to continue")
		}
		return err
	}
	if stats.WorkersLost > 0 {
		fmt.Printf("recovered from %d worker failure(s): %d partition(s) reassigned\n",
			stats.WorkersLost, stats.Reassigned)
	}
	if res.RestoredPartitions > 0 {
		fmt.Printf("resumed: %d partition(s) restored from checkpoints\n", res.RestoredPartitions)
	}
	if stats.HedgesLaunched > 0 {
		fmt.Printf("straggler hedges: %d launched, %d won\n", stats.HedgesLaunched, stats.HedgesWon)
	}
	if tracker != nil {
		for _, v := range tracker.Snapshot() {
			if v.State != health.Healthy {
				fmt.Printf("health: %s is %s (latency EWMA %v, error rate %.2f)\n",
					v.Component, v.State, v.Latency.Round(time.Millisecond), v.ErrorRate)
			}
		}
		if q := tracker.QuarantinedComponents(); len(q) > 0 {
			fmt.Printf("quarantined workers (served probes only): %v\n", q)
		}
	}
	if budget != nil {
		fmt.Printf("retry budget: %d spent, %d denied, %d remaining\n",
			budget.Spent(), budget.Denied(), budget.Remaining())
	}

	var records []ptio.LabeledPoint
	skipped := 0
	for i, l := range res.Labels {
		if l < 0 && !noise {
			skipped++
			continue
		}
		records = append(records, ptio.LabeledPoint{Point: pts[i], Cluster: int64(l)})
	}
	out, err := os.Create(output)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := ptio.WriteLabeled(out, records); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("clusters found:   %d\n", res.NumClusters)
	fmt.Printf("points in output: %d (noise skipped: %d)\n", len(records), skipped)
	return nil
}
