// Package mrscan is the end-to-end Mr. Scan pipeline (paper §3): a
// parallel DBSCAN with four phases — partition, cluster, merge, sweep —
// run over MRNet-style process trees with a simulated GPGPU per leaf.
//
// Run starts from a single input file on the (simulated) parallel file
// system and produces a file of clustered points with global cluster IDs,
// exactly the paper's contract, with a per-phase time breakdown matching
// the units of Figures 8–10.
//
// The pipeline is restartable: with Config.Checkpoint set, every phase
// barrier writes a verified snapshot to the file system (see
// internal/checkpoint), and a later run with Config.Resume restores the
// longest valid prefix of snapshots instead of recomputing it. A run
// killed mid-phase — modeled by a fatal fault rule — resumes from the
// last durable phase and produces byte-identical output.
package mrscan

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/health"
	"repro/internal/lustre"
	"repro/internal/merge"
	"repro/internal/mrnet"
	"repro/internal/partition"
	"repro/internal/ptio"
	"repro/internal/simclock"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// Config configures a full Mr. Scan run.
type Config struct {
	// Eps and MinPts are the DBSCAN parameters.
	Eps    float64
	MinPts int

	// Leaves is the number of cluster-phase leaf processes (one GPGPU
	// each). PartitionLeaves is the size of the partitioner's separate
	// process network (Table 1's fourth column); it defaults to
	// max(1, Leaves/16), roughly the paper's ratio.
	Leaves          int
	PartitionLeaves int
	// Fanout is the tree fanout (default 256, the paper's topology).
	Fanout int
	// Topology optionally pins the cluster tree to an explicit
	// MRNet-style fanout-product spec (e.g. "2x16" = root → 2 internal →
	// 16 leaves each). Its leaf product must equal Leaves. Empty uses
	// the balanced Fanout tree.
	Topology string

	// DenseBox enables the §3.2.3 optimization (default on via Default):
	// leaves subdivide their KD-tree to Eps cells and every all-core cell
	// is a dense box. Off is the full-expansion arm of the ablation.
	DenseBox bool
	// ShadowReps enables the partitioner's representative-shadow
	// optimization (§3.1.3).
	ShadowReps bool
	// Rebalance enables the partition rebalancing pass (§3.1.2).
	Rebalance bool
	// IncludeNoise writes noise points (cluster -1) to the output.
	IncludeNoise bool
	// HasWeight selects the record format of input and partition files.
	HasWeight bool

	// Mode selects the GPGPU algorithm profile (Mr. Scan or CUDA-DClust).
	Mode gdbscan.Mode
	// GPU configures each leaf's simulated device (default gpusim.K20).
	GPU gpusim.Config
	// Blocks, ThreadsPerBlock and LeafSize tune the GPGPU DBSCAN.
	Blocks          int
	ThreadsPerBlock int
	LeafSize        int

	// Costs is the overlay network cost model.
	Costs mrnet.CostModel

	// DirectPartitions implements the paper's stated future work (§6):
	// partition contents travel over the network directly to the
	// clustering processes instead of through the parallel file system,
	// eliminating the small random writes that dominate Figure 9a.
	DirectPartitions bool

	// MergeOverTCP runs the merge phase's tree reduction over real TCP
	// connections on the loopback interface instead of the in-process
	// overlay — every internal node decodes, combines and re-encodes
	// summaries from actual sockets, demonstrating the protocol is
	// transport-independent (as MRNet is on a physical cluster).
	MergeOverTCP bool

	// ReclaimBorders feeds shadow-view border observations back to the
	// owning leaves during the sweep: a point whose only core neighbors
	// live in its owner's shadow region is misclassified noise by the
	// owner (the point-level analogue of Figure 7); another leaf's
	// summary knows better. The paper does not close this loop — it is
	// the residual behind its 0.995 quality floor — so the option
	// defaults to off for paper-faithful output.
	ReclaimBorders bool

	// HotCellThreshold, when positive, subdivides grid cells holding more
	// points than the threshold into quadrant tiles shared across leaves
	// — the paper's §5.1.2 fix for the strong-scaling plateau caused by
	// "a partition made up of a single dense grid cell" that "cannot be
	// subdivided further".
	HotCellThreshold int64

	// Retry governs re-execution of pipeline phases after transient
	// faults (Lustre OST evictions, overlay link errors, GPU launch
	// failures). Phases are idempotent — partition and sweep truncate
	// their output files on re-execution, cluster and merge are pure —
	// so a whole-phase retry is safe. The zero value disables retries.
	// Fatal faults (faultinject.FatalError) and context cancellation are
	// never retried: the former models process death, the latter is the
	// caller's deadline.
	Retry RetryPolicy

	// FaultPlan, when non-nil, is installed on every substrate the run
	// provisions: the file system, both overlay networks, and each
	// leaf's GPU device. The pipeline additionally consults the plan at
	// the start of every phase attempt under the sites
	// "mrscan.phase.partition", ".cluster", ".merge", ".sweep" — a fatal
	// rule armed there kills the run at a deterministic phase boundary.
	// See internal/faultinject for the plan format.
	FaultPlan *faultinject.Plan

	// Checkpoint writes a verified snapshot of each completed phase
	// (partition, cluster, merge) to the file system — the durable state
	// a later Resume run restarts from. The sweep phase is not
	// snapshotted: its artifact is the output file itself and
	// re-executing it is idempotent.
	Checkpoint bool
	// Resume restores the longest valid prefix of phase snapshots left
	// on fs by an earlier checkpointed run with the same configuration
	// and input, re-executing only the phases after it. Corrupt or
	// truncated snapshots fail their checksum and the prefix stops
	// before them. Resume implies Checkpoint. Snapshots from a different
	// configuration (detected via a RunID fingerprint) are ignored.
	Resume bool

	// Telemetry, when non-nil, is the hub the run records on: phase
	// spans under a "mrscan.run" root, and every substrate the run
	// provisions (file system, overlay networks, each leaf's GPU device,
	// the checkpoint store) pointed at it, so per-kernel, per-hop and
	// per-I/O spans nest under their phase. Fault injections and phase
	// retries appear as instant events. When nil the run provisions a
	// private hub; Result.Telemetry exposes whichever was used, ready
	// for the telemetry exporters (Chrome trace, Prometheus text, JSON
	// report).
	Telemetry *telemetry.Hub
}

// RetryPolicy bounds per-phase re-execution after a transient fault.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per phase (default 1 —
	// the first failure surfaces immediately).
	MaxAttempts int
	// Backoff is the pause between attempts. The substrate failures are
	// simulated in-process, so the default of 0 is usually right; set it
	// when the fault plan models time-correlated outages.
	Backoff time.Duration
	// Budget, when non-nil, is the shared retry token bucket: every
	// re-attempt first takes a token at site "mrscan.phase". A denial
	// makes the transient fault terminal — under correlated gray faults
	// the run degrades into a loud partial failure instead of a silent
	// retry storm.
	Budget *health.Budget
}

// Phase names, in pipeline order. These are the snapshot keys on the
// checkpoint store and the suffixes of the per-phase fault sites.
const (
	PhasePartition = "partition"
	PhaseCluster   = "cluster"
	PhaseMerge     = "merge"
	PhaseSweep     = "sweep"
)

// PhaseSite returns the fault-injection site consulted at the start of
// every attempt of the named phase (e.g. "mrscan.phase.merge").
func PhaseSite(phase string) faultinject.Site {
	return faultinject.Site("mrscan.phase." + phase)
}

// Default returns the configuration used by the paper's experiments:
// dense box on, rebalancing on, 256-way fanout, K20 leaves.
func Default(eps float64, minPts, leaves int) Config {
	return Config{
		Eps:       eps,
		MinPts:    minPts,
		Leaves:    leaves,
		Fanout:    mrnet.DefaultFanout,
		DenseBox:  true,
		Rebalance: true,
		GPU:       gpusim.K20(),
		Costs:     mrnet.TitanCosts(),
	}
}

func (c *Config) setDefaults() error {
	if err := (geom.Params{Eps: c.Eps, MinPts: c.MinPts}).Validate(); err != nil {
		return fmt.Errorf("mrscan: %w", err)
	}
	if c.Leaves < 1 {
		return fmt.Errorf("mrscan: need at least one leaf, got %d", c.Leaves)
	}
	if c.Topology != "" {
		// Checked here, before any I/O: a tree that cannot host the leaves
		// must not cost a partition phase to find out.
		fanouts, err := mrnet.ParseSpec(c.Topology)
		if err != nil {
			return err
		}
		leaves := 1
		for _, f := range fanouts {
			leaves *= f
		}
		if leaves != c.Leaves {
			return fmt.Errorf("mrscan: topology %q yields %d leaves, config says %d",
				c.Topology, leaves, c.Leaves)
		}
	}
	if c.PartitionLeaves <= 0 {
		c.PartitionLeaves = c.Leaves / 16
		if c.PartitionLeaves < 1 {
			c.PartitionLeaves = 1
		}
	}
	if c.Fanout <= 0 {
		c.Fanout = mrnet.DefaultFanout
	}
	if c.GPU.SMs == 0 {
		c.GPU = gpusim.K20()
	}
	if c.Resume {
		c.Checkpoint = true
	}
	return nil
}

// PhaseTimes is the wall-clock breakdown reported by the evaluation:
// Figure 9a (partition), 9b (cluster+merge+sweep) and 9c (GPGPU DBSCAN).
type PhaseTimes struct {
	Partition time.Duration
	Cluster   time.Duration
	Merge     time.Duration
	Sweep     time.Duration
	// PartitionReadSim and PartitionWriteSim are the simulated Lustre
	// costs of the partition phase's read and write stages — §5.1.1
	// reports write 65.2% vs read 29.9% of the phase at scale. Each is
	// the clock's advance over its stage, which nothing else shares: the
	// cluster phase starts after the partition phase commits. Zero when
	// DirectPartitions bypasses the file system; the overlay transfer
	// cost replacing the write stage is recorded on
	// partition.DirectResult (and the phase checkpoint) instead, so the
	// two designs still compare like-for-like.
	PartitionReadSim  time.Duration
	PartitionWriteSim time.Duration
	// GPUDBSCAN is the slowest leaf's simulated GPU time (kernels and
	// PCIe, gpusim) inside the GPGPU DBSCAN — "the time of the cluster
	// phase is dictated by the slowest node" (§5.1.1).
	GPUDBSCAN time.Duration
	// Total is the end-to-end elapsed time including I/O, as in Figure 8
	// ("includes startup and I/O costs, which has not been reported by
	// previous projects").
	Total time.Duration
	// PartitionRetries, ClusterRetries, MergeRetries and SweepRetries
	// count whole-phase re-executions forced by transient faults
	// (Config.Retry). All zero on a fault-free run.
	PartitionRetries int
	ClusterRetries   int
	MergeRetries     int
	SweepRetries     int
}

// Retries returns the total number of phase re-executions.
func (t PhaseTimes) Retries() int {
	return t.PartitionRetries + t.ClusterRetries + t.MergeRetries + t.SweepRetries
}

// Stats aggregates run-level counters.
type Stats struct {
	TotalPoints    int64
	WrittenPoints  int64
	OutputPoints   int64
	NoiseSkipped   int64
	DenseBoxes     int
	DenseBoxPoints int
	// CellCorePoints and CellNonCorePoints count, over every leaf's
	// partition (WrittenPoints in all), the points whose core flag a KD
	// cell's count bounds settled with no neighborhood count of their own.
	CellCorePoints    int
	CellNonCorePoints int
	Collisions        int
	SeedRounds        int
	MaxLeafPoints     int
	// NetRecoveries counts overlay internal-node failures absorbed by
	// re-parenting children to the grandparent (both networks).
	NetRecoveries int64
	// FaultsInjected is the total number of faults the plan fired during
	// the run (0 without a plan).
	FaultsInjected int64
	// SimNow is the simulated-hardware elapsed time (max over resources).
	SimNow time.Duration
	// Resources is the per-resource simulated-time breakdown: GPU SMs,
	// PCIe links, Lustre OSTs and seeks, overlay levels and startup.
	Resources []simclock.ResourceTime
}

// Result is a completed (or, on error, partially completed) run.
type Result struct {
	NumClusters int
	Times       PhaseTimes
	Stats       Stats
	// Plan is the partition plan (for inspection and experiments). It is
	// nil when the partition phase was restored from a checkpoint — the
	// plan's internals are not part of the durable snapshot, only its
	// outputs are.
	Plan *partition.Plan
	// OutputFile names the labeled output on the file system.
	OutputFile string
	// CompletedPhases lists the phases that finished, in pipeline order,
	// whether executed or restored. On a successful run it is all four;
	// on an aborted run it names how far the pipeline got.
	CompletedPhases []string
	// RestoredPhases is the subset of CompletedPhases that was restored
	// from checkpoints instead of executed (empty without Resume).
	RestoredPhases []string
	// Telemetry is the hub the run recorded on — Config.Telemetry when
	// set, otherwise the private hub the run provisioned. Hand it to the
	// telemetry exporters to emit the Chrome trace, Prometheus metrics
	// or the JSON run report.
	Telemetry *telemetry.Hub
}

// File names used inside the simulated file system.
const (
	partitionFile = "mrscan-partitions.bin"
	metadataFile  = "mrscan-partitions.json"
)

// Run executes the full pipeline against inputFile on fs, writing labeled
// output to outputFile. It is RunContext without a deadline.
func Run(fs *lustre.FS, inputFile, outputFile string, cfg Config) (*Result, error) {
	return RunContext(context.Background(), fs, inputFile, outputFile, cfg)
}

// RunContext executes the full pipeline under ctx. Cancellation or
// deadline expiry aborts the run at the next phase or tree-hop boundary;
// the returned error wraps the context error and names the in-flight
// phase, and the partial Result lists the phases that completed before
// the abort. With Config.Checkpoint those phases are already durable, so
// a later Resume run picks up where the deadline struck.
func RunContext(ctx context.Context, fs *lustre.FS, inputFile, outputFile string, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := newRun(ctx, fs, inputFile, outputFile, cfg)
	return r.finish(r.execAll())
}

// execAll drives every phase in pipeline order, stopping at the first
// error.
func (r *run) execAll() error {
	phases := r.phases()
	for i := range phases {
		if phases[i].name == PhaseCluster {
			// The last three phases, executed or restored, run over the
			// cluster tree. It is built between the partition and cluster
			// spans, so its startup charge lands inside neither.
			var err error
			if r.clusterNet, err = r.newNet("cluster", r.cfg.Topology, r.cfg.Leaves); err != nil {
				return err
			}
		}
		if err := r.exec(i, &phases[i]); err != nil {
			return err
		}
	}
	return nil
}

// run is the state one RunContext call threads through its phases. A
// phase is only its own work; every concern the four share — span,
// substrate re-parenting, restore, fault site, retry,
// sync-before-checkpoint, bookkeeping — is applied once, by exec.
type run struct {
	ctx       context.Context
	cfg       Config
	fs        *lustre.FS
	hub       *telemetry.Hub
	store     *checkpoint.Store // nil without Config.Checkpoint
	res       *Result
	grid      grid.Grid
	inputFile string
	start     time.Time

	runSpan *telemetry.Span
	// curSpan tracks the in-flight phase span so fault-observer events
	// (fired from arbitrary substrate goroutines) nest correctly.
	curSpan atomic.Pointer[telemetry.Span]
	// validPrefix counts the leading phases a Resume run restores.
	validPrefix int

	partNet, clusterNet *mrnet.Network

	// Phase outputs. The snapshot structs are the live state: an executed
	// phase fills them, a restored one decodes into them.
	part      partitionCkpt
	parts     *partitionSource
	clustered clusterCkpt
	merged    mergeCkpt
	mapping   map[merge.ClusterKey]int32
	claims    map[uint64]int32
}

func newRun(ctx context.Context, fs *lustre.FS, inputFile, outputFile string, cfg Config) *run {
	hub := cfg.Telemetry
	if hub == nil {
		hub = telemetry.New(fs.Clock())
	}
	r := &run{
		ctx: ctx, cfg: cfg, fs: fs, hub: hub, inputFile: inputFile, start: time.Now(),
		res:  &Result{OutputFile: outputFile, Telemetry: hub},
		grid: grid.New(cfg.Eps),
	}
	fs.SetTelemetry(hub)
	r.runSpan = hub.Start(nil, "mrscan.run")
	r.curSpan.Store(r.runSpan)
	if cfg.FaultPlan != nil {
		fs.SetFaultPlan(cfg.FaultPlan)
		// A run that may see injected corruption gets the checksummed
		// data plane: without it a lustre bit flip escapes silently.
		fs.EnableIntegrity()
		cfg.FaultPlan.SetObserver(func(site faultinject.Site, ferr error, fatal bool) {
			hub.Event(r.curSpan.Load(), "fault.injected",
				telemetry.String("site", string(site)), telemetry.Bool("fatal", fatal))
			hub.Counter("mrscan_faults_injected_total", "site", string(site)).Inc()
		})
	}
	if cfg.Checkpoint {
		r.store = checkpoint.NewStore(checkpoint.LustreFS(fs), runFingerprint(&cfg, fs, inputFile))
		r.store.SetTelemetry(hub)
		if cfg.Resume {
			r.validPrefix = r.store.ValidPrefix([]string{PhasePartition, PhaseCluster, PhaseMerge})
		}
	}
	return r
}

// newNet provisions one of the run's overlay trees: the balanced Fanout
// tree over leaves, or the explicit topology spec when one is given
// (setDefaults has already matched it to the leaf count).
func (r *run) newNet(label, spec string, leaves int) (net *mrnet.Network, err error) {
	if spec != "" {
		net, err = mrnet.NewFromSpec(spec, r.cfg.Costs, r.fs.Clock())
	} else {
		net, err = mrnet.New(leaves, r.cfg.Fanout, r.cfg.Costs, r.fs.Clock())
	}
	if err != nil {
		return nil, err
	}
	net.SetFaultPlan(r.cfg.FaultPlan)
	net.SetTelemetry(r.hub, label)
	return net, nil
}

// exec drives phase i (pipeline order): it opens the span the phase's
// work records under and points the phase-agnostic substrates at it, then
// restores the phase when it lies inside the valid checkpoint prefix, and
// otherwise runs it under the retry policy and commits it.
func (r *run) exec(i int, p *phase) error {
	p.since = time.Now()
	p.sp = r.hub.Start(r.runSpan, "phase:"+p.name, telemetry.String(telemetry.AttrKind, telemetry.KindPhase))
	r.curSpan.Store(p.sp)
	r.fs.SetTraceParent(p.sp)
	if r.store != nil {
		r.store.SetTraceParent(p.sp)
	}
	if r.clusterNet != nil {
		r.clusterNet.SetTraceParent(p.sp)
	}

	if i < r.validPrefix {
		err := r.store.Load(p.name, p.snapshot)
		if err == nil {
			err = p.adopt()
		}
		if err != nil {
			return fmt.Errorf("mrscan: restoring %s phase: %w", p.name, err)
		}
		r.res.RestoredPhases = append(r.res.RestoredPhases, p.name)
		r.complete(p)
		return nil
	}
	if err := r.attempts(p); err != nil {
		return err
	}
	return r.commit(p)
}

// attempts executes the phase under the retry policy, counting retries
// and wrapping the terminal error with the phase name — every
// unrecoverable fault names the phase it killed. Each attempt first
// checks the caller's context, then consults the fault plan at the
// phase's site; fatal faults and context errors are terminal (no retry).
func (r *run) attempts(p *phase) error {
	policy := r.cfg.Retry
	var err error
	for a := 1; ; a++ {
		if err = r.ctx.Err(); err != nil {
			break
		}
		if err = r.cfg.FaultPlan.Check(PhaseSite(p.name)); err == nil {
			err = p.attempt(p)
		}
		if err == nil {
			return nil
		}
		if a >= policy.MaxAttempts || faultinject.IsFatal(err) || errors.Is(err, lustre.ErrCrashed) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// Out of attempts, or terminal. A simulated power failure is
			// terminal too: retrying against a crashed file system can
			// only fail again — the run must stop so the harness can
			// Recover and restart it.
			break
		}
		if !policy.Budget.Take("mrscan.phase") {
			err = fmt.Errorf("%w (retry denied: %w)", err, health.ErrBudgetExhausted)
			break
		}
		*p.retries++
		r.hub.Event(p.sp, "mrscan.retry",
			telemetry.String("phase", p.name), telemetry.Int("attempt", a))
		r.hub.Counter("mrscan_phase_retries_total", "phase", p.name).Inc()
		if policy.Backoff > 0 {
			time.Sleep(policy.Backoff)
		}
	}
	return phaseErr(p.name, err)
}

func phaseErr(name string, err error) error {
	return fmt.Errorf("mrscan: %s phase: %w", name, err)
}

// commit makes an executed phase durable, then adopts and records it.
// Sync-ordering invariant: the artifacts are fsynced and their directory
// synced before the snapshot that references them is saved — a resume
// re-reads the partition data, so a crash must never leave a durable
// checkpoint over torn partitions — and before the phase is reported
// complete: the sweep's successful return acknowledges the output file.
func (r *run) commit(p *phase) error {
	var names []string
	if p.artifacts != nil {
		names = p.artifacts()
	}
	for _, name := range names {
		if err := r.fs.Sync(name); err != nil {
			return fmt.Errorf("mrscan: syncing %s: %w", name, err)
		}
	}
	if len(names) > 0 {
		if err := r.fs.SyncDir("."); err != nil {
			return fmt.Errorf("mrscan: syncing %s output dir: %w", p.name, err)
		}
	}
	if r.store != nil && p.snapshot != nil {
		if err := r.store.Save(p.name, p.snapshot); err != nil {
			return fmt.Errorf("mrscan: checkpointing %s phase: %w", p.name, err)
		}
	}
	if p.adopt != nil {
		if err := p.adopt(); err != nil {
			return phaseErr(p.name, err)
		}
	}
	r.complete(p)
	return nil
}

// complete closes a phase span and records the phase as done. Its wall
// time is the span's own duration, so Times agree with the exported trace
// whoever else records on the hub; the stopwatch covers hubs without a
// tracer.
func (r *run) complete(p *phase) {
	r.res.CompletedPhases = append(r.res.CompletedPhases, p.name)
	p.sp.End()
	*p.wall = time.Since(p.since)
	if p.sp != nil {
		*p.wall = p.sp.WallDuration()
	}
}

// finish finalizes the result of a run that ended with err (nil on
// success): the caller gets both, with whatever phases completed named
// and their stats filled. Open spans are closed so the trace of an
// aborted run still exports.
func (r *run) finish(err error) (*Result, error) {
	r.curSpan.Load().End()
	r.runSpan.End()
	r.fs.SetTraceParent(nil)
	for _, net := range []*mrnet.Network{r.partNet, r.clusterNet} {
		if net != nil {
			r.res.Stats.NetRecoveries += net.Recoveries()
		}
	}
	r.res.Stats.FaultsInjected = r.cfg.FaultPlan.TotalFired()
	r.res.Stats.SimNow = r.fs.Clock().Now()
	r.res.Stats.Resources = r.fs.Clock().Snapshot()
	r.res.Times.Total = time.Since(r.start)
	return r.res, err
}

// phase is one pipeline stage as the driver sees it.
type phase struct {
	name string
	// attempt does the phase's work once, recording under p.sp. It is
	// idempotent (see Config.Retry): exec re-runs it after a transient fault.
	attempt func(p *phase) error
	// artifacts names the files that must be durable before the phase is
	// checkpointed or acknowledged (nil: the phase writes none).
	artifacts func() []string
	// snapshot points at the run state the phase produces: what the
	// checkpoint store saves after an executed phase and decodes into for
	// a restored one. Nil for the sweep (see Config.Checkpoint).
	snapshot snapshotCodec
	// adopt validates the snapshot and derives what later phases and the
	// Result read from it, executed or restored alike — a restored phase
	// is indistinguishable from an executed one.
	adopt func() error
	// wall and retries are the phase's slots in Result.Times.
	wall    *time.Duration
	retries *int

	// Set by exec: the phase's span, and the stopwatch behind wall when
	// there is no span.
	sp    *telemetry.Span
	since time.Time
}

// phases lists the pipeline in execution order (paper §3, Fig. 1).
func (r *run) phases() [4]phase {
	t := &r.res.Times
	return [4]phase{
		{name: PhasePartition, attempt: r.partition, artifacts: r.partitionArtifacts,
			snapshot: &r.part, adopt: r.adoptPartition, wall: &t.Partition, retries: &t.PartitionRetries},
		{name: PhaseCluster, attempt: r.cluster,
			snapshot: &r.clustered, adopt: r.adoptCluster, wall: &t.Cluster, retries: &t.ClusterRetries},
		{name: PhaseMerge, attempt: r.merge,
			snapshot: &r.merged, adopt: r.adoptMerge, wall: &t.Merge, retries: &t.MergeRetries},
		{name: PhaseSweep, attempt: r.sweep, artifacts: func() []string { return []string{r.res.OutputFile} },
			wall: &t.Sweep, retries: &t.SweepRetries},
	}
}

// runFingerprint derives the checkpoint RunID from every configuration
// field that shapes phase outputs, the input file's name and size, the
// shape of the summaries the cluster and merge snapshots hold, and the
// snapshots' record format.
// Checkpoints written under a different fingerprint are ignored by
// Resume — restoring a snapshot into a run that would have computed
// something else silently corrupts the output. The literal false fills
// the slot of a removed option (log-structured partition writes), so
// every RunID, and every checkpoint written under it, stays as it was.
func runFingerprint(cfg *Config, fs *lustre.FS, inputFile string) string {
	var size int64
	if s, err := fs.Size(inputFile); err == nil {
		size = s
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%g|%d|%d|%d|%d|%q|%t|%t|%t|%t|%t|%t|%t|%d|%v|%d|%d|%d|%t|summary-v%d|%s",
		inputFile, size, cfg.Eps, cfg.MinPts, cfg.Leaves, cfg.PartitionLeaves,
		cfg.Fanout, cfg.Topology, cfg.DenseBox, cfg.ShadowReps, cfg.Rebalance,
		cfg.IncludeNoise, cfg.HasWeight, cfg.DirectPartitions, cfg.ReclaimBorders,
		cfg.HotCellThreshold, cfg.Mode, cfg.Blocks, cfg.ThreadsPerBlock, cfg.LeafSize,
		false, merge.SummarySchema, checkpoint.RecordsTag)
	return fmt.Sprintf("mrscan-%016x", h.Sum64())
}

// --- Phase 1: partition (separate flat MRNet network, §3.1.3) ---

func (r *run) partition(p *phase) error {
	cfg := &r.cfg
	if r.partNet == nil {
		var err error
		if r.partNet, err = r.newNet("partition", "", cfg.PartitionLeaves); err != nil {
			return err
		}
		r.partNet.SetTraceParent(p.sp)
	}
	opts := partition.DistOptions{
		NumPartitions:  cfg.Leaves,
		MinPts:         cfg.MinPts,
		Rebalance:      cfg.Rebalance,
		ShadowReps:     cfg.ShadowReps,
		HasWeight:      cfg.HasWeight,
		SplitThreshold: cfg.HotCellThreshold,
	}
	if cfg.DirectPartitions {
		direct, err := partition.DistributeDirect(r.ctx, r.partNet, r.fs, cfg.Eps, r.inputFile, opts)
		if err != nil {
			return err
		}
		r.res.Plan = direct.Plan
		// The sims are recorded for file-mode parity but stay out of
		// PhaseTimes: the phase wrote no Lustre bytes.
		r.part = partitionCkpt{
			Direct:        true,
			Partitions:    direct.Partitions,
			Shadows:       direct.Shadows,
			TotalPoints:   direct.TotalPoints,
			WrittenPoints: direct.TransferredPoints,
			ReadSim:       direct.ReadSim,
			WriteSim:      direct.WriteSim,
		}
		return nil
	}
	dist, err := partition.Distribute(r.ctx, r.partNet, r.fs, cfg.Eps, r.inputFile, partitionFile, metadataFile, opts)
	if err != nil {
		return err
	}
	r.res.Plan = dist.Plan
	r.part = partitionCkpt{
		Meta:          dist.Meta,
		TotalPoints:   dist.TotalPoints,
		WrittenPoints: dist.WrittenPoints,
		ReadSim:       dist.ReadSim,
		WriteSim:      dist.WriteSim,
	}
	return nil
}

// partitionArtifacts lists the partition phase's durable files: the
// partition file and its metadata document. A DirectPartitions run wrote
// no files.
func (r *run) partitionArtifacts() []string {
	if r.part.Direct {
		return nil
	}
	return []string{partitionFile, metadataFile}
}

func (r *run) adoptPartition() error {
	pc := &r.part
	r.parts = &partitionSource{pc, r.fs}
	r.res.Stats.TotalPoints, r.res.Stats.WrittenPoints = pc.TotalPoints, pc.WrittenPoints
	if !pc.Direct {
		// Direct snapshots carry the overlay-transfer sims for parity
		// inspection, but PhaseTimes reports Lustre costs only.
		r.res.Times.PartitionReadSim, r.res.Times.PartitionWriteSim = pc.ReadSim, pc.WriteSim
	}
	return nil
}

// --- Phase 2: cluster (GPGPU DBSCAN on every leaf, §3.2) ---

func (r *run) cluster(p *phase) error {
	cfg := &r.cfg
	workers := min(runtime.GOMAXPROCS(0), cfg.Leaves)
	sizes := make([]int64, cfg.Leaves)
	for j := range sizes {
		sizes[j] = r.parts.size(j)
	}
	// Host scratch per worker, a simulated device per leaf: scratch never
	// touches simulated time, so sharing it leaves each leaf's GPGPU node
	// as the paper has it.
	scratch := make([]leafScratch, workers)
	leaves, err := runLeaves(r.ctx, cfg.Leaves, workers, sizes,
		func(w, leaf int) (leafState, error) {
			return r.clusterLeaf(p.sp, &scratch[w], leaf)
		})
	r.clustered.Leaves = leaves
	return err
}

// leafScratch is the host memory one cluster worker reuses for every
// leaf it runs: the gdbscan workspace and the summary sort buffers.
type leafScratch struct {
	ws  gdbscan.Workspace
	sum merge.Scratch
}

func (r *run) newDevice(leaf int) *gpusim.Device {
	gpuCfg := r.cfg.GPU
	gpuCfg.Name = fmt.Sprintf("gpu%04d", leaf)
	dev := gpusim.New(gpuCfg, r.fs.Clock())
	dev.SetFaultPlan(r.cfg.FaultPlan)
	dev.SetTelemetry(r.hub)
	return dev
}

// clusterLeaf runs one leaf's GPGPU DBSCAN + summary build on a device of
// the leaf's own, with host scratch its worker reuses across all the
// leaves it runs.
func (r *run) clusterLeaf(phaseSpan *telemetry.Span, scratch *leafScratch, leaf int) (leafState, error) {
	cfg := &r.cfg
	leafSpan := r.hub.Start(phaseSpan, "leaf", telemetry.Int("leaf", leaf))
	defer leafSpan.End()
	slab, owned, err := r.parts.load(leaf)
	if err != nil {
		return leafState{}, err
	}
	dev := r.newDevice(leaf)
	dev.SetTraceParent(leafSpan)
	gpuStart := dev.SimTime()
	res, err := gdbscan.Cluster(dev, slab, gdbscan.Options{
		Params:          geom.Params{Eps: cfg.Eps, MinPts: cfg.MinPts},
		DenseBox:        cfg.DenseBox,
		Mode:            cfg.Mode,
		Blocks:          cfg.Blocks,
		ThreadsPerBlock: cfg.ThreadsPerBlock,
		LeafSize:        cfg.LeafSize,
		Workspace:       &scratch.ws,
	})
	if err != nil {
		return leafState{}, err
	}
	gpuTime := dev.SimTime() - gpuStart
	sums, err := scratch.sum.BuildSummaries(r.grid, leaf, slab, owned, res.Labels, res.Core, res.NumClusters)
	if err != nil {
		return leafState{}, err
	}
	return leafState{
		Owned:     slab[:owned:owned],
		Labels:    res.Labels[:owned],
		Summaries: sums,
		GPUTime:   gpuTime,
		Stats:     res.Stats,
	}, nil
}

func (r *run) adoptCluster() error {
	if n := len(r.clustered.Leaves); n != r.cfg.Leaves {
		return fmt.Errorf("mrscan: %s snapshot holds %d leaves, config says %d", PhaseCluster, n, r.cfg.Leaves)
	}
	res := r.res
	for i := range r.clustered.Leaves {
		l := &r.clustered.Leaves[i]
		if l.GPUTime > res.Times.GPUDBSCAN {
			res.Times.GPUDBSCAN = l.GPUTime
		}
		res.Stats.DenseBoxes += l.Stats.DenseBoxes
		res.Stats.DenseBoxPoints += l.Stats.DenseBoxPoints
		res.Stats.CellCorePoints += l.Stats.CellCorePoints
		res.Stats.CellNonCorePoints += l.Stats.CellNonCorePoints
		res.Stats.Collisions += l.Stats.Collisions
		res.Stats.SeedRounds += l.Stats.SeedRounds
		if n := len(l.Owned); n > res.Stats.MaxLeafPoints {
			res.Stats.MaxLeafPoints = n
		}
	}
	return nil
}

// --- Phase 3: merge (progressive reduction up the tree, §3.3) ---

func (r *run) merge(*phase) error {
	cfg := &r.cfg
	leaves := r.clustered.Leaves
	var err error
	if cfg.MergeOverTCP {
		r.merged.Final, err = mergeOverTCP(r.grid, cfg.Eps, leaves, cfg.Fanout, cfg.FaultPlan, r.hub)
		return err
	}
	r.merged.Final, err = mrnet.Reduce(r.ctx, r.clusterNet,
		func(leaf int) ([]*merge.Summary, error) { return leaves[leaf].Summaries, nil },
		func(_ *mrnet.Node, groups [][]*merge.Summary) ([]*merge.Summary, error) {
			return merge.Combine(r.grid, cfg.Eps, groups), nil
		},
		func(sums []*merge.Summary) int64 {
			var n int64
			for _, s := range sums {
				n += s.WireSize()
			}
			return n
		},
	)
	return err
}

func (r *run) adoptMerge() error {
	r.res.NumClusters = len(r.merged.Final)
	r.mapping = merge.AssignGlobalIDs(r.merged.Final)
	if r.cfg.ReclaimBorders {
		r.claims = merge.BorderClaims(r.merged.Final, r.mapping)
	}
	return nil
}

// --- Phase 4: sweep (global IDs down the tree, parallel write, §3.4) ---

func (r *run) sweep(*phase) error {
	leaves := r.clustered.Leaves
	sw, err := sweep.Run(r.ctx, r.clusterNet, r.fs, r.res.OutputFile, r.mapping,
		func(leaf int) (*sweep.LeafData, error) {
			return &sweep.LeafData{Points: leaves[leaf].Owned, Labels: leaves[leaf].Labels}, nil
		},
		sweep.Options{IncludeNoise: r.cfg.IncludeNoise, Claims: r.claims},
	)
	if err != nil {
		return err
	}
	r.res.Stats.OutputPoints, r.res.Stats.NoiseSkipped = sw.PointsWritten, sw.NoiseSkipped
	return nil
}

// RunPoints is a convenience wrapper: it provisions a fresh simulated file
// system, stores pts as the input file, runs the pipeline, and returns the
// result plus per-point global labels aligned with pts (noise = -1).
// Labels are matched to pts by ID, so the IDs must be distinct: a
// repeated ID fails the run once the output is read back.
func RunPoints(pts []geom.Point, cfg Config) (*Result, []int, error) {
	return RunPointsContext(context.Background(), pts, cfg)
}

// RunPointsContext is RunPoints under a caller context: cancellation or
// deadline expiry aborts the run at the next phase or tree-hop boundary,
// exactly as RunContext. The partial result is discarded — callers that
// need the completed-phase list or durable checkpoints after an abort
// should drive RunContext against their own file system.
func RunPointsContext(ctx context.Context, pts []geom.Point, cfg Config) (*Result, []int, error) {
	fs := lustre.New(lustre.Titan(), nil)
	in := fs.Create("input.mrsc")
	if err := ptio.WriteDataset(in, pts, cfg.HasWeight); err != nil {
		return nil, nil, err
	}
	cfg.IncludeNoise = true
	res, err := RunContext(ctx, fs, "input.mrsc", "output.mrsl", cfg)
	if err != nil {
		return nil, nil, err
	}
	labels, err := LabelsByID(fs, res.OutputFile, pts)
	if err != nil {
		return nil, nil, err
	}
	return res, labels, nil
}

// LabelsByID reads a sweep output file and aligns its cluster IDs with
// pts by point ID. Points absent from the output are labeled -1 (noise
// was omitted). The (id, cluster) pairs are decoded where the records
// lie, not materialised.
func LabelsByID(fs *lustre.FS, file string, pts []geom.Point) ([]int, error) {
	h, err := fs.Open(file)
	if err != nil {
		return nil, err
	}
	count, err := outputRecords(h)
	if err != nil {
		return nil, err
	}
	var (
		labels []int
		dup    uint64
		ok     bool
	)
	align := func(recs []byte) error {
		labels, dup, ok = geom.AlignByID(pts, len(recs)/ptio.LabeledRecordSize, func(i int) (uint64, int) {
			lp := ptio.LabeledAt(recs, i)
			return lp.Point.ID, int(lp.Cluster)
		}, -1)
		return nil
	}
	if count == 0 {
		err = align(nil)
	} else {
		err = h.View(ptio.DatasetHeaderSize, count*ptio.LabeledRecordSize, align)
	}
	if err != nil {
		return nil, fmt.Errorf("mrscan: reading %s records: %w", file, err)
	}
	if !ok {
		n := 0
		for _, p := range pts {
			if p.ID == dup {
				n++
			}
		}
		if n > 1 {
			return nil, fmt.Errorf("mrscan: input point IDs are not unique: %d points carry ID %d", n, dup)
		}
		return nil, fmt.Errorf("mrscan: point %d written twice", dup)
	}
	return labels, nil
}

// outputRecords returns how many labeled records the MRSL file behind h
// holds: the count its header declares, once the file is seen to be long
// enough to hold that many — nothing may be sized from the header before.
// An empty file holds none.
func outputRecords(h *lustre.Handle) (int64, error) {
	size := h.Size()
	if size == 0 {
		return 0, nil
	}
	var hdr [ptio.DatasetHeaderSize]byte
	if _, err := h.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("mrscan: reading %s header: %w", h.Name(), err)
	}
	count, err := ptio.LabeledCount(hdr[:])
	if err != nil {
		return 0, fmt.Errorf("mrscan: %s: %w", h.Name(), err)
	}
	if held := uint64(size-ptio.DatasetHeaderSize) / ptio.LabeledRecordSize; count > held {
		return 0, fmt.Errorf("mrscan: %s declares %d records but holds %d", h.Name(), count, held)
	}
	return int64(count), nil
}

// IsStateFile reports whether a file on the simulated FS is part of the
// pipeline's durable state: checkpoint snapshots plus the partition
// artifacts a file-mode resume re-reads. The CLI stages these files out
// to a real directory after a checkpointed run and back in before a
// resumed one, carrying the state across process restarts.
func IsStateFile(name string) bool {
	return checkpoint.IsCheckpointFile(name) || name == partitionFile || name == metadataFile
}
