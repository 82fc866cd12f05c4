// Gray-failure campaigns: unlike the fail-stop schedules in chaos.go,
// these inject faults that pass every liveness check — a worker serving
// 20x slow, a link that drops two frames out of three, an OST limping at
// 1/16th bandwidth, a phase that errors transiently under an exhausted
// retry budget — and audit the adaptive health layer's promises:
//
//  1. Exact output: labels (and partition bytes) equal a fault-free
//     reference run exactly. Gray faults are masked by avoidance, not
//     by approximation.
//  2. Convergent quarantine: every sick component is quarantined within
//     grayQuarantineDispatches dispatches (or one collective round
//     trip), and no healthy component is ever quarantined.
//  3. Bounded retry spend: all masking is paid for out of the shared
//     token-bucket retry budget; spend stays under the ceiling and a
//     denied budget surfaces as a loud health.ErrBudgetExhausted, never
//     a silent retry storm.
//  4. Bounded wall time: with one 20x-slow worker in the fleet, the run
//     finishes within grayWallFactor (1.5x) of the healthy baseline.
//
// Each seed runs five legs — worker, recovery, link, shard, budget —
// exercising the quarantine machinery in distrib, mrnet, lustre and the
// mrscan phase-retry path respectively.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/distrib"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/lustre"
	"repro/internal/mrnet"
	"repro/internal/mrscan"
	"repro/internal/partition"
	"repro/internal/ptio"
)

// GrayOptions are the gray-failure scenario's knobs.
type GrayOptions struct {
	// Workers is the dispatch fleet size of the worker leg (default 8).
	Workers int
	// Points is the worker-leg dataset size (default 4000).
	Points int
	// SlowFactor is the gray slowdown of the limping worker (default 20,
	// the acceptance scenario).
	SlowFactor int
}

func (o GrayOptions) withDefaults() GrayOptions {
	orDefault(&o.Workers, 8)
	orDefault(&o.Points, 4000)
	if o.SlowFactor <= 1 {
		o.SlowFactor = 20
	}
	return o
}

// The audit's thresholds and the worker leg's shape are fixed: the first
// three are the promises under test, the last two are sized to them.
const (
	// grayQuarantineDispatches is K: the sick worker must be quarantined
	// within this many dispatches.
	grayQuarantineDispatches = 2
	// grayWallFactor bounds the worker leg's wall time as a multiple of
	// the healthy baseline.
	grayWallFactor = 1.5
	// grayRetryBudget is the shared token-bucket capacity per leg.
	grayRetryBudget = 64
	// grayBaseDelay is the healthy per-request service delay; the sick
	// worker serves at SlowFactor times it.
	grayBaseDelay = 40 * time.Millisecond
	// grayPartitions is the worker leg's partition count: enough dispatch
	// length, at 8 workers and grayBaseDelay service time, for the
	// in-flight monitor to accumulate a quarantine verdict on the limper
	// within two dispatches.
	grayPartitions = 72
)

// GrayLeg is the audit of one leg of a seeded gray campaign.
type GrayLeg struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
	// Quarantined lists the components quarantined during the leg; the
	// audit requires it to be exactly the sick set.
	Quarantined []string `json:"quarantined,omitempty"`
	// Dispatches is how many dispatches (or collective rounds) it took
	// to quarantine the sick component.
	Dispatches int `json:"dispatches_to_quarantine,omitempty"`
	// Identical reports exact equality with the fault-free reference.
	Identical bool `json:"identical"`
	// WallRatio is gray wall time per dispatch over the healthy
	// baseline (worker leg only).
	WallRatio float64 `json:"wall_ratio,omitempty"`
	// BudgetSpent/BudgetDenied account the leg's retry-token traffic.
	BudgetSpent  int64 `json:"budget_spent"`
	BudgetDenied int64 `json:"budget_denied"`
	// Transitions is the observed state-machine history, in order.
	Transitions []string      `json:"transitions,omitempty"`
	Elapsed     time.Duration `json:"elapsed_ns"`
}

func (l *GrayLeg) fail(reason string) { l.OK, l.Reason = false, reason }

// observe copies the state-machine history and the retry-token traffic
// the leg's health machinery saw into the report.
func (l *GrayLeg) observe(hist []health.Transition, budget *health.Budget) {
	l.Transitions = make([]string, len(hist))
	for i, tr := range hist {
		l.Transitions[i] = fmt.Sprintf("%s:%s->%s", tr.Component, tr.From, tr.To)
	}
	l.BudgetSpent, l.BudgetDenied = budget.Spent(), budget.Denied()
}

// GrayRunReport is one seed's five-leg campaign.
type GrayRunReport struct {
	Header
	Legs []*GrayLeg `json:"legs"`
}

func (GrayOptions) summarize(rpt *Report[*GrayRunReport]) (string, map[string]int) {
	return plainSummary("gray", rpt)
}

// run executes one seed's five legs; the seed fails with the reasons of
// every leg that did.
func (o GrayOptions) run(ctx context.Context, seed int64) *GrayRunReport {
	o = o.withDefaults()
	rep := &GrayRunReport{}
	rep.Outcome = OutcomeOK
	var failed []string
	for _, leg := range []func(context.Context, int64, GrayOptions) *GrayLeg{
		grayWorkerLeg, grayRecoveryLeg, grayLinkLeg, grayShardLeg, grayBudgetLeg,
	} {
		start := time.Now()
		l := leg(ctx, seed, o)
		l.Elapsed = time.Since(start)
		rep.Legs = append(rep.Legs, l)
		if !l.OK {
			failed = append(failed, fmt.Sprintf("leg %s: %s", l.Name, l.Reason))
		}
	}
	if len(failed) > 0 {
		return failf(rep, "%s", strings.Join(failed, "; "))
	}
	return rep
}

// grayHealth is the hysteresis used by the dispatch legs: two bad
// observations raise Suspect, one more quarantines, and re-admission
// needs two clean probes then two clean real completions.
var grayHealth = health.Config{SuspectAfter: 2, QuarantineAfter: 1, RecoverAfter: 2, MinObservations: 2}

// collectTransitions subscribes to tracker and returns a snapshot
// function over the observed state-machine history.
func collectTransitions(tracker *health.Tracker) func() []health.Transition {
	var mu sync.Mutex
	var hist []health.Transition
	tracker.OnTransition(func(tr health.Transition) {
		mu.Lock()
		hist = append(hist, tr)
		mu.Unlock()
	})
	return func() []health.Transition {
		mu.Lock()
		defer mu.Unlock()
		return append([]health.Transition(nil), hist...)
	}
}

// grayFleet is a dispatch coordinator and the worker fleet attached to
// it. A monitored fleet also carries the health tracker, retry budget
// and transition history the dispatch legs audit.
type grayFleet struct {
	c       *distrib.Coordinator
	workers sync.WaitGroup

	tracker *health.Tracker
	budget  *health.Budget
	history func() []health.Transition
}

// newGrayFleet opens a coordinator; a monitored one gets the health
// layer installed before any worker connects.
func newGrayFleet(monitored bool) (*grayFleet, error) {
	c, err := distrib.NewCoordinator()
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	f := &grayFleet{c: c}
	if monitored {
		f.tracker = health.New(grayHealth)
		f.budget = health.NewBudget(grayRetryBudget, 0)
		f.history = collectTransitions(f.tracker)
		c.Health, c.Budget = f.tracker, f.budget
	}
	return f, nil
}

// launch connects n workers serving every request after delay. Worker
// sick (-1 for none) serves after sickDelay instead, for its first
// limpOps requests (0 = forever).
func (f *grayFleet) launch(n, sick int, delay, sickDelay time.Duration, limpOps int) error {
	for i := 0; i < n; i++ {
		opt := distrib.WorkerOptions{Delay: delay}
		if i == sick {
			opt = distrib.WorkerOptions{Delay: sickDelay, LimpOps: limpOps}
		}
		f.workers.Add(1)
		go func(i int) {
			defer f.workers.Done()
			_ = distrib.WorkerWithOptions(f.c.Addr(), 7000+i, opt)
		}(i)
	}
	if err := f.c.AcceptWorkers(n, 30*time.Second); err != nil {
		return fmt.Errorf("starting fleet: %w", err)
	}
	return nil
}

// stop shuts the coordinator down and waits for the workers to leave.
func (f *grayFleet) stop() {
	f.c.Shutdown()
	f.workers.Wait()
}

// grayDistribOptions is the clustering configuration shared by the
// worker/recovery legs' gray runs and their fault-free references.
func grayDistribOptions(partitions int) distrib.Options {
	return distrib.Options{Eps: 0.1, MinPts: 10, Leaves: partitions, DenseBox: true}
}

// grayReference runs the same clustering on an all-healthy, unmonitored
// fleet and returns its labels and wall time — the byte-exactness
// oracle and the wall-time baseline.
func grayReference(ctx context.Context, pts []geom.Point, workers int, delay time.Duration, opt distrib.Options) ([]int, time.Duration, error) {
	f, err := newGrayFleet(false)
	if err != nil {
		return nil, 0, err
	}
	defer f.stop()
	if err := f.launch(workers, -1, delay, 0, 0); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := f.c.RunContext(ctx, pts, opt)
	if err != nil {
		return nil, 0, err
	}
	return res.Labels, time.Since(start), nil
}

// seededIndex picks which of n fleet members a seed makes sick.
func seededIndex(seed int64, n int) int {
	i := int(seed) % n
	if i < 0 {
		i += n
	}
	return i
}

// grayWorkerLeg: one worker in a fleet of o.Workers serves every request
// at SlowFactor x the healthy delay but stays perfectly live. The health
// monitor must quarantine it on in-flight evidence within K dispatches,
// hedging must keep the wall time within grayWallFactor of the healthy
// baseline, labels must stay byte-identical, and no healthy worker may
// be quarantined.
func grayWorkerLeg(ctx context.Context, seed int64, o GrayOptions) *GrayLeg {
	leg := &GrayLeg{Name: "worker"}
	pts := dataset.Twitter(o.Points, seed)
	opt := grayDistribOptions(grayPartitions)

	refLabels, healthyWall, err := grayReference(ctx, pts, o.Workers, grayBaseDelay, opt)
	if err != nil {
		return failf(leg, "healthy reference: %v", err)
	}
	f, err := newGrayFleet(true)
	if err != nil {
		return failf(leg, "%v", err)
	}
	defer f.stop()
	f.c.StragglerFactor = 2
	// The sick worker index is seeded; which accepted connection (and
	// therefore which component name) it lands on is scheduling-dependent,
	// so the audit identifies it by its latency signature, not its index.
	slowDelay := time.Duration(o.SlowFactor) * grayBaseDelay
	if err := f.launch(o.Workers, seededIndex(seed, o.Workers), grayBaseDelay, slowDelay, 0); err != nil {
		return failf(leg, "%v", err)
	}

	grayStart := time.Now()
	for d := 1; d <= grayQuarantineDispatches; d++ {
		res, err := f.c.RunContext(ctx, pts, opt)
		if err != nil {
			return failf(leg, "dispatch %d: %v", d, err)
		}
		leg.Dispatches = d
		if !slices.Equal(refLabels, res.Labels) {
			return failf(leg, "dispatch %d: labels differ from fault-free reference", d)
		}
		if len(f.tracker.QuarantinedComponents()) > 0 {
			break
		}
	}
	grayWall := time.Since(grayStart) / time.Duration(leg.Dispatches)
	leg.Identical = true
	leg.WallRatio = float64(grayWall) / float64(healthyWall)
	leg.Quarantined = f.tracker.QuarantinedComponents()
	leg.observe(f.history(), f.budget)

	if len(leg.Quarantined) != 1 {
		return failf(leg, "quarantined %v after %d dispatches, want exactly the slow worker", leg.Quarantined, leg.Dispatches)
	}
	// The quarantined component must carry the limper's latency
	// signature — a fast worker here (or one the tracker has no view of)
	// would be a false quarantine.
	var limper health.View
	for _, v := range f.tracker.Snapshot() {
		if v.Component == leg.Quarantined[0] {
			limper = v
		}
	}
	if limper.Latency < 2*grayBaseDelay {
		return failf(leg, "quarantined %s has healthy latency %v — false quarantine", leg.Quarantined[0], limper.Latency)
	}
	if leg.WallRatio > grayWallFactor {
		return failf(leg, "gray wall %v is %.2fx healthy %v, bound %.2fx", grayWall, leg.WallRatio, healthyWall, grayWallFactor)
	}
	if leg.BudgetSpent > grayRetryBudget || leg.BudgetDenied != 0 {
		return failf(leg, "budget overrun on a maskable schedule: spent=%d denied=%d cap=%d", leg.BudgetSpent, leg.BudgetDenied, grayRetryBudget)
	}
	leg.OK = true
	return leg
}

// grayRecoveryLeg: the limp clears after the worker's first slow request
// (a transient gray fault — GC pause, page-cache eviction). The worker
// must walk the full state machine — quarantine, probe-earned probation,
// clean re-admission — while every dispatch's labels stay exact.
func grayRecoveryLeg(ctx context.Context, seed int64, o GrayOptions) *GrayLeg {
	leg := &GrayLeg{Name: "recovery"}
	const (
		workers    = 4
		partitions = 12
		baseDelay  = 20 * time.Millisecond
		limpDelay  = 300 * time.Millisecond
	)
	pts := dataset.Twitter(2400, seed)
	opt := grayDistribOptions(partitions)
	refLabels, _, err := grayReference(ctx, pts, workers, baseDelay, opt)
	if err != nil {
		return failf(leg, "healthy reference: %v", err)
	}
	f, err := newGrayFleet(true)
	if err != nil {
		return failf(leg, "%v", err)
	}
	defer f.stop()
	f.c.ProbeInterval = 2 * time.Millisecond
	if err := f.launch(workers, seededIndex(seed, workers), baseDelay, limpDelay, 1); err != nil {
		return failf(leg, "%v", err)
	}

	// Quarantine, probation and re-admission can all happen inside one
	// round, so the leg reads the transition history, not a round-end
	// sample of the tracker, and dispatches until it shows re-admission.
	var hist []health.Transition
	for round := 1; round <= 6; round++ {
		res, err := f.c.RunContext(ctx, pts, opt)
		if err != nil {
			return failf(leg, "round %d: %v", round, err)
		}
		if !slices.Equal(refLabels, res.Labels) {
			return failf(leg, "round %d: labels differ from fault-free reference", round)
		}
		leg.Dispatches = round
		if hist = f.history(); slices.ContainsFunc(hist, readmitted) {
			break
		}
	}
	leg.Identical = true
	leg.observe(hist, f.budget)

	sick := map[string]bool{}
	var sawProbation, sawReadmit bool
	for _, tr := range hist {
		switch {
		case tr.To == health.Quarantined:
			sick[tr.Component] = true
		case tr.From == health.Quarantined && tr.To == health.Probation:
			sawProbation = true
		case readmitted(tr):
			sawReadmit = true
		}
	}
	for c := range sick {
		leg.Quarantined = append(leg.Quarantined, c)
	}
	slices.Sort(leg.Quarantined)
	if len(sick) != 1 {
		return failf(leg, "quarantined set %v, want exactly the limper (transitions %v)", leg.Quarantined, leg.Transitions)
	}
	if end := f.tracker.State(leg.Quarantined[0]); !sawProbation || !sawReadmit || end != health.Healthy {
		return failf(leg, "state machine incomplete: probation=%v readmit=%v state at end=%v (transitions %v)",
			sawProbation, sawReadmit, end, leg.Transitions)
	}
	leg.OK = true
	return leg
}

// readmitted reports a transition out of probation back to healthy.
func readmitted(tr health.Transition) bool {
	return tr.From == health.Probation && tr.To == health.Healthy
}

// grayLinkLeg: an internal uplink drops two frames out of three — alive,
// but poisonous. Link health must quarantine the NIC and preemptively
// re-parent its subtree before any collective hard-fails; every
// reduction returns the exact sum throughout, and all retransmits are
// paid out of the retry budget.
func grayLinkLeg(ctx context.Context, seed int64, _ GrayOptions) *GrayLeg {
	leg := &GrayLeg{Name: "link"}
	net, err := mrnet.New(16, 4, mrnet.CostModel{HopLatency: time.Microsecond}, nil)
	if err != nil {
		return failf(leg, "building tree: %v", err)
	}
	tracker := health.New(health.Config{SuspectAfter: 2, QuarantineAfter: 1, MinObservations: 2})
	net.SetHealth(tracker)
	budget := health.NewBudget(grayRetryBudget, 0)
	net.SetRetryBudget(budget)
	history := collectTransitions(tracker)

	children := net.Root().Children()
	victim := children[int(uint64(seed))%len(children)]
	if victim.IsLeaf() {
		return failf(leg, "topology: victim %d is a leaf", victim.ID())
	}
	comp := "nic." + strconv.Itoa(victim.ID())
	net.SetFaultPlan(faultinject.New(seed).Arm(mrnet.NICFaultSite(victim.ID()), faultinject.Rule{Flap: "ddu"}))

	want := 16 * 15 / 2
	for round := 1; round <= 4; round++ {
		got, err := mrnet.Reduce(ctx, net,
			func(leaf int) (int, error) { return leaf, nil },
			func(_ *mrnet.Node, in []int) (int, error) {
				s := 0
				for _, v := range in {
					s += v
				}
				return s, nil
			},
			func(int) int64 { return 32 })
		if err != nil {
			return failf(leg, "round %d: %v", round, err)
		}
		if got != want {
			return failf(leg, "round %d: reduce = %d, want %d (silent wrong sum)", round, got, want)
		}
		leg.Dispatches = round
		if tracker.Quarantined(comp) {
			break
		}
	}
	leg.Identical = true
	leg.Quarantined = tracker.QuarantinedComponents()
	leg.observe(history(), budget)

	if len(leg.Quarantined) != 1 || leg.Quarantined[0] != comp {
		return failf(leg, "quarantined %v, want exactly [%s]", leg.Quarantined, comp)
	}
	if got := net.Recoveries(); got != 1 {
		return failf(leg, "recoveries = %d, want 1 preemptive re-parent", got)
	}
	if leg.BudgetSpent == 0 {
		return failf(leg, "retransmits consumed no retry-budget tokens")
	}
	if leg.BudgetSpent > grayRetryBudget || leg.BudgetDenied != 0 {
		return failf(leg, "budget overrun: spent=%d denied=%d cap=%d", leg.BudgetSpent, leg.BudgetDenied, grayRetryBudget)
	}
	leg.OK = true
	return leg
}

// grayShardLeg: one OST serves at 1/16th bandwidth. OST read-latency
// health must quarantine it during the input pass, OST-aware placement
// must stripe the partition file over healthy OSTs only, and the
// partition bytes must equal a healthy-fleet reference exactly.
func grayShardLeg(ctx context.Context, seed int64, _ GrayOptions) *GrayLeg {
	leg := &GrayLeg{Name: "shard"}
	const eps = 0.1
	pts := dataset.Twitter(12000, seed)
	opt := partition.DistOptions{NumPartitions: 8, MinPts: 4}
	distribute := func(fs *lustre.FS) (*partition.DistResult, error) {
		net, err := mrnet.New(4, mrnet.DefaultFanout, mrnet.CostModel{}, fs.Clock())
		if err != nil {
			return nil, err
		}
		return partition.Distribute(ctx, net, fs, eps, inputFile, "parts.bin", "parts.json", opt)
	}

	refFS, err := stagedTitan(pts)
	if err != nil {
		return failf(leg, "reference input: %v", err)
	}
	defer refFS.Release()
	ref, err := distribute(refFS)
	if err != nil {
		return failf(leg, "reference distribute: %v", err)
	}

	// Gray run: tiny stripes so the input pass touches every OST; one
	// OST degraded 16x.
	sickOST := 1 + int(uint64(seed))%3
	cfg := lustre.Config{OSTs: 4, StripeSize: 4096, OSTBandwidth: 200e6, SeekPenalty: lustre.Titan().SeekPenalty}
	fs := lustre.New(cfg, nil)
	defer fs.Release()
	fs.SetFaultPlan(faultinject.New(seed).Arm(lustre.OSTFaultSite(sickOST), faultinject.Rule{Degrade: 16}))
	tracker := fs.EnableOSTHealth(health.Config{SuspectAfter: 2, QuarantineAfter: 1, MinObservations: 2})
	budget := health.NewBudget(grayRetryBudget, 0)
	fs.SetRetryBudget(budget)
	history := collectTransitions(tracker)
	if err := writeInput(fs, pts); err != nil {
		return failf(leg, "gray input: %v", err)
	}
	res, err := distribute(fs)
	if err != nil {
		return failf(leg, "gray distribute: %v", err)
	}
	leg.Quarantined = tracker.QuarantinedComponents()
	leg.observe(history(), budget)

	comp := "ost." + strconv.Itoa(sickOST)
	if !tracker.Quarantined(comp) {
		return failf(leg, "slow OST %s not quarantined; quarantined=%v", comp, leg.Quarantined)
	}
	if len(leg.Quarantined) != 1 {
		return failf(leg, "false quarantines: %v", leg.Quarantined)
	}
	osts := fs.FileOSTs("parts.bin")
	if osts == nil {
		return failf(leg, "partition file has no explicit OST layout")
	}
	if slices.Contains(osts, sickOST) {
		return failf(leg, "partition file placed on quarantined OST %d (layout %v)", sickOST, osts)
	}
	if err := samePartitions(fs, res.Meta, refFS, ref.Meta); err != nil {
		return failf(leg, "%v", err)
	}
	leg.Identical = true
	leg.OK = true
	return leg
}

// samePartitions requires every partition read back from fs to equal,
// point for point, the reference's.
func samePartitions(fs *lustre.FS, meta *ptio.PartitionMeta, refFS *lustre.FS, refMeta *ptio.PartitionMeta) error {
	if len(meta.Partitions) != len(refMeta.Partitions) {
		return fmt.Errorf("partition count %d != reference %d", len(meta.Partitions), len(refMeta.Partitions))
	}
	for j := range meta.Partitions {
		got, _, err := partition.ReadPartition(fs, "parts.bin", meta, j)
		if err != nil {
			return fmt.Errorf("reading gray partition %d: %w", j, err)
		}
		want, _, err := partition.ReadPartition(refFS, "parts.bin", refMeta, j)
		if err != nil {
			return fmt.Errorf("reading reference partition %d: %w", j, err)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("partition %d (%d points) differs from the reference's (%d points)", j, len(got), len(want))
		}
	}
	return nil
}

// grayBudgetLeg: the mrscan phase-retry path pays for re-attempts out of
// the shared budget. A funded budget masks a transient phase fault and
// accounts the token; a zero budget must turn the same fault into a loud
// health.ErrBudgetExhausted — never a silent unbounded retry.
func grayBudgetLeg(ctx context.Context, seed int64, _ GrayOptions) *GrayLeg {
	leg := &GrayLeg{Name: "budget"}
	pts := dataset.Twitter(3000, seed)
	run := func(budget *health.Budget) error {
		fs, err := stagedTitan(pts)
		if err != nil {
			return err
		}
		defer fs.Release()
		cfg := baseConfig(4)
		cfg.FaultPlan = faultinject.New(seed).
			Arm(mrscan.PhaseSite(mrscan.PhaseCluster), faultinject.Rule{Times: 1})
		cfg.Retry = mrscan.RetryPolicy{MaxAttempts: 3, Budget: budget}
		_, err = mrscan.RunContext(ctx, fs, inputFile, outputFile, cfg)
		return err
	}

	funded := health.NewBudget(2, 0)
	if err := run(funded); err != nil {
		return failf(leg, "funded run: %v", err)
	}
	leg.BudgetSpent = funded.Spent()
	if leg.BudgetSpent != 1 {
		return failf(leg, "funded run spent %d tokens, want exactly 1", leg.BudgetSpent)
	}

	starved := health.NewBudget(0, 0)
	err := run(starved)
	leg.BudgetDenied = starved.Denied()
	if err == nil {
		return failf(leg, "starved run succeeded — the retry was not budget-gated")
	}
	if !errors.Is(err, health.ErrBudgetExhausted) {
		return failf(leg, "starved run failed with %v, want ErrBudgetExhausted", err)
	}
	if leg.BudgetDenied != 1 {
		return failf(leg, "starved run denied %d takes, want exactly 1", leg.BudgetDenied)
	}
	leg.Identical = true
	leg.OK = true
	return leg
}
