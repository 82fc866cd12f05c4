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
//     MaxQuarantineDispatches dispatches (or one collective round trip),
//     and no healthy component is ever quarantined.
//  3. Bounded retry spend: all masking is paid for out of the shared
//     token-bucket retry budget; spend stays under the ceiling and a
//     denied budget surfaces as a loud health.ErrBudgetExhausted, never
//     a silent retry storm.
//  4. Bounded wall time: with one 20x-slow worker in the fleet, the run
//     finishes within WallFactor (default 1.5x) of the healthy baseline.
//
// Each seed runs five legs — worker, recovery, link, shard, budget —
// exercising the quarantine machinery in distrib, mrnet, lustre and the
// mrscan phase-retry path respectively.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
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

// GrayOptions configures a gray-failure campaign.
type GrayOptions struct {
	// Seeds are the schedules to run, one five-leg campaign per seed.
	Seeds []int64
	// Workers is the dispatch fleet size of the worker leg (default 8).
	Workers int
	// Partitions is the worker leg's partition count (default 72 —
	// enough dispatch length, at 8 workers and BaseDelay service time,
	// for the in-flight monitor to accumulate a quarantine verdict on
	// the limper within two dispatches).
	Partitions int
	// Points is the worker-leg dataset size (default 4000).
	Points int
	// BaseDelay is the healthy per-request service delay (default 40ms);
	// the sick worker serves at SlowFactor times it.
	BaseDelay time.Duration
	// SlowFactor is the gray slowdown of the limping worker (default 20,
	// the acceptance scenario).
	SlowFactor int
	// RetryBudget is the shared token-bucket capacity per leg
	// (default 64).
	RetryBudget int
	// WallFactor bounds the worker leg's wall time as a multiple of the
	// healthy baseline (default 1.5).
	WallFactor float64
	// MaxQuarantineDispatches is K: the sick worker must be quarantined
	// within this many dispatches (default 2).
	MaxQuarantineDispatches int
	// RunTimeout bounds each leg's wall time (default 2m).
	RunTimeout time.Duration
	// Logf, when set, receives per-seed progress lines.
	Logf func(format string, args ...any)
}

func (o *GrayOptions) setDefaults() {
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Partitions <= 0 {
		o.Partitions = 72
	}
	if o.Points <= 0 {
		o.Points = 4000
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 40 * time.Millisecond
	}
	if o.SlowFactor <= 1 {
		o.SlowFactor = 20
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 64
	}
	if o.WallFactor <= 1 {
		o.WallFactor = 1.5
	}
	if o.MaxQuarantineDispatches <= 0 {
		o.MaxQuarantineDispatches = 2
	}
	if o.RunTimeout <= 0 {
		o.RunTimeout = 2 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

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

// GrayRunReport is one seed's five-leg campaign.
type GrayRunReport struct {
	Seed    int64         `json:"seed"`
	Outcome Outcome       `json:"outcome"`
	Legs    []GrayLeg     `json:"legs"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// GrayReport aggregates a gray campaign.
type GrayReport struct {
	Runs   []GrayRunReport `json:"runs"`
	OK     int             `json:"ok"`
	Failed int             `json:"failed"`
}

// grayHealthConfig is the hysteresis used by the dispatch legs: two bad
// observations raise Suspect, one more quarantines, and re-admission
// needs two clean probes then two clean real completions.
func grayHealthConfig() health.Config {
	return health.Config{SuspectAfter: 2, QuarantineAfter: 1, RecoverAfter: 2, MinObservations: 2}
}

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

// formatTransitions renders the history for the JSON report.
func formatTransitions(hist []health.Transition) []string {
	out := make([]string, len(hist))
	for i, tr := range hist {
		out[i] = fmt.Sprintf("%s:%s->%s", tr.Component, tr.From, tr.To)
	}
	return out
}

// startGrayFleet launches n workers against c; delayOf(i) is worker i's
// per-request service delay and limpOf(i) bounds how many slow requests
// it serves (0 = forever). Returns a WaitGroup for shutdown.
func startGrayFleet(c *distrib.Coordinator, n int, delayOf func(int) time.Duration, limpOf func(int) int) (*sync.WaitGroup, error) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = distrib.WorkerWithOptions(c.Addr(), 7000+i,
				distrib.WorkerOptions{Delay: delayOf(i), LimpOps: limpOf(i)})
		}(i)
	}
	if err := c.AcceptWorkers(n, 30*time.Second); err != nil {
		return nil, err
	}
	return &wg, nil
}

// grayDistribOptions is the clustering configuration shared by the
// worker/recovery legs' gray runs and their fault-free references.
func grayDistribOptions(partitions int) distrib.Options {
	return distrib.Options{Eps: 0.1, MinPts: 10, Leaves: partitions, DenseBox: true}
}

// grayReference runs the same clustering on an all-healthy fleet and
// returns its labels and wall time — the byte-exactness oracle and the
// wall-time baseline.
func grayReference(ctx context.Context, pts []geom.Point, workers int, delay time.Duration, opt distrib.Options) ([]int, time.Duration, error) {
	c, err := distrib.NewCoordinator()
	if err != nil {
		return nil, 0, err
	}
	var wg *sync.WaitGroup
	defer func() {
		c.Shutdown()
		if wg != nil {
			wg.Wait()
		}
	}()
	wg, err = startGrayFleet(c, workers, func(int) time.Duration { return delay }, func(int) int { return 0 })
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := c.RunContext(ctx, pts, opt)
	if err != nil {
		return nil, 0, err
	}
	return res.Labels, time.Since(start), nil
}

// sickView finds comp in the tracker snapshot.
func sickView(tracker *health.Tracker, comp string) (health.View, bool) {
	for _, v := range tracker.Snapshot() {
		if v.Component == comp {
			return v, true
		}
	}
	return health.View{}, false
}

// grayWorkerLeg: one worker in a fleet of o.Workers serves every request
// at SlowFactor x the healthy delay but stays perfectly live. The health
// monitor must quarantine it on in-flight evidence within K dispatches,
// hedging must keep the wall time within WallFactor of the healthy
// baseline, labels must stay byte-identical, and no healthy worker may
// be quarantined.
func grayWorkerLeg(ctx context.Context, seed int64, o GrayOptions) GrayLeg {
	leg := GrayLeg{Name: "worker"}
	start := time.Now()
	fail := func(format string, args ...any) GrayLeg {
		leg.Reason = fmt.Sprintf(format, args...)
		leg.Elapsed = time.Since(start)
		return leg
	}
	pts := dataset.Twitter(o.Points, seed)
	opt := grayDistribOptions(o.Partitions)

	refLabels, healthyWall, err := grayReference(ctx, pts, o.Workers, o.BaseDelay, opt)
	if err != nil {
		return fail("healthy reference: %v", err)
	}

	c, err := distrib.NewCoordinator()
	if err != nil {
		return fail("coordinator: %v", err)
	}
	var fleet *sync.WaitGroup
	defer func() {
		c.Shutdown()
		if fleet != nil {
			fleet.Wait()
		}
	}()
	c.StragglerFactor = 2
	tracker := health.New(grayHealthConfig())
	c.Health = tracker
	budget := health.NewBudget(o.RetryBudget, 0)
	c.Budget = budget
	history := collectTransitions(tracker)
	// The sick worker index is seeded; which accepted connection (and
	// therefore which component name) it lands on is scheduling-dependent,
	// so the audit identifies it by its latency signature, not its index.
	slow := int(seed) % o.Workers
	if slow < 0 {
		slow += o.Workers
	}
	slowDelay := time.Duration(o.SlowFactor) * o.BaseDelay
	fleet, err = startGrayFleet(c, o.Workers,
		func(i int) time.Duration {
			if i == slow {
				return slowDelay
			}
			return o.BaseDelay
		},
		func(int) int { return 0 })
	if err != nil {
		return fail("starting fleet: %v", err)
	}

	grayStart := time.Now()
	dispatches := 0
	for d := 1; d <= o.MaxQuarantineDispatches; d++ {
		res, err := c.RunContext(ctx, pts, opt)
		if err != nil {
			return fail("dispatch %d: %v", d, err)
		}
		dispatches = d
		if !equalLabels(refLabels, res.Labels) {
			return fail("dispatch %d: labels differ from fault-free reference", d)
		}
		if len(tracker.QuarantinedComponents()) > 0 {
			break
		}
	}
	grayWall := time.Since(grayStart) / time.Duration(dispatches)
	leg.Identical = true
	leg.Dispatches = dispatches
	leg.WallRatio = float64(grayWall) / float64(healthyWall)
	leg.Quarantined = tracker.QuarantinedComponents()
	leg.Transitions = formatTransitions(history())
	leg.BudgetSpent, leg.BudgetDenied = budget.Spent(), budget.Denied()
	leg.Elapsed = time.Since(start)

	if len(leg.Quarantined) != 1 {
		return fail("quarantined %v after %d dispatches, want exactly the slow worker", leg.Quarantined, dispatches)
	}
	// The quarantined component must carry the limper's latency
	// signature — a fast worker here would be a false quarantine.
	if v, ok := sickView(tracker, leg.Quarantined[0]); !ok || v.Latency < 2*o.BaseDelay {
		return fail("quarantined %s has healthy latency %v — false quarantine", leg.Quarantined[0], v.Latency)
	}
	if leg.WallRatio > o.WallFactor {
		return fail("gray wall %v is %.2fx healthy %v, bound %.2fx", grayWall, leg.WallRatio, healthyWall, o.WallFactor)
	}
	if leg.BudgetDenied != 0 {
		return fail("retry budget denied %d takes on a maskable schedule", leg.BudgetDenied)
	}
	if leg.BudgetSpent > int64(o.RetryBudget) {
		return fail("retry spend %d exceeds budget %d", leg.BudgetSpent, o.RetryBudget)
	}
	leg.OK = true
	return leg
}

// grayRecoveryLeg: the limp clears after the worker's first slow request
// (a transient gray fault — GC pause, page-cache eviction). The worker
// must walk the full state machine — quarantine, probe-earned probation,
// clean re-admission — while every dispatch's labels stay exact.
func grayRecoveryLeg(ctx context.Context, seed int64, o GrayOptions) GrayLeg {
	leg := GrayLeg{Name: "recovery"}
	start := time.Now()
	fail := func(format string, args ...any) GrayLeg {
		leg.Reason = fmt.Sprintf(format, args...)
		leg.Elapsed = time.Since(start)
		return leg
	}
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
		return fail("healthy reference: %v", err)
	}

	c, err := distrib.NewCoordinator()
	if err != nil {
		return fail("coordinator: %v", err)
	}
	var fleet *sync.WaitGroup
	defer func() {
		c.Shutdown()
		if fleet != nil {
			fleet.Wait()
		}
	}()
	tracker := health.New(grayHealthConfig())
	c.Health = tracker
	c.ProbeInterval = 2 * time.Millisecond
	budget := health.NewBudget(o.RetryBudget, 0)
	c.Budget = budget
	history := collectTransitions(tracker)
	limper := int(seed) % workers
	if limper < 0 {
		limper += workers
	}
	fleet, err = startGrayFleet(c, workers,
		func(i int) time.Duration {
			if i == limper {
				return limpDelay
			}
			return baseDelay
		},
		func(i int) int {
			if i == limper {
				return 1
			}
			return 0
		})
	if err != nil {
		return fail("starting fleet: %v", err)
	}

	recovered := false
	for round := 1; round <= 6 && !recovered; round++ {
		res, err := c.RunContext(ctx, pts, opt)
		if err != nil {
			return fail("round %d: %v", round, err)
		}
		if !equalLabels(refLabels, res.Labels) {
			return fail("round %d: labels differ from fault-free reference", round)
		}
		leg.Dispatches = round
		for _, q := range leg.Quarantined {
			if tracker.State(q) == health.Healthy {
				recovered = true
			}
		}
		if qs := tracker.QuarantinedComponents(); len(qs) > 0 {
			leg.Quarantined = qs
		}
	}
	hist := history()
	leg.Identical = true
	leg.Transitions = formatTransitions(hist)
	leg.BudgetSpent, leg.BudgetDenied = budget.Spent(), budget.Denied()
	leg.Elapsed = time.Since(start)

	sick := map[string]bool{}
	var sawProbation, sawReadmit bool
	for _, tr := range hist {
		switch {
		case tr.To == health.Quarantined:
			sick[tr.Component] = true
		case tr.From == health.Quarantined && tr.To == health.Probation:
			sawProbation = true
		case tr.From == health.Probation && tr.To == health.Healthy:
			sawReadmit = true
		}
	}
	if len(sick) != 1 {
		return fail("quarantined set %v, want exactly the limper (transitions %v)", sick, leg.Transitions)
	}
	if !sawProbation || !sawReadmit || !recovered {
		return fail("state machine incomplete: probation=%v readmit=%v healthy-again=%v (transitions %v)",
			sawProbation, sawReadmit, recovered, leg.Transitions)
	}
	leg.OK = true
	return leg
}

// grayLinkLeg: an internal uplink drops two frames out of three — alive,
// but poisonous. Link health must quarantine the NIC and preemptively
// re-parent its subtree before any collective hard-fails; every
// reduction returns the exact sum throughout, and all retransmits are
// paid out of the retry budget.
func grayLinkLeg(ctx context.Context, seed int64, o GrayOptions) GrayLeg {
	leg := GrayLeg{Name: "link"}
	start := time.Now()
	fail := func(format string, args ...any) GrayLeg {
		leg.Reason = fmt.Sprintf(format, args...)
		leg.Elapsed = time.Since(start)
		return leg
	}
	net, err := mrnet.New(16, 4, mrnet.CostModel{HopLatency: time.Microsecond}, nil)
	if err != nil {
		return fail("building tree: %v", err)
	}
	tracker := health.New(health.Config{SuspectAfter: 2, QuarantineAfter: 1, MinObservations: 2})
	net.SetHealth(tracker)
	budget := health.NewBudget(o.RetryBudget, 0)
	net.SetRetryBudget(budget)
	history := collectTransitions(tracker)

	children := net.Root().Children()
	victim := children[int(uint64(seed))%len(children)]
	if victim.IsLeaf() {
		return fail("topology: victim %d is a leaf", victim.ID())
	}
	net.SetFaultPlan(faultinject.New(seed).Arm(mrnet.NICFaultSite(victim.ID()), faultinject.Rule{Flap: "ddu"}))

	want := 16 * 15 / 2
	rounds := 0
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
			return fail("round %d: %v", round, err)
		}
		if got != want {
			return fail("round %d: reduce = %d, want %d (silent wrong sum)", round, got, want)
		}
		rounds = round
		if tracker.Quarantined("nic." + strconv.Itoa(victim.ID())) {
			break
		}
	}
	leg.Identical = true
	leg.Dispatches = rounds
	leg.Quarantined = tracker.QuarantinedComponents()
	leg.Transitions = formatTransitions(history())
	leg.BudgetSpent, leg.BudgetDenied = budget.Spent(), budget.Denied()
	leg.Elapsed = time.Since(start)

	comp := "nic." + strconv.Itoa(victim.ID())
	if len(leg.Quarantined) != 1 || leg.Quarantined[0] != comp {
		return fail("quarantined %v, want exactly [%s]", leg.Quarantined, comp)
	}
	if got := net.Recoveries(); got != 1 {
		return fail("recoveries = %d, want 1 preemptive re-parent", got)
	}
	if leg.BudgetSpent == 0 {
		return fail("retransmits consumed no retry-budget tokens")
	}
	if leg.BudgetSpent > int64(o.RetryBudget) || leg.BudgetDenied != 0 {
		return fail("budget overrun: spent=%d denied=%d cap=%d", leg.BudgetSpent, leg.BudgetDenied, o.RetryBudget)
	}
	leg.OK = true
	return leg
}

// grayShardLeg: one OST serves at 1/16th bandwidth. OST read-latency
// health must quarantine it during the input pass, segment-shard
// placement must route every aggregated shard onto healthy OSTs, and
// the partition bytes must equal a healthy-fleet reference exactly.
func grayShardLeg(ctx context.Context, seed int64, o GrayOptions) GrayLeg {
	leg := GrayLeg{Name: "shard"}
	start := time.Now()
	fail := func(format string, args ...any) GrayLeg {
		leg.Reason = fmt.Sprintf(format, args...)
		leg.Elapsed = time.Since(start)
		return leg
	}
	const eps = 0.1
	pts := dataset.Twitter(12000, seed)
	opt := partition.DistOptions{NumPartitions: 8, MinPts: 4, Aggregate: true, SegmentShards: 3}

	// Healthy reference.
	refFS := lustre.New(lustre.Titan(), nil)
	refNet, err := mrnet.New(4, mrnet.DefaultFanout, mrnet.CostModel{}, refFS.Clock())
	if err != nil {
		return fail("reference tree: %v", err)
	}
	if err := ptio.WriteDataset(refFS.Create("in.mrsc"), pts, false); err != nil {
		return fail("reference input: %v", err)
	}
	ref, err := partition.Distribute(ctx, refNet, refFS, eps, "in.mrsc", "parts.bin", "parts.json", opt)
	if err != nil {
		return fail("reference distribute: %v", err)
	}

	// Gray run: tiny stripes so the input pass touches every OST; one
	// OST degraded 16x.
	sickOST := 1 + int(uint64(seed))%3
	cfg := lustre.Config{OSTs: 4, StripeSize: 4096, OSTBandwidth: 200e6, SeekPenalty: lustre.Titan().SeekPenalty}
	fs := lustre.New(cfg, nil)
	fs.SetFaultPlan(faultinject.New(seed).Arm(lustre.OSTFaultSite(sickOST), faultinject.Rule{Degrade: 16}))
	tracker := fs.EnableOSTHealth(health.Config{SuspectAfter: 2, QuarantineAfter: 1, MinObservations: 2})
	fs.SetRetryBudget(health.NewBudget(o.RetryBudget, 0))
	history := collectTransitions(tracker)
	net, err := mrnet.New(4, mrnet.DefaultFanout, mrnet.CostModel{}, fs.Clock())
	if err != nil {
		return fail("gray tree: %v", err)
	}
	if err := ptio.WriteDataset(fs.Create("in.mrsc"), pts, false); err != nil {
		return fail("gray input: %v", err)
	}
	res, err := partition.Distribute(ctx, net, fs, eps, "in.mrsc", "parts.bin", "parts.json", opt)
	if err != nil {
		return fail("gray distribute: %v", err)
	}
	leg.Quarantined = tracker.QuarantinedComponents()
	leg.Transitions = formatTransitions(history())
	leg.Elapsed = time.Since(start)

	comp := "ost." + strconv.Itoa(sickOST)
	if !tracker.Quarantined(comp) {
		return fail("slow OST %s not quarantined; quarantined=%v", comp, leg.Quarantined)
	}
	if len(leg.Quarantined) != 1 {
		return fail("false quarantines: %v", leg.Quarantined)
	}
	for _, seg := range res.Meta.Segments {
		osts := fs.FileOSTs(seg.File)
		if osts == nil {
			return fail("segment %s has no explicit OST layout", seg.File)
		}
		for _, ost := range osts {
			if ost == sickOST {
				return fail("segment %s placed on quarantined OST %d (layout %v)", seg.File, sickOST, osts)
			}
		}
	}
	if len(res.Meta.Partitions) != len(ref.Meta.Partitions) {
		return fail("partition count %d != reference %d", len(res.Meta.Partitions), len(ref.Meta.Partitions))
	}
	for j := range res.Meta.Partitions {
		got, _, err := partition.ReadPartition(fs, "parts.bin", res.Meta, j)
		if err != nil {
			return fail("reading gray partition %d: %v", j, err)
		}
		want, _, err := partition.ReadPartition(refFS, "parts.bin", ref.Meta, j)
		if err != nil {
			return fail("reading reference partition %d: %v", j, err)
		}
		if len(got) != len(want) {
			return fail("partition %d: %d points, reference %d", j, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fail("partition %d point %d differs from reference", j, i)
			}
		}
	}
	leg.Identical = true
	leg.OK = true
	return leg
}

// grayBudgetLeg: the mrscan phase-retry path pays for re-attempts out of
// the shared budget. A funded budget masks a transient phase fault and
// accounts the token; a zero budget must turn the same fault into a loud
// health.ErrBudgetExhausted — never a silent unbounded retry.
func grayBudgetLeg(ctx context.Context, seed int64, o GrayOptions) GrayLeg {
	leg := GrayLeg{Name: "budget"}
	start := time.Now()
	fail := func(format string, args ...any) GrayLeg {
		leg.Reason = fmt.Sprintf(format, args...)
		leg.Elapsed = time.Since(start)
		return leg
	}
	pts := dataset.Twitter(3000, seed)
	run := func(budget *health.Budget) error {
		fs := lustre.New(lustre.Titan(), nil)
		if err := ptio.WriteDataset(fs.Create("input.mrsc"), pts, false); err != nil {
			return err
		}
		cfg := mrscan.Default(0.1, 20, 4)
		cfg.IncludeNoise = true
		cfg.FaultPlan = faultinject.New(seed).
			Arm(mrscan.PhaseSite(mrscan.PhaseCluster), faultinject.Rule{Times: 1})
		cfg.Retry = mrscan.RetryPolicy{MaxAttempts: 3, Budget: budget}
		_, err := mrscan.RunContext(ctx, fs, "input.mrsc", "output.mrsl", cfg)
		return err
	}

	funded := health.NewBudget(2, 0)
	if err := run(funded); err != nil {
		return fail("funded run: %v", err)
	}
	leg.BudgetSpent = funded.Spent()
	if leg.BudgetSpent != 1 {
		return fail("funded run spent %d tokens, want exactly 1", leg.BudgetSpent)
	}

	starved := health.NewBudget(0, 0)
	err := run(starved)
	leg.BudgetDenied = starved.Denied()
	leg.Elapsed = time.Since(start)
	if err == nil {
		return fail("starved run succeeded — the retry was not budget-gated")
	}
	if !errors.Is(err, health.ErrBudgetExhausted) {
		return fail("starved run failed with %v, want ErrBudgetExhausted", err)
	}
	if leg.BudgetDenied != 1 {
		return fail("starved run denied %d takes, want exactly 1", leg.BudgetDenied)
	}
	leg.Identical = true
	leg.OK = true
	return leg
}

// RunGraySeed executes one seed's five legs.
func RunGraySeed(seed int64, o GrayOptions) GrayRunReport {
	o.setDefaults()
	start := time.Now()
	rep := GrayRunReport{Seed: seed, Outcome: OutcomeOK}
	ctx, cancel := context.WithTimeout(context.Background(), o.RunTimeout)
	defer cancel()
	for _, leg := range []func(context.Context, int64, GrayOptions) GrayLeg{
		grayWorkerLeg, grayRecoveryLeg, grayLinkLeg, grayShardLeg, grayBudgetLeg,
	} {
		l := leg(ctx, seed, o)
		rep.Legs = append(rep.Legs, l)
		if !l.OK {
			rep.Outcome = OutcomeFail
		}
	}
	rep.Elapsed = time.Since(start)
	return rep
}

// RunGray executes the whole gray campaign sequentially.
func RunGray(o GrayOptions) *GrayReport {
	o.setDefaults()
	rpt := &GrayReport{}
	for _, seed := range o.Seeds {
		r := RunGraySeed(seed, o)
		rpt.Runs = append(rpt.Runs, r)
		if r.Outcome == OutcomeOK {
			rpt.OK++
		} else {
			rpt.Failed++
		}
		for _, l := range r.Legs {
			status := "ok"
			if !l.OK {
				status = "FAIL: " + l.Reason
			}
			o.Logf("gray: seed %d leg %-8s %s quarantined=%v dispatches=%d wall=%.2fx budget=%d/%d elapsed=%v",
				seed, l.Name, status, l.Quarantined, l.Dispatches, l.WallRatio,
				l.BudgetSpent, l.BudgetDenied, l.Elapsed.Round(time.Millisecond))
		}
	}
	return rpt
}
