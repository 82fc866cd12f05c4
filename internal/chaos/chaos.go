// Package chaos is the seeded end-to-end integrity harness: it
// generates random fault schedules — transient errors, silent payload
// corruption, node kills, stragglers, even a mid-run process death —
// runs the full partition→cluster→merge→sweep pipeline under each, and
// asserts the three properties the fault-tolerance and data-integrity
// layers promise:
//
//  1. Output quality: the run's labels match a fault-free reference run
//     exactly, or score at least QualityFloor (default 0.995, the
//     paper's §5.1.3 floor) on the DBDC metric. A run may instead fail
//     loudly (fail-stop) — what it may never do is return wrong labels
//     silently.
//  2. Zero silent corruption escapes: every injected bit flip is
//     accounted for — detected by a checksum, masked before any reader
//     saw it, or still latent in a file no output depended on. The
//     ledger injected == detected + masked + latent balances per site.
//  3. Bounded wall time: each seed completes within the campaign's
//     RunTimeout (the runner's deadline; see campaign.go).
//
// Every schedule derives deterministically from its seed: a replayed
// seed regenerates the same dataset and arms the identical fault plan.
// (Concurrent leaves may interleave operations differently between
// replays, so which exact operation a counter-triggered rule strikes
// can shift — the invariants hold either way.)
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/lustre"
	"repro/internal/mrscan"
	"repro/internal/quality"
	"repro/internal/telemetry"
)

// Options are the pipeline scenario's knobs.
type Options struct {
	// Points is the dataset size per run (default 6000).
	Points int
	// Leaves is the cluster-phase tree width (default 4).
	Leaves int
	// FaultRate in (0,1] scales how aggressively rules are armed
	// (default 0.6); each candidate fault kind joins the schedule with
	// probability proportional to it.
	FaultRate float64
	// QualityFloor is the minimum acceptable DBDC score versus the
	// fault-free reference labels (default 0.995, the paper's floor).
	QualityFloor float64
}

func (o Options) withDefaults() Options {
	orDefault(&o.Points, 6000)
	orDefault(&o.Leaves, 4)
	orDefault(&o.FaultRate, 0.6)
	orDefault(&o.QualityFloor, paperFloor)
	return o
}

// SiteLedger is one injection site's corruption accounting.
type SiteLedger struct {
	Injected int64 `json:"injected"`
	Detected int64 `json:"detected"`
	Masked   int64 `json:"masked"`
	Latent   int64 `json:"latent,omitempty"`
}

// Escapes returns the site's unaccounted injections: positive means a
// silent escape, negative means double counting. Both are failures.
func (l SiteLedger) Escapes() int64 {
	return l.Injected - l.Detected - l.Masked - l.Latent
}

// RunReport is the result of one seeded schedule.
type RunReport struct {
	Header
	Spec []string `json:"spec"`
	// Quality is the DBDC score versus the fault-free reference
	// (1.0 when identical); -1 when the run failed before producing
	// output.
	Quality   float64               `json:"quality"`
	Identical bool                  `json:"identical"`
	Resumed   bool                  `json:"resumed,omitempty"`
	Ledger    map[string]SiteLedger `json:"ledger"`
	Escapes   int64                 `json:"escapes"`
	Err       string                `json:"err,omitempty"`
}

func (Options) summarize(rpt *Report[*RunReport]) (string, map[string]int) {
	return fmt.Sprintf("chaos: %d runs: %d ok, %d faulted (fail-stop), %d FAILED",
		len(rpt.Runs), rpt.OK, rpt.Faulted, rpt.Failed), map[string]int{"faulted": rpt.Faulted}
}

// ledgerSites are the checksummed planes whose corruption accounting
// the harness audits.
var ledgerSites = []faultinject.Site{
	faultinject.LustreRead,
	faultinject.LustreWrite,
	faultinject.GPUTransfer,
	faultinject.MRNetHop,
	faultinject.MRNetFrame,
}

// genSchedule arms a seeded random fault schedule on plan and reports
// it as human-readable strings. Corrupt and error rules are kept off
// the same mrnet.frame site so every TCP-frame flip is provably read by
// a live peer (the ledger check requires it).
func genSchedule(rng *rand.Rand, plan *faultinject.Plan, rate float64) (spec []string, hasFatal, tcpMerge bool) {
	note := func(format string, args ...any) { spec = append(spec, fmt.Sprintf(format, args...)) }
	pick := func(p float64) bool { return rng.Float64() < p*rate }

	// Silent corruption on the checksummed byte and transfer planes: a
	// candidate joins with chance p, then draws 1..times flips starting
	// after up to `after` clean operations.
	for _, c := range []struct {
		site         faultinject.Site
		p            float64
		times, after int64
	}{
		{faultinject.LustreRead, 0.9, 2, 60},
		{faultinject.LustreWrite, 0.9, 2, 60},
		{faultinject.GPUTransfer, 0.7, 2, 20},
		{faultinject.MRNetHop, 0.7, 2, 10},
		{faultinject.MRNetFrame, 0.5, 3, 6},
	} {
		if !pick(c.p) {
			continue
		}
		n := 1 + rng.Int63n(c.times)
		after := rng.Int63n(c.after)
		plan.Arm(c.site, faultinject.Rule{Corrupt: true, Times: n, After: after})
		suffix := ""
		if c.site == faultinject.MRNetFrame {
			tcpMerge, suffix = true, " (merge over TCP)"
		}
		note("corrupt %s times=%d after=%d%s", c.site, n, after, suffix)
	}
	// Transient errors, healed by phase retry or overlay re-parenting.
	for _, e := range []struct {
		site  faultinject.Site
		p     float64
		after int64
	}{
		{faultinject.LustreRead, 0.5, 40},
		{faultinject.MRNetHop, 0.4, 10},
		{faultinject.GPULaunch, 0.4, 8},
	} {
		if pick(e.p) {
			after := rng.Int63n(e.after)
			plan.Arm(e.site, faultinject.Rule{Times: 1, After: after})
			note("error %s after=%d", e.site, after)
		}
	}
	// Node kill: an internal tree node dies and its children re-parent.
	if pick(0.4) {
		after := rng.Int63n(4)
		plan.Arm(faultinject.MRNetNode, faultinject.Rule{Times: 1, After: after})
		note("kill mrnet.node after=%d", after)
	}
	// Straggler: a slow-but-correct I/O path.
	if pick(0.5) {
		n := 1 + rng.Int63n(2)
		d := time.Duration(1+rng.Int63n(8)) * time.Millisecond
		plan.Arm(faultinject.LustreRead, faultinject.Rule{Delay: d, Times: n, After: rng.Int63n(30)})
		note("straggle lustre.read delay=%v times=%d", d, n)
	}
	// Process death at a phase boundary; the campaign resumes from the
	// last durable checkpoint and must still produce correct labels.
	if pick(0.3) {
		hasFatal = true
		phase := []string{mrscan.PhaseCluster, mrscan.PhaseMerge}[rng.Intn(2)]
		plan.Arm(mrscan.PhaseSite(phase), faultinject.Rule{Fatal: true, Times: 1})
		note("fatal mrscan.phase.%s (then resume)", phase)
	}
	return spec, hasFatal, tcpMerge
}

// run executes one seeded schedule and audits the invariants.
func (o Options) run(ctx context.Context, seed int64) *RunReport {
	o = o.withDefaults()
	rep := &RunReport{Quality: -1, Ledger: map[string]SiteLedger{}}

	pts := dataset.Twitter(o.Points, seed)
	refLabels, err := referenceLabels(ctx, pts, o.Leaves)
	if err != nil {
		return failf(rep, "reference: %v", err)
	}

	rng := rand.New(rand.NewSource(seed))
	plan := faultinject.New(seed)
	spec, hasFatal, tcpMerge := genSchedule(rng, plan, o.FaultRate)
	rep.Spec = spec

	fs, err := stagedTitan(pts)
	if err != nil {
		return failf(rep, "writing input: %v", err)
	}
	defer fs.Release()
	hub := telemetry.New(fs.Clock())
	cfg := baseConfig(o.Leaves)
	cfg.FaultPlan = plan
	cfg.Telemetry = hub
	cfg.Retry = mrscan.RetryPolicy{MaxAttempts: 3}
	cfg.MergeOverTCP = tcpMerge
	cfg.Checkpoint = hasFatal

	res, runErr := mrscan.RunContext(ctx, fs, inputFile, outputFile, cfg)
	if runErr != nil && hasFatal && faultinject.IsFatal(runErr) {
		// The scheduled process death struck; restart from the durable
		// checkpoints, exactly as an operator (or ALPS) would.
		rep.Resumed = true
		cfg.Resume = true
		res, runErr = mrscan.RunContext(ctx, fs, inputFile, outputFile, cfg)
	}

	// Invariant 2: the corruption ledger balances — no silent escapes,
	// no double counting — whether or not the run completed.
	if rep.auditLedger(fs, plan, hub) != 0 {
		return failf(rep, "corruption ledger off by %d (ledger %+v)", rep.Escapes, rep.Ledger)
	}
	if runErr != nil {
		// Fail-stop: the pipeline refused to produce output rather than
		// risk wrong labels. Acceptable — the ledger above balanced. (A
		// run the seed's deadline stopped is the runner's to fail.)
		rep.Outcome = OutcomeFaulted
		rep.Err = runErr.Error()
		return rep
	}

	// Invariant 1: output quality versus the fault-free reference.
	labels, err := mrscan.LabelsByID(fs, res.OutputFile, pts)
	if errors.Is(err, lustre.ErrCorruptData) {
		// Stored corruption struck the output file itself, and the
		// consumer's checksummed read — the last hop of the end-to-end
		// chain — caught it. A loud fail-stop: no wrong labels reached
		// anyone. The detection just retired a latent taint, so refresh
		// the ledger before returning.
		rep.Outcome = OutcomeFaulted
		rep.Err = err.Error()
		if rep.auditLedger(fs, plan, hub) != 0 {
			return failf(rep, "corruption ledger off by %d after output read (ledger %+v)", rep.Escapes, rep.Ledger)
		}
		return rep
	}
	if err != nil {
		return failf(rep, "reading output: %v", err)
	}
	q, err := quality.Score(refLabels, labels)
	if err != nil {
		return failf(rep, "scoring: %v", err)
	}
	rep.Quality = q
	rep.Identical = slices.Equal(refLabels, labels)
	if !rep.Identical && q < o.QualityFloor {
		return failf(rep, "quality %.6f below floor %.4f", q, o.QualityFloor)
	}
	rep.Outcome = OutcomeOK
	return rep
}

// auditLedger recomputes the per-site corruption ledger from the plan's
// injection counts, the hub's detection counters and the file system's
// latent taints, and returns the total of unaccounted injections.
func (r *RunReport) auditLedger(fs *lustre.FS, plan *faultinject.Plan, hub *telemetry.Hub) int64 {
	r.Ledger = map[string]SiteLedger{}
	r.Escapes = 0
	latent := fs.IntegrityReport().Latent
	for _, site := range ledgerSites {
		l := SiteLedger{
			Injected: plan.CorruptionsInjected(site),
			Detected: hub.Counter(integrity.MetricDetected, "site", string(site)).Value(),
			Masked:   hub.Counter(integrity.MetricMasked, "site", string(site)).Value(),
		}
		if site == faultinject.LustreWrite {
			l.Latent = latent
		}
		if l.Injected+l.Detected+l.Masked+l.Latent > 0 {
			r.Ledger[string(site)] = l
		}
		r.Escapes += l.Escapes()
	}
	return r.Escapes
}
