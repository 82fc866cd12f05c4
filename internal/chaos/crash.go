package chaos

// Crash-point recovery harness. Where the fault campaign (chaos.go)
// injects corruption and process death into a *running* pipeline, this
// harness simulates power failure underneath the durable-state writers
// and audits the sync-ordering discipline, ALICE-style:
//
//  1. Enumerate: a fault-free probe run with the crash simulator
//     enabled (but never armed) measures the op space — every
//     durability-relevant file-system operation gets a sequence number.
//  2. Crash: for each sampled sequence number, a fresh run is armed to
//     lose power exactly there. Unsynced writes are dropped, reordered
//     and torn; unsynced creates and renames survive only as a seeded
//     per-directory prefix (see lustre.Recover).
//  3. Audit: the process restarts on the surviving state and must
//     uphold the acknowledgment invariants — nothing that was
//     acknowledged durable before the crash may be lost, recovery must
//     be idempotent (a crash during recovery, recovered again, changes
//     nothing), and the final output must equal the fault-free
//     reference exactly or fail loudly. Silent corruption is never
//     acceptable.
//
// Two writers are exercised: the pipeline's checkpoint path (a phase
// whose snapshot Save returned is acknowledged and must be restored,
// not recomputed) and the job server's write-ahead journal (a job whose
// Submit returned is acknowledged and must be journaled terminal or
// re-admitted after restart).
//
// The mutation hooks DropSyncs/DropDirSyncs turn selected fsyncs into
// lies — they succeed, cost and log like a real sync but persist
// nothing. A harness that stays green under a lying fsync proves
// nothing; tests arm the hooks and require the campaign to FAIL.

import (
	"context"
	"fmt"
	"math/rand"
	"path"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrscan"
	"repro/internal/server"
)

// CrashOptions are the crash-point scenario's knobs.
type CrashOptions struct {
	// Points is the pipeline dataset size per run (default 2000).
	Points int
	// Leaves is the cluster-phase tree width (default 4).
	Leaves int
	// CrashPoints is how many pipeline crash points are sampled per seed
	// (default 20; <0 skips the pipeline leg).
	CrashPoints int
	// JournalCrashPoints is how many job-server journal crash points are
	// sampled per seed (default 4; <0 skips the journal leg).
	JournalCrashPoints int
	// JournalJobs is the submit burst size of the journal workload
	// (default 3).
	JournalJobs int
	// RecoveryCrashEvery makes every Nth crash point a double crash: a
	// second power failure is armed during the recovery itself, and the
	// second recovery must leave the same end state (default 3).
	RecoveryCrashEvery int

	// DropSyncs is a path.Match pattern; file fsyncs on matching names
	// silently lie (succeed but persist nothing). A mutation hook: the
	// campaign must FAIL under it, proving the harness detects a missing
	// fsync.
	DropSyncs string
	// DropDirSyncs makes every directory sync lie. Mutation hook.
	DropDirSyncs bool
}

func (o CrashOptions) withDefaults() CrashOptions {
	orDefault(&o.Points, 2000)
	orDefault(&o.Leaves, 4)
	// Negative means "skip the leg", so only zero takes the default.
	if o.CrashPoints == 0 {
		o.CrashPoints = 20
	}
	if o.JournalCrashPoints == 0 {
		o.JournalCrashPoints = 4
	}
	orDefault(&o.JournalJobs, 3)
	orDefault(&o.RecoveryCrashEvery, 3)
	return o
}

// newCrashSim returns a crash-simulated Titan file system with the
// lying-fsync mutation hooks, if any, installed. pts, when given, are
// staged as the pipeline input before the simulator is enabled, so the
// baseline is durable and the op space covers only the run itself.
func (o CrashOptions) newCrashSim(simSeed int64, pts []geom.Point) (*lustre.FS, error) {
	fs := lustre.New(lustre.Titan(), nil)
	if pts != nil {
		if err := writeInput(fs, pts); err != nil {
			return nil, err
		}
	}
	fs.EnableCrashSim(simSeed)
	if o.DropSyncs != "" || o.DropDirSyncs {
		fs.SetSyncFilter(func(kind lustre.OpKind, name string) bool {
			if o.DropDirSyncs && kind == lustre.OpSyncDir {
				return false
			}
			if o.DropSyncs != "" && kind == lustre.OpSync {
				if ok, _ := path.Match(o.DropSyncs, name); ok {
					return false
				}
			}
			return true
		})
	}
	return fs, nil
}

// CrashPointReport is the audit of one pipeline crash point.
type CrashPointReport struct {
	// Seq is the op sequence number the crash was armed at.
	Seq int64 `json:"seq"`
	// DoubleCrash marks a point where a second power failure was armed
	// during the recovery run.
	DoubleCrash bool `json:"double_crash,omitempty"`
	// CompletedBeforeCrash marks a run that finished before its armed
	// point was reached (op interleavings shift between runs); the
	// durable output is still audited against the reference.
	CompletedBeforeCrash bool `json:"completed_before_crash,omitempty"`
	// AckedPhases are the phases whose checkpoint Save returned before
	// the crash — the acknowledgment set the recovery must honour.
	AckedPhases []string `json:"acked_phases,omitempty"`
	// RestoredPhases is what the post-crash resume actually restored.
	RestoredPhases []string `json:"restored_phases,omitempty"`
	Verdict
}

// JournalCrashReport is the audit of one job-server journal crash point.
type JournalCrashReport struct {
	Seq         int64 `json:"seq"`
	DoubleCrash bool  `json:"double_crash,omitempty"`
	// AckedJobs is how many Submit calls returned an ID before the
	// crash; every one of them must survive it.
	AckedJobs int `json:"acked_jobs"`
	// TornTail records that replay found (and repaired) a torn final
	// journal record — expected wreckage, not a failure.
	TornTail bool `json:"torn_tail,omitempty"`
	Verdict
}

// CrashRunReport aggregates one seed's crash points.
type CrashRunReport struct {
	Header
	// PipelineOps / JournalOps are the op-space sizes the probe runs
	// measured; crash points are sampled from [2, ops].
	PipelineOps int64                 `json:"pipeline_ops,omitempty"`
	JournalOps  int64                 `json:"journal_ops,omitempty"`
	Points      []*CrashPointReport   `json:"points,omitempty"`
	Journal     []*JournalCrashReport `json:"journal,omitempty"`
}

// note folds one crash point's verdict into the seed's: the first point
// to fail is the seed's reason.
func (r *CrashRunReport) note(leg string, seq int64, v Verdict) {
	if v.Outcome == OutcomeFail && r.Outcome != OutcomeFail {
		failf(r, "%s crash@%d: %s", leg, seq, v.Reason)
	}
}

// crashPoints is the total number of crash points a campaign exercised.
func crashPoints(rpt *Report[*CrashRunReport]) int {
	n := 0
	for _, r := range rpt.Runs {
		n += len(r.Points) + len(r.Journal)
	}
	return n
}

func (CrashOptions) summarize(rpt *Report[*CrashRunReport]) (string, map[string]int) {
	n := crashPoints(rpt)
	return fmt.Sprintf("chaos crash: %d seeds, %d crash points: %d ok, %d FAILED",
		len(rpt.Runs), n, rpt.OK, rpt.Failed), map[string]int{"crash_points": n}
}

// ckptPhases are the checkpointable phases, in pipeline order. The
// sweep is not snapshotted (its artifact is the output file itself), so
// it is never part of the acknowledgment set.
var ckptPhases = []string{mrscan.PhasePartition, mrscan.PhaseCluster, mrscan.PhaseMerge}

// run enumerates one seed's op spaces and audits every sampled crash
// point in both legs.
func (o CrashOptions) run(ctx context.Context, seed int64) *CrashRunReport {
	o = o.withDefaults()
	rep := &CrashRunReport{}
	rep.Outcome = OutcomeOK
	if o.CrashPoints > 0 {
		if err := o.pipelineLeg(ctx, seed, rep); err != nil {
			return failf(rep, "%v", err)
		}
	}
	if o.JournalCrashPoints > 0 {
		if err := o.journalLeg(ctx, seed, rep); err != nil {
			return failf(rep, "%v", err)
		}
	}
	return rep
}

// pipelineLeg probes the checkpointed pipeline's op space and audits the
// sampled crash points in it. An error means the leg could not be set
// up; a crash point that breaks an invariant is noted in rep instead.
func (o CrashOptions) pipelineLeg(ctx context.Context, seed int64, rep *CrashRunReport) error {
	pts := dataset.Twitter(o.Points, seed)
	refLabels, err := referenceLabels(ctx, pts, o.Leaves)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	// Probe: the same checkpointed run, crash sim counting ops but never
	// armed, to measure the op space.
	probeFS, err := o.newCrashSim(seed, pts)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	if _, err := mrscan.RunContext(ctx, probeFS, inputFile, outputFile, o.pipelineCfg()); err != nil {
		return fmt.Errorf("probe run: %w", err)
	}
	rep.PipelineOps = probeFS.OpCount()
	probeFS.Release()
	if rep.PipelineOps < 2 {
		return fmt.Errorf("probe run recorded only %d durability ops", rep.PipelineOps)
	}
	rng := rand.New(rand.NewSource(seed*0x9e3779b9 + 1))
	for i, k := range sampleSeqs(rng, 2, rep.PipelineOps, o.CrashPoints) {
		pr := o.pipelineCrashPoint(ctx, seed, k, (i+1)%o.RecoveryCrashEvery == 0, pts, refLabels)
		rep.Points = append(rep.Points, pr)
		rep.note("pipeline", pr.Seq, pr.Verdict)
	}
	return nil
}

// journalLeg is pipelineLeg for the job server's write-ahead journal.
func (o CrashOptions) journalLeg(ctx context.Context, seed int64, rep *CrashRunReport) error {
	jops, err := o.journalProbe(ctx, seed)
	if err != nil {
		return fmt.Errorf("journal probe: %w", err)
	}
	rep.JournalOps = jops
	rng := rand.New(rand.NewSource(seed*0x9e3779b9 + 2))
	for i, k := range sampleSeqs(rng, 2, jops, o.JournalCrashPoints) {
		jr := o.journalCrashPoint(ctx, seed, k, (i+1)%o.RecoveryCrashEvery == 0)
		rep.Journal = append(rep.Journal, jr)
		rep.note("journal", jr.Seq, jr.Verdict)
	}
	return nil
}

func (o CrashOptions) pipelineCfg() mrscan.Config {
	cfg := baseConfig(o.Leaves)
	cfg.Checkpoint = true
	return cfg
}

// sampleSeqs samples up to n distinct sequence numbers from [lo, hi],
// sorted ascending.
func sampleSeqs(rng *rand.Rand, lo, hi int64, n int) []int64 {
	if hi < lo {
		return nil
	}
	var out []int64
	for i := 0; i < 4*n && len(out) < n; i++ {
		if k := lo + rng.Int63n(hi-lo+1); !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// ackedPhases accumulates, across every crashed attempt of one crash
// point, the phases whose checkpoint Save returned — the
// durably-acknowledged set.
type ackedPhases map[string]bool

func (a ackedPhases) note(r *mrscan.Result) {
	if r != nil {
		for _, p := range r.CompletedPhases {
			a[p] = true
		}
	}
}

// list returns the checkpointable phases of the set, in pipeline order.
func (a ackedPhases) list() []string {
	var out []string
	for _, p := range ckptPhases {
		if a[p] {
			out = append(out, p)
		}
	}
	return out
}

// pipelineCrashPoint loses power at op k of a checkpointed pipeline
// run, recovers, and audits: acknowledged phase checkpoints restore
// instead of recomputing, the resumed labels equal the fault-free
// reference exactly, and (for double-crash points) a second power
// failure during the recovery changes nothing.
func (o CrashOptions) pipelineCrashPoint(ctx context.Context, seed, k int64, doubleCrash bool, pts []geom.Point, refLabels []int) *CrashPointReport {
	pr := &CrashPointReport{Seq: k, DoubleCrash: doubleCrash, Verdict: Verdict{Outcome: OutcomeOK}}

	simSeed := seed*1_000_003 + k
	fs, err := o.newCrashSim(simSeed, pts)
	if err != nil {
		return failf(pr, "staging input: %v", err)
	}
	defer fs.Release()
	fs.ArmCrash(k)

	acked := ackedPhases{}
	cfg := o.pipelineCfg()
	res, runErr := mrscan.RunContext(ctx, fs, inputFile, outputFile, cfg)
	acked.note(res)

	if runErr == nil {
		// The run finished before its armed point was reached (op
		// interleavings shift between runs). Power-fail now: the sweep
		// synced the output before acknowledging, so the durable image
		// must still carry the exact reference labels.
		pr.CompletedBeforeCrash = true
		fs.CrashNow()
		if _, err := fs.Recover(); err != nil {
			return failf(pr, "recover: %v", err)
		}
		labels, err := mrscan.LabelsByID(fs, res.OutputFile, pts)
		if err != nil {
			return failf(pr, "completed run lost its synced output: %v", err)
		}
		if !slices.Equal(labels, refLabels) {
			return failf(pr, "completed run's durable output differs from the reference")
		}
		pr.AckedPhases = acked.list()
		return pr
	}
	if !fs.Crashed() {
		return failf(pr, "run failed without a crash: %v", runErr)
	}
	if _, err := fs.Recover(); err != nil {
		return failf(pr, "recover: %v", err)
	}

	cfg.Resume = true
	if doubleCrash {
		if err := crashDuringResume(ctx, fs, cfg, simSeed, acked); err != nil {
			return failf(pr, "%v", err)
		}
	}

	res, err = mrscan.RunContext(ctx, fs, inputFile, outputFile, cfg)
	if err != nil {
		return failf(pr, "resume after recovery failed: %v", err)
	}
	labels, err := mrscan.LabelsByID(fs, res.OutputFile, pts)
	if err != nil {
		return failf(pr, "reading resumed output: %v", err)
	}
	if !slices.Equal(labels, refLabels) {
		return failf(pr, "resumed labels differ from the fault-free reference")
	}
	pr.AckedPhases = acked.list()
	pr.RestoredPhases = res.RestoredPhases
	for _, p := range pr.AckedPhases {
		if !slices.Contains(res.RestoredPhases, p) {
			return failf(pr, "acknowledged %s checkpoint was lost: the resume re-executed it", p)
		}
	}
	return pr
}

// crashDuringResume is the idempotence half of a double-crash point: it
// loses power again during the recovery run itself and recovers a second
// time, so the caller's final resume must uphold the same invariants.
func crashDuringResume(ctx context.Context, fs *lustre.FS, resumeCfg mrscan.Config, simSeed int64, acked ackedPhases) error {
	rng := rand.New(rand.NewSource(simSeed ^ 0x7e57))
	fs.ArmCrash(fs.OpCount() + 1 + rng.Int63n(32))
	res, err := mrscan.RunContext(ctx, fs, inputFile, outputFile, resumeCfg)
	acked.note(res)
	if err != nil && !fs.Crashed() {
		return fmt.Errorf("recovery run failed without a crash: %w", err)
	}
	if !fs.Crashed() {
		// The recovery outran the second armed point; power-fail now.
		fs.CrashNow()
	}
	if _, err := fs.Recover(); err != nil {
		return fmt.Errorf("second recover: %w", err)
	}
	return nil
}

// Journal leg: the job server's write-ahead journal under power
// failure. The server's job pipelines run on private file systems; only
// the journal writes go through the crash-simulated one, so the op
// space covers exactly the durability path Submit acknowledges through.

func journalServerConfig(jfs checkpoint.FS) server.Config {
	return server.Config{
		Workers:  2,
		StateDir: "state",
		Storage:  jfs,
	}
}

// stateFS is the server's state directory, "state", on the crash-simulated
// file system.
func stateFS(sfs *lustre.FS) checkpoint.FS {
	return checkpoint.Sub(checkpoint.LustreFS(sfs), "state")
}

func (o CrashOptions) journalWorkload(seed int64) []server.JobSpec {
	specs := make([]server.JobSpec, o.JournalJobs)
	for i := range specs {
		specs[i] = server.JobSpec{
			Tenant: "crash",
			Points: dataset.Twitter(300, seed+31*int64(i)),
			Eps:    0.1, MinPts: 10, Leaves: 2,
		}
	}
	return specs
}

// journalProbe runs the journal workload to completion with the crash
// sim counting (never armed) and returns the op-space size.
func (o CrashOptions) journalProbe(ctx context.Context, seed int64) (int64, error) {
	sfs, err := o.newCrashSim(seed, nil)
	if err != nil {
		return 0, err
	}
	defer sfs.Release()
	srv, err := server.New(journalServerConfig(stateFS(sfs)))
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	var ids []string
	for _, spec := range o.journalWorkload(seed) {
		id, err := srv.Submit(spec)
		if err != nil {
			return 0, err
		}
		ids = append(ids, id)
	}
	if err := waitTerminal(ctx, srv, ids); err != nil {
		return 0, err
	}
	return sfs.OpCount(), nil
}

// journalCrashPoint loses power at journal op k during a submit burst
// and audits the acknowledgment invariant: every job whose Submit
// returned an ID has a durable journal record, and after restart it is
// journaled terminal or re-admitted and driven to termination. Interior
// journal corruption is never acceptable; a torn tail is repaired and
// counted.
func (o CrashOptions) journalCrashPoint(ctx context.Context, seed, k int64, doubleCrash bool) *JournalCrashReport {
	jr := &JournalCrashReport{Seq: k, DoubleCrash: doubleCrash, Verdict: Verdict{Outcome: OutcomeOK}}

	sfs, err := o.newCrashSim(seed*1_000_003+k, nil)
	if err != nil {
		return failf(jr, "crash sim: %v", err)
	}
	defer sfs.Release()
	jfs := stateFS(sfs)
	srv, err := server.New(journalServerConfig(jfs))
	if err != nil {
		return failf(jr, "starting server: %v", err)
	}
	sfs.ArmCrash(k)

	var acked []string
	for _, spec := range o.journalWorkload(seed) {
		if id, err := srv.Submit(spec); err == nil {
			acked = append(acked, id)
		}
	}
	jr.AckedJobs = len(acked)
	// After a crash the in-memory jobs still settle (their pipelines run
	// on private file systems); give them the chance to before auditing.
	// If the seed's budget ends first, the audit below finds them.
	_ = waitTerminal(ctx, srv, acked)
	srv.Close()
	if !sfs.Crashed() {
		sfs.CrashNow()
	}
	if _, err := sfs.Recover(); err != nil {
		return failf(jr, "recover: %v", err)
	}

	// Audit 1: every acknowledged job has a durable journal record —
	// Submit fsynced the queued record before returning the ID.
	states, torn, err := server.JournalStates(jfs)
	if err != nil {
		return failf(jr, "journal replay: %v", err)
	}
	jr.TornTail = torn
	for _, id := range acked {
		if _, ok := states[id]; !ok {
			return failf(jr, "acknowledged job %s has no durable journal record", id)
		}
	}

	if doubleCrash {
		if err := crashDuringRestart(sfs, jfs, seed, k); err != nil {
			return failf(jr, "%v", err)
		}
	}
	if err := auditReadmission(ctx, jfs, acked); err != nil {
		return failf(jr, "%v", err)
	}
	return jr
}

// crashDuringRestart is the idempotence half of a double-crash journal
// point: it loses power again during the restart's journal replay (which
// may be mid torn-tail repair) and recovers, so the next restart must
// proceed as if the first crash never happened twice.
func crashDuringRestart(sfs *lustre.FS, jfs checkpoint.FS, seed, k int64) error {
	rng := rand.New(rand.NewSource(seed ^ (k << 8)))
	sfs.ArmCrash(sfs.OpCount() + 1 + rng.Int63n(8))
	srv, err := server.New(journalServerConfig(jfs))
	if err == nil {
		// Recovery outran the armed point; power-fail underneath the
		// running server instead.
		srv.Close()
	} else if !sfs.Crashed() {
		return fmt.Errorf("restart failed without a crash: %w", err)
	}
	if !sfs.Crashed() {
		sfs.CrashNow()
	}
	if _, err := sfs.Recover(); err != nil {
		return fmt.Errorf("second recover: %w", err)
	}
	return nil
}

// auditReadmission is audit 2 of a journal crash point: a server
// restarted on the surviving state re-admits every acknowledged
// non-terminal job and drives it to termination.
func auditReadmission(ctx context.Context, jfs checkpoint.FS, acked []string) error {
	srv, err := server.New(journalServerConfig(jfs))
	if err != nil {
		return fmt.Errorf("restart on recovered state: %w", err)
	}
	defer srv.Close()
	states, _, err := server.JournalStates(jfs)
	if err != nil {
		return fmt.Errorf("journal replay after restart: %w", err)
	}
	var pending []string
	for _, id := range acked {
		st, ok := states[id]
		if !ok {
			return fmt.Errorf("acknowledged job %s lost its journal record across recovery", id)
		}
		if st == server.StateCompleted || st == server.StateFailed {
			continue
		}
		if _, err := srv.Status(id); err != nil {
			return fmt.Errorf("acknowledged job %s (journaled %q) not re-admitted after restart", id, st)
		}
		pending = append(pending, id)
	}
	if err := waitTerminal(ctx, srv, pending); err != nil {
		return fmt.Errorf("re-admitted jobs did not terminate: %w", err)
	}
	return nil
}
