package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/mrscan"
	"repro/internal/quality"
	"repro/internal/server"
)

// The overload scenario drives the job server the way production
// traffic would try to kill it: several tenants burst-submit more work
// than the queues hold, a slice of the jobs carry seeded fault plans
// (transient GPU faults healed by retry, fatal faults modeling worker
// death), and mid-campaign the server is drained — the SIGTERM path —
// and a fresh instance restarted on the same state directory. The
// audit is the serving contract:
//
//  1. Zero silent drops: every job whose Submit returned an ID reaches
//     exactly one of completed / failed-with-error /
//     resumed-after-restart-then-terminal. No job is lost, stuck, or
//     terminal without explanation.
//  2. Typed backpressure: every rejected submission fails with one of
//     the typed admission errors (ErrQueueFull, ErrQuotaExceeded,
//     ErrDraining, ErrBreakerOpen) — never an anonymous error.
//  3. Quality under load: every completed job scores >= the paper's
//     0.995 floor against a fault-free pipeline reference.
//
// Which jobs get rejected depends on scheduling interleave — the
// invariants are written to hold for every interleave.

// OverloadOptions are the overload scenario's knobs.
type OverloadOptions struct {
	// Tenants is the number of concurrently submitting tenants
	// (default 3). JobsPerTenant is each tenant's burst size (default 6).
	Tenants       int
	JobsPerTenant int
	// Points is the per-job dataset size (default 4000); each tenant
	// has its own seeded dataset.
	Points int
	// Leaves is the pipeline tree width per job (default 2).
	Leaves int
	// FaultRate in (0,1] scales how many jobs carry fault plans
	// (default 0.5).
	FaultRate float64
}

func (o OverloadOptions) withDefaults() OverloadOptions {
	orDefault(&o.Tenants, 3)
	orDefault(&o.JobsPerTenant, 6)
	orDefault(&o.Points, 4000)
	orDefault(&o.Leaves, 2)
	if o.FaultRate <= 0 || o.FaultRate > 1 {
		o.FaultRate = 0.5
	}
	return o
}

// OverloadRunReport is the audited result of one seed's lifecycle.
type OverloadRunReport struct {
	Header

	Submitted int            `json:"submitted"`
	Admitted  int            `json:"admitted"`
	Rejected  map[string]int `json:"rejected,omitempty"` // by typed reason

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Resumed   int `json:"resumed"`
	// SuspendedAtDrain counts jobs parked by the mid-campaign drain
	// (all of which must complete or fail loudly after the restart).
	SuspendedAtDrain int `json:"suspended_at_drain"`

	// MinQuality is the worst DBDC score among completed jobs (-1 =
	// none completed).
	MinQuality float64 `json:"min_quality"`
}

func (OverloadOptions) summarize(rpt *Report[*OverloadRunReport]) (string, map[string]int) {
	return plainSummary("overload", rpt)
}

// overloadJob tracks one admitted job across both server generations.
type overloadJob struct {
	id     string
	tenant int
	status server.JobStatus
	labels []int
}

// jobPlan is one submission of the storm.
type jobPlan struct {
	tenant  int
	plan    *faultinject.Plan
	stagger time.Duration
}

// overloadRun is one seed's lifecycle in flight.
type overloadRun struct {
	o    OverloadOptions
	rep  *OverloadRunReport
	pts  [][]geom.Point // per tenant
	refs [][]int        // per tenant: fault-free pipeline labels
	jobs []*overloadJob // admitted
}

// run takes one server through its whole life under the seeded storm —
// burst, drain, restart on the same state directory — and audits the
// invariants.
func (o OverloadOptions) run(ctx context.Context, seed int64) *OverloadRunReport {
	o = o.withDefaults()
	rep := &OverloadRunReport{Rejected: map[string]int{}, MinQuality: -1}
	r := &overloadRun{o: o, rep: rep}

	stateDir, err := os.MkdirTemp("", "mrscan-overload-")
	if err != nil {
		return failf(rep, "creating state dir: %v", err)
	}
	defer os.RemoveAll(stateDir)

	for t := 0; t < o.Tenants; t++ {
		pts := dataset.Twitter(o.Points, seed*100+int64(t))
		labels, err := referenceLabels(ctx, pts, o.Leaves)
		if err != nil {
			return failf(rep, "tenant %d: %v", t, err)
		}
		r.pts, r.refs = append(r.pts, pts), append(r.refs, labels)
	}

	// A deliberately tight server: queues sized below the burst so
	// saturation rejects, a short drain deadline so the mid-campaign
	// SIGTERM suspends in-flight work instead of waiting it out, a
	// two-worker pool the default burst saturates. No job may outlast
	// what is left of the seed's budget.
	deadline, _ := ctx.Deadline()
	cfg := server.Config{
		Workers:          2,
		QueuePerTenant:   2,
		QueueTotal:       2 * o.Tenants,
		BreakerThreshold: -1, // rejection mix is queue/quota/drain here
		JobTimeout:       time.Until(deadline),
		DrainTimeout:     20 * time.Millisecond,
		Retry:            mrscan.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
		StateDir:         stateDir,
	}
	rng := rand.New(rand.NewSource(seed))
	if err := r.generation1(cfg, seed, rng); err != nil {
		return failf(rep, "%v", err)
	}
	if err := r.generation2(ctx, cfg); err != nil {
		return failf(rep, "%v", err)
	}
	if err := r.audit(); err != nil {
		return failf(rep, "%v", err)
	}
	rep.Outcome = OutcomeOK
	return rep
}

// stormPlans draws the storm: every tenant's burst, a seeded slice of
// it carrying fault plans (transient gpusim faults the retry policy
// heals, fatal faults modeling a worker process death the server must
// resume from checkpoints).
func (o OverloadOptions) stormPlans(seed int64, rng *rand.Rand) []jobPlan {
	var plans []jobPlan
	for t := 0; t < o.Tenants; t++ {
		for j := 0; j < o.JobsPerTenant; j++ {
			jp := jobPlan{tenant: t, stagger: time.Duration(rng.Intn(4)) * time.Millisecond}
			switch r := rng.Float64(); {
			case r < o.FaultRate/2:
				jp.plan = faultinject.New(seed+int64(t*100+j)).Arm(
					faultinject.GPULaunch, faultinject.Rule{Times: 2})
			case r < o.FaultRate:
				jp.plan = faultinject.New(seed+int64(t*100+j)).Arm(
					mrscan.PhaseSite(mrscan.PhaseMerge), faultinject.Rule{Times: 1, Fatal: true})
			}
			plans = append(plans, jp)
		}
	}
	return plans
}

// rejectionReason names a typed admission error; "" for any other.
func rejectionReason(err error) string {
	switch {
	case errors.Is(err, server.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, server.ErrQuotaExceeded):
		return "quota"
	case errors.Is(err, server.ErrDraining):
		return "draining"
	case errors.Is(err, server.ErrBreakerOpen):
		return "breaker"
	}
	return ""
}

// storm has every tenant submit its burst concurrently and books each
// submission as admitted or as a typed rejection. It returns the errors
// of the rejections that were not typed.
func (r *overloadRun) storm(srv *server.Server, plans []jobPlan) (untyped []string) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for t := 0; t < r.o.Tenants; t++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for _, jp := range plans {
				if jp.tenant != tenant {
					continue
				}
				time.Sleep(jp.stagger)
				id, err := srv.Submit(server.JobSpec{
					Tenant:    fmt.Sprintf("tenant-%d", tenant),
					Points:    r.pts[tenant],
					Eps:       0.1,
					MinPts:    20,
					Leaves:    r.o.Leaves,
					FaultPlan: jp.plan,
				})
				mu.Lock()
				r.rep.Submitted++
				if err == nil {
					r.jobs = append(r.jobs, &overloadJob{id: id, tenant: tenant})
				} else if reason := rejectionReason(err); reason != "" {
					r.rep.Rejected[reason]++
				} else {
					untyped = append(untyped, err.Error())
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	r.rep.Admitted = len(r.jobs)
	return untyped
}

// generation1 is the first server's life: the storm, a moment for the
// pool to chew, then SIGTERM — drain (suspending whatever the drain
// deadline catches mid-run) and shut down. Jobs terminal here must
// already obey the contract; suspended ones transfer to generation 2.
func (r *overloadRun) generation1(cfg server.Config, seed int64, rng *rand.Rand) error {
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("starting server: %w", err)
	}
	defer srv.Close()
	if untyped := r.storm(srv, r.o.stormPlans(seed, rng)); len(untyped) > 0 {
		return fmt.Errorf("%d rejections with untyped errors, e.g. %q", len(untyped), untyped[0])
	}
	time.Sleep(time.Duration(10+rng.Intn(20)) * time.Millisecond)
	srv.Drain()
	for _, j := range r.jobs {
		if err := j.settle(srv, "after drain"); err != nil {
			return err
		}
		if j.status.State == server.StateSuspended {
			r.rep.SuspendedAtDrain++
		}
	}
	return nil
}

// settle records the job's status on srv and, when it completed, its
// labels.
func (j *overloadJob) settle(srv *server.Server, when string) error {
	st, err := srv.Status(j.id)
	if err != nil {
		return fmt.Errorf("job %s admitted but unknown to the server %s: %w", j.id, when, err)
	}
	j.status = st
	if st.State == server.StateCompleted {
		if j.labels, err = srv.Result(j.id); err != nil {
			return fmt.Errorf("job %s completed %s but has no result: %w", j.id, when, err)
		}
	}
	return nil
}

// generation2 restarts on the same state directory: every suspended (or
// never-started) job must be recovered and driven to a terminal state
// before the seed's budget ends.
func (r *overloadRun) generation2(ctx context.Context, cfg server.Config) error {
	srv, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("restarting server: %w", err)
	}
	defer srv.Close()
	var carried []*overloadJob
	var ids []string
	for _, j := range r.jobs {
		if st := j.status.State; st != server.StateCompleted && st != server.StateFailed {
			carried, ids = append(carried, j), append(ids, j.id)
		}
	}
	if err := waitTerminal(ctx, srv, ids); err != nil {
		return fmt.Errorf("after restart, of %d jobs carried over: %w", len(ids), err)
	}
	for _, j := range carried {
		if err := j.settle(srv, "after restart"); err != nil {
			return err
		}
		if j.status.State == server.StateSuspended {
			return fmt.Errorf("job %s suspended again on a server that is not draining", j.id)
		}
	}
	return nil
}

// audit requires every admitted job to be terminal in exactly one
// accepted way, and completed work to meet its quality floor.
func (r *overloadRun) audit() error {
	rep := r.rep
	for _, j := range r.jobs {
		switch st := j.status; st.State {
		case server.StateCompleted:
			rep.Completed++
			q, err := quality.Score(r.refs[j.tenant], j.labels)
			if err != nil {
				return fmt.Errorf("job %s quality: %w", j.id, err)
			}
			if rep.MinQuality < 0 || q < rep.MinQuality {
				rep.MinQuality = q
			}
			if q < paperFloor {
				return fmt.Errorf("job %s quality %.4f below floor %.3f", j.id, q, paperFloor)
			}
			if st.Resumed {
				rep.Resumed++
			}
		case server.StateFailed:
			rep.Failed++
			if st.Err == "" {
				return fmt.Errorf("job %s failed silently — no error recorded", j.id)
			}
		default:
			return fmt.Errorf("job %s ended the campaign in state %q — a silent drop", j.id, st.State)
		}
	}
	if got := rep.Completed + rep.Failed; got != rep.Admitted {
		return fmt.Errorf("accounting leak: %d admitted != %d completed + %d failed",
			rep.Admitted, rep.Completed, rep.Failed)
	}
	return nil
}
