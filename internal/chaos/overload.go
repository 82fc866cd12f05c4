package chaos

import (
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
//  3. Quality under load: completed full-quality jobs score >=
//     QualityFloor against a fault-free pipeline reference; degraded
//     jobs are marked as such and score >= DegradedFloor.
//
// Which jobs get rejected or degraded depends on scheduling interleave
// — the invariants are written to hold for every interleave.

// OverloadOptions configures an overload campaign.
type OverloadOptions struct {
	// Seeds are the campaign seeds (one server lifecycle per seed).
	Seeds []int64
	// Tenants is the number of concurrently submitting tenants
	// (default 3). JobsPerTenant is each tenant's burst size (default 6).
	Tenants       int
	JobsPerTenant int
	// Points is the per-job dataset size (default 4000); each tenant
	// has its own seeded dataset. Degraded-mode quality degrades with
	// dataset size — below ~3000 points the rate-0.8 subsample can dip
	// under the 0.95 floor, so keep campaign datasets at least that big.
	Points int
	// Leaves is the pipeline tree width per job (default 2).
	Leaves int
	// Workers is the server's executor pool (default 2).
	Workers int
	// FaultRate in [0,1] scales how many jobs carry fault plans
	// (default 0.5).
	FaultRate float64
	// RunTimeout bounds one seed's full lifecycle (default 2m).
	RunTimeout time.Duration
	// QualityFloor for full-quality jobs (default 0.995);
	// DegradedFloor for degraded-mode jobs (default 0.95).
	QualityFloor  float64
	DegradedFloor float64
	// Logf, when set, receives per-seed progress lines.
	Logf func(format string, args ...any)
}

func (o *OverloadOptions) setDefaults() {
	if o.Tenants <= 0 {
		o.Tenants = 3
	}
	if o.JobsPerTenant <= 0 {
		o.JobsPerTenant = 6
	}
	if o.Points <= 0 {
		o.Points = 4000
	}
	if o.Leaves <= 0 {
		o.Leaves = 2
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.FaultRate < 0 || o.FaultRate > 1 {
		o.FaultRate = 0.5
	} else if o.FaultRate == 0 {
		o.FaultRate = 0.5
	}
	if o.RunTimeout <= 0 {
		o.RunTimeout = 2 * time.Minute
	}
	if o.QualityFloor <= 0 {
		o.QualityFloor = 0.995
	}
	if o.DegradedFloor <= 0 {
		o.DegradedFloor = 0.95
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// OverloadRunReport is the audited result of one seed's lifecycle.
type OverloadRunReport struct {
	Seed    int64         `json:"seed"`
	Outcome Outcome       `json:"outcome"`
	Reason  string        `json:"reason,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`

	Submitted int            `json:"submitted"`
	Admitted  int            `json:"admitted"`
	Rejected  map[string]int `json:"rejected,omitempty"` // by typed reason

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Degraded  int `json:"degraded"`
	Resumed   int `json:"resumed"`
	// SuspendedAtDrain counts jobs parked by the mid-campaign drain
	// (all of which must complete or fail loudly after the restart).
	SuspendedAtDrain int `json:"suspended_at_drain"`

	// MinQuality / MinDegradedQuality are the worst DBDC scores seen
	// among completed full-quality / degraded jobs (-1 = none ran).
	MinQuality         float64 `json:"min_quality"`
	MinDegradedQuality float64 `json:"min_degraded_quality"`
}

// OverloadReport aggregates an overload campaign.
type OverloadReport struct {
	Runs   []OverloadRunReport `json:"runs"`
	OK     int                 `json:"ok"`
	Failed int                 `json:"failed"`
}

// RunOverload executes the overload campaign.
func RunOverload(o OverloadOptions) *OverloadReport {
	o.setDefaults()
	rpt := &OverloadReport{}
	for _, seed := range o.Seeds {
		r := RunOverloadSeed(seed, o)
		rpt.Runs = append(rpt.Runs, r)
		if r.Outcome == OutcomeFail {
			rpt.Failed++
			o.Logf("overload seed %d: FAIL: %s", seed, r.Reason)
		} else {
			rpt.OK++
			o.Logf("overload seed %d: ok (admitted %d, rejected %v, degraded %d, resumed %d, suspended-at-drain %d)",
				seed, r.Admitted, r.Rejected, r.Degraded, r.Resumed, r.SuspendedAtDrain)
		}
	}
	return rpt
}

// overloadJob tracks one admitted job across both server generations.
type overloadJob struct {
	id     string
	tenant int
}

// RunOverloadSeed runs one full server lifecycle under the seeded storm
// and audits the invariants.
func RunOverloadSeed(seed int64, o OverloadOptions) OverloadRunReport {
	o.setDefaults()
	start := time.Now()
	rep := OverloadRunReport{
		Seed: seed, Rejected: map[string]int{},
		MinQuality: -1, MinDegradedQuality: -1,
	}
	fail := func(format string, args ...any) OverloadRunReport {
		rep.Outcome = OutcomeFail
		rep.Reason = fmt.Sprintf(format, args...)
		rep.Elapsed = time.Since(start)
		return rep
	}
	deadline := start.Add(o.RunTimeout)

	stateDir, err := os.MkdirTemp("", "mrscan-overload-")
	if err != nil {
		return fail("creating state dir: %v", err)
	}
	defer os.RemoveAll(stateDir)

	// Per-tenant datasets and fault-free pipeline references.
	pts := make([][]geom.Point, o.Tenants)
	refs := make([][]int, o.Tenants)
	for t := 0; t < o.Tenants; t++ {
		pts[t] = dataset.Twitter(o.Points, seed*100+int64(t))
		cfg := mrscan.Default(0.1, 20, o.Leaves)
		cfg.IncludeNoise = true
		_, labels, err := mrscan.RunPoints(pts[t], cfg)
		if err != nil {
			return fail("tenant %d reference run: %v", t, err)
		}
		refs[t] = labels
	}

	// A deliberately tight server: queues sized below the burst so
	// saturation rejects, the degrade watermark low so overload degrades,
	// a short drain deadline so the mid-campaign SIGTERM suspends
	// in-flight work instead of waiting it out.
	cfg := server.Config{
		Workers:           o.Workers,
		QueuePerTenant:    2,
		QueueTotal:        2 * o.Tenants,
		DegradeQueueDepth: 2,
		BreakerThreshold:  -1, // rejection mix is queue/quota/drain here
		JobTimeout:        o.RunTimeout,
		DrainTimeout:      20 * time.Millisecond,
		Retry:             mrscan.RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond},
		StateDir:          stateDir,
	}
	srv, err := server.New(cfg)
	if err != nil {
		return fail("starting server: %v", err)
	}

	// The storm: every tenant bursts its jobs concurrently; a seeded
	// slice of them carry fault plans (transient gpusim faults the retry
	// policy heals, fatal faults modeling a worker process death the
	// server must resume from checkpoints).
	rng := rand.New(rand.NewSource(seed))
	type jobPlan struct {
		tenant  int
		plan    *faultinject.Plan
		stagger time.Duration
	}
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

	var (
		mu       sync.Mutex
		admitted []overloadJob
		badRejs  []string
	)
	var wg sync.WaitGroup
	for t := 0; t < o.Tenants; t++ {
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
					Points:    pts[tenant],
					Eps:       0.1,
					MinPts:    20,
					Leaves:    o.Leaves,
					FaultPlan: jp.plan,
				})
				mu.Lock()
				rep.Submitted++
				if err != nil {
					switch {
					case errors.Is(err, server.ErrQueueFull):
						rep.Rejected["queue_full"]++
					case errors.Is(err, server.ErrQuotaExceeded):
						rep.Rejected["quota"]++
					case errors.Is(err, server.ErrDraining):
						rep.Rejected["draining"]++
					case errors.Is(err, server.ErrBreakerOpen):
						rep.Rejected["breaker"]++
					default:
						badRejs = append(badRejs, err.Error())
					}
				} else {
					admitted = append(admitted, overloadJob{id: id, tenant: tenant})
				}
				mu.Unlock()
			}
		}(t)
	}
	wg.Wait()
	rep.Admitted = len(admitted)
	if len(badRejs) > 0 {
		srv.Close()
		return fail("%d rejections with untyped errors, e.g. %q", len(badRejs), badRejs[0])
	}

	// Let the pool chew for a moment, then SIGTERM: drain (suspending
	// whatever the deadline catches mid-run) and shut the instance down.
	time.Sleep(time.Duration(10+rng.Intn(20)) * time.Millisecond)
	srv.Drain()

	// Snapshot generation 1: jobs terminal here must already obey the
	// contract; suspended ones transfer to generation 2.
	type jobOutcome struct {
		status server.JobStatus
		labels []int
	}
	outcomes := map[string]jobOutcome{}
	for _, j := range admitted {
		st, err := srv.Status(j.id)
		if err != nil {
			srv.Close()
			return fail("job %s admitted but unknown to the server after drain: %v", j.id, err)
		}
		oc := jobOutcome{status: st}
		if st.State == server.StateCompleted {
			if oc.labels, err = srv.Result(j.id); err != nil {
				srv.Close()
				return fail("job %s completed but has no result: %v", j.id, err)
			}
		}
		if st.State == server.StateSuspended {
			rep.SuspendedAtDrain++
		}
		outcomes[j.id] = oc
	}
	srv.Close()

	// Generation 2: restart on the same state directory; every
	// suspended (or never-started) job must be recovered and driven to
	// a terminal state.
	srv2, err := server.New(cfg)
	if err != nil {
		return fail("restarting server: %v", err)
	}
	defer srv2.Close()
	for {
		pending := 0
		for _, j := range admitted {
			oc := outcomes[j.id]
			if oc.status.State == server.StateCompleted || oc.status.State == server.StateFailed {
				continue
			}
			st, err := srv2.Status(j.id)
			if err != nil {
				return fail("job %s suspended at drain but unknown after restart: %v", j.id, err)
			}
			if !st.State.Terminal() {
				pending++
				continue
			}
			if st.State == server.StateSuspended {
				return fail("job %s suspended again on a server that is not draining", j.id)
			}
			oc.status = st
			if st.State == server.StateCompleted {
				if oc.labels, err = srv2.Result(j.id); err != nil {
					return fail("job %s completed after restart but has no result: %v", j.id, err)
				}
			}
			outcomes[j.id] = oc
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fail("%d admitted jobs still pending at the %v campaign deadline", pending, o.RunTimeout)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The audit: every admitted job is terminal in exactly one accepted
	// way, and completed work meets its quality floor.
	for _, j := range admitted {
		oc := outcomes[j.id]
		st := oc.status
		switch st.State {
		case server.StateCompleted:
			rep.Completed++
			q, err := quality.Score(refs[j.tenant], oc.labels)
			if err != nil {
				return fail("job %s quality: %v", j.id, err)
			}
			floor := o.QualityFloor
			if st.Degraded {
				rep.Degraded++
				floor = o.DegradedFloor
				if rep.MinDegradedQuality < 0 || q < rep.MinDegradedQuality {
					rep.MinDegradedQuality = q
				}
			} else if rep.MinQuality < 0 || q < rep.MinQuality {
				rep.MinQuality = q
			}
			if q < floor {
				return fail("job %s (degraded=%v) quality %.4f below floor %.3f",
					j.id, st.Degraded, q, floor)
			}
			if st.Resumed {
				rep.Resumed++
			}
		case server.StateFailed:
			rep.Failed++
			if st.Err == "" {
				return fail("job %s failed silently — no error recorded", j.id)
			}
		default:
			return fail("job %s ended the campaign in state %q — a silent drop", j.id, st.State)
		}
	}
	if got := rep.Completed + rep.Failed; got != rep.Admitted {
		return fail("accounting leak: %d admitted != %d completed + %d failed",
			rep.Admitted, rep.Completed, rep.Failed)
	}

	rep.Outcome = OutcomeOK
	rep.Elapsed = time.Since(start)
	return rep
}
