// Package server is the long-running clustering-as-a-service layer over
// the Mr. Scan pipeline: many tenants submit clustering jobs against one
// process holding the shared GPGPU-tree substrate, and the server's
// headline property is robustness under overload and failure, not just
// existence.
//
// The serving state machine is:
//
//	submit → admitted → queued → running → completed
//	            │                   │    ↘ failed (loudly, typed error)
//	            │                   │    ↘ suspended (drain / process death)
//	            ↘ rejected           ↘ resumed → running → …
//	              (ErrQueueFull | ErrQuotaExceeded |
//	               ErrDraining  | ErrBreakerOpen | ErrInvalidInput)
//
// Three mechanisms implement it:
//
//   - Admission control: per-tenant bounded queues, a global queue bound,
//     and per-tenant point-count quotas. Overload is shed at the door
//     with typed errors the client can act on — never by OOMing later.
//   - Deadline-aware scheduling: a fixed worker pool drains the tenant
//     queues round-robin (no tenant starves), each job runs under its
//     own timeout, transient pipeline faults retry with backoff
//     (mrscan.Config.Retry), and consecutive failures trip a per-tenant
//     or whole-pipeline circuit breaker that sheds further load until a
//     cooldown elapses.
//   - Graceful drain: Drain stops admission, lets in-flight jobs finish
//     under a drain deadline, and suspends the rest — queued jobs
//     immediately, in-flight jobs after cancelling them at a phase
//     boundary with their checkpoints staged to the state directory. A
//     new server on the same directory re-admits every suspended job
//     and resumes it from its longest valid checkpoint prefix
//     (internal/checkpoint), so a SIGTERM never silently drops a job.
//
// Every transition flows through internal/telemetry with per-tenant
// labels (server_jobs_*_total{tenant,...}, server_queue_depth{tenant},
// server_job_latency_seconds{tenant}, server_breaker_state{scope}) and
// out the Prometheus exporter. The seeded overload scenario in
// internal/chaos drives all three mechanisms at once and audits the
// invariant: every admitted job terminates in exactly one of
// {completed, failed-loudly, resumed-after-restart}, with zero silent
// drops.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrscan"
	"repro/internal/ptio"
	"repro/internal/telemetry"
)

// Typed admission rejections. Clients distinguish them with errors.Is:
// queue-full and quota are per-tenant backpressure (retry later or shed
// upstream), draining and breaker-open mean the server as a whole is
// refusing work.
var (
	// ErrQueueFull: the tenant's queue (or the global queue bound) is at
	// capacity. Backpressure — retry after jobs drain.
	ErrQueueFull = errors.New("server: queue full")
	// ErrQuotaExceeded: admitting the job would push the tenant's
	// queued+running point count over its quota.
	ErrQuotaExceeded = errors.New("server: tenant quota exceeded")
	// ErrDraining: the server is draining (SIGTERM) or closed; no new
	// work is admitted.
	ErrDraining = errors.New("server: draining")
	// ErrBreakerOpen: the tenant's (or the global) circuit breaker is
	// open after consecutive failures; admission resumes after cooldown.
	ErrBreakerOpen = errors.New("server: circuit breaker open")
	// ErrInvalidInput: the submission can never run, whatever the load —
	// two points share an ID, a coordinate is not finite or lies 2³⁰ Eps
	// cells or more from the origin (grid.Coord is int32), or the
	// parameters are out of range. It is refused before it holds tokens or
	// becomes a job, so a client's bad input never counts against a
	// breaker.
	ErrInvalidInput = errors.New("server: invalid input")
	// ErrUnknownJob: no job with that ID.
	ErrUnknownJob = errors.New("server: unknown job")
	// ErrJobNotFinished: the job exists but has not reached a terminal
	// state yet.
	ErrJobNotFinished = errors.New("server: job not finished")
)

// State is a job's position in the serving state machine.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
	// StateSuspended: the job was interrupted by a drain or a simulated
	// process death and its durable state (input + checkpoints) is
	// staged in the state directory; a server restarted on the same
	// directory re-admits and resumes it.
	StateSuspended State = "suspended"
)

// Terminal reports whether a job in this state will never run again on
// this server instance. Suspended is terminal here but not globally —
// a restarted server resumes it.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateSuspended
}

// JobSpec is one submission.
type JobSpec struct {
	// Tenant is the submitting principal; admission control, quotas,
	// breakers and metrics are all keyed by it. Empty means "default".
	Tenant string
	// Points is the dataset to cluster.
	Points []geom.Point
	// Eps, MinPts, Leaves are the pipeline parameters (mrscan.Default).
	Eps    float64
	MinPts int
	Leaves int
	// Deadline overrides Config.JobTimeout for this job when positive.
	Deadline time.Duration
	// FaultPlan, when non-nil, is installed on the job's pipeline run —
	// the chaos and test hook for transient faults and simulated process
	// death. Not journaled: a resumed job runs fault-free.
	FaultPlan *faultinject.Plan
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Degraded and SampleRate are always false and 0: every job runs at
	// full quality and no code sets them. They stay because the v1 wire
	// format (the result reply and status JSON) carries them.
	Degraded   bool    `json:"degraded,omitempty"`
	SampleRate float64 `json:"sample_rate,omitempty"`
	// Resumed marks a job restored after a drain/restart or a simulated
	// process death; RestoredPhases lists the pipeline phases replayed
	// from checkpoints instead of recomputed.
	Resumed         bool      `json:"resumed,omitempty"`
	RestoredPhases  []string  `json:"restored_phases,omitempty"`
	CompletedPhases []string  `json:"completed_phases,omitempty"`
	NumClusters     int       `json:"num_clusters,omitempty"`
	Points          int       `json:"points"`
	Retries         int       `json:"retries,omitempty"`
	Err             string    `json:"error,omitempty"`
	Submitted       time.Time `json:"submitted"`
	Started         time.Time `json:"started,omitempty"`
	Finished        time.Time `json:"finished,omitempty"`
}

// Job is the server-side record of one submission. All fields are
// guarded by the owning Server's mutex.
type Job struct {
	id     string
	tenant string
	spec   JobSpec

	state        State
	resumed      bool // restored after restart or fatal fault
	fatalRetried bool // one in-place resume after a fatal fault already used
	restored     []string
	completed    []string
	retries      int
	numClusters  int
	labels       []int
	err          error

	submitted time.Time
	started   time.Time
	finished  time.Time

	hub *telemetry.Hub // job-private pipeline hub
}

func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID: j.id, Tenant: j.tenant, State: j.state,
		Resumed:         j.resumed,
		RestoredPhases:  append([]string(nil), j.restored...),
		CompletedPhases: append([]string(nil), j.completed...),
		NumClusters:     j.numClusters,
		Points:          len(j.spec.Points),
		Retries:         j.retries,
		Submitted:       j.submitted, Started: j.started, Finished: j.finished,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Config configures a Server. The zero value is usable: every field has
// a serving-sane default.
type Config struct {
	// Workers is the number of concurrent pipeline executors (default 2).
	Workers int
	// QueuePerTenant bounds each tenant's queued (not yet running) jobs
	// (default 16). QueueTotal bounds the sum across tenants (default
	// 4×QueuePerTenant).
	QueuePerTenant int
	QueueTotal     int
	// TenantQuota bounds a tenant's total queued+running input points
	// (default 4M; <0 disables).
	TenantQuota int64
	// JobTimeout is the per-job deadline (default 5m). A job exceeding
	// it fails loudly with the context error.
	JobTimeout time.Duration
	// DrainTimeout is how long Drain lets in-flight jobs finish before
	// cancelling and suspending them (default 5s).
	DrainTimeout time.Duration
	// Retry is the per-phase retry policy installed on every job's
	// pipeline run (default 3 attempts, 10ms backoff).
	Retry mrscan.RetryPolicy
	// BreakerThreshold trips a tenant's circuit breaker after that many
	// consecutive failed jobs (default 3; <0 disables). GlobalBreaker-
	// Threshold does the same across all tenants (default 4×tenant).
	// BreakerCooldown is how long a tripped breaker rejects admissions
	// (default 5s).
	BreakerThreshold       int
	GlobalBreakerThreshold int
	BreakerCooldown        time.Duration
	// StateDir, when non-empty, is the durable directory for job specs,
	// inputs, staged checkpoints and streams — the substrate of
	// drain/resume. Empty disables durability: drains cancel and fail
	// in-flight jobs.
	StateDir string
	// Storage is the port every durable write under StateDir goes
	// through. Nil (the default) is checkpoint.DirFS(StateDir); the crash
	// harness and tests put a simulated crash-capable file system there,
	// or one that fails on cue, to audit sync ordering under power
	// failure.
	Storage checkpoint.FS
	// Telemetry is the server-level hub (metrics + transition events).
	// Nil provisions a private hub, exposed via Hub().
	Telemetry *telemetry.Hub
	// StreamsPerTenant caps a tenant's concurrent sliding-window streams
	// (default 4; negative disables the cap).
	StreamsPerTenant int
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueuePerTenant <= 0 {
		c.QueuePerTenant = 16
	}
	if c.QueueTotal <= 0 {
		c.QueueTotal = 4 * c.QueuePerTenant
	}
	if c.TenantQuota == 0 {
		c.TenantQuota = 4 << 20
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry = mrscan.RetryPolicy{MaxAttempts: 3, Backoff: 10 * time.Millisecond}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.GlobalBreakerThreshold == 0 {
		c.GlobalBreakerThreshold = 4 * c.BreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.StreamsPerTenant == 0 {
		c.StreamsPerTenant = 4
	}
}

// Server is a multi-tenant clustering job server. Create with New, stop
// with Drain (graceful) and/or Close.
type Server struct {
	cfg Config
	hub *telemetry.Hub
	jr  *journal

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenantState
	order    []string // round-robin tenant order
	rr       int
	jobs     map[string]*Job
	queued   int // total queued jobs
	inflight int // jobs currently running
	seq      int
	draining bool
	closed   bool

	streams   map[string]*streamState
	streamSeq int
	state     checkpoint.FS // the state directory's port; nil without a StateDir

	global *breaker

	runCtx    context.Context // cancelled to abort in-flight jobs
	runCancel context.CancelFunc
	wg        sync.WaitGroup
}

// New starts a server: workers are spawned immediately, and if
// cfg.StateDir holds suspended jobs from a previous instance they are
// recovered and re-queued for resumption before New returns.
func New(cfg Config) (*Server, error) {
	cfg.setDefaults()
	hub := cfg.Telemetry
	if hub == nil {
		hub = telemetry.New(nil)
	}
	var state checkpoint.FS
	if cfg.StateDir != "" {
		state = cfg.Storage
		if state == nil {
			var err error
			if state, err = checkpoint.DirFS(cfg.StateDir); err != nil {
				return nil, fmt.Errorf("server: opening state directory: %w", err)
			}
		}
	}
	s := &Server{
		cfg:     cfg,
		hub:     hub,
		jr:      newJournal(state, hub),
		tenants: make(map[string]*tenantState),
		jobs:    make(map[string]*Job),
		streams: make(map[string]*streamState),
		state:   state,
	}
	s.cond = sync.NewCond(&s.mu)
	s.global = newBreaker(cfg.GlobalBreakerThreshold, cfg.BreakerCooldown,
		hub.Counter("server_breaker_trips_total", "scope", "global"),
		hub.Gauge("server_breaker_state", "scope", "global"))
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if err := s.recover(); err != nil {
		return nil, err
	}
	if err := s.recoverStreams(); err != nil {
		return nil, err
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Hub returns the server-level telemetry hub (metrics + events).
func (s *Server) Hub() *telemetry.Hub { return s.hub }

// Submit validates the input (ErrInvalidInput: nothing is held, counted
// or created for input that could never run), runs admission control and
// either queues the job (returning its ID) or rejects it with one of the
// typed errors.
func (s *Server) Submit(spec JobSpec) (string, error) {
	if spec.Tenant == "" {
		spec.Tenant = "default"
	}
	if len(spec.Points) == 0 {
		return "", fmt.Errorf("server: job has no points")
	}
	if err := validateInput(spec.Points, spec.Eps, spec.MinPts, spec.Leaves); err != nil {
		return "", err
	}
	if spec.Leaves <= 0 {
		spec.Leaves = 2
	}

	s.mu.Lock()
	s.hub.Counter("server_jobs_submitted_total", "tenant", spec.Tenant).Inc()
	if err := s.admitLocked(spec.Tenant, int64(len(spec.Points))); err != nil {
		s.mu.Unlock()
		return "", err
	}
	s.seq++
	job := &Job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		tenant:    spec.Tenant,
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		hub:       telemetry.New(nil),
	}
	s.mu.Unlock()

	// Journal outside the lock but before the job becomes visible to the
	// workers: its spec and input are durable before the caller learns
	// the ID, so an admitted job survives a crash, and no worker can
	// start a job whose journal entry is half-written.
	if err := s.jr.writeSpec(job.id, persistedSpec{
		Tenant: job.tenant, Eps: spec.Eps, MinPts: spec.MinPts,
		Leaves: spec.Leaves, DeadlineNS: int64(spec.Deadline),
	}, spec.Points); err != nil {
		s.mu.Lock()
		s.releaseTokensLocked(job)
		s.mu.Unlock()
		return "", fmt.Errorf("server: journaling job: %w", err)
	}

	s.mu.Lock()
	s.hub.Counter("server_jobs_admitted_total", "tenant", job.tenant).Inc()
	s.hub.Event(nil, "server.admitted", telemetry.String("tenant", job.tenant),
		telemetry.String("job", job.id))
	if s.draining || s.closed {
		// Drain began while we were journaling. The job is admitted and
		// durable, so it is suspended — a restart resumes it — rather
		// than silently dropped.
		s.jobs[job.id] = job
		s.suspendLocked(job, ErrDraining)
		s.mu.Unlock()
		return job.id, nil
	}
	s.enqueueLocked(job)
	s.cond.Broadcast()
	s.mu.Unlock()
	return job.id, nil
}

// Status returns a snapshot of the job.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return job.statusLocked(), nil
}

// Result returns a completed job's per-point labels (aligned with the
// submitted points; -1 = noise). ErrJobNotFinished while the job is
// still queued/running; a failed job returns its terminal error.
func (s *Server) Result(id string) ([]int, error) {
	labels, _, err := s.result(id)
	return append([]int(nil), labels...), err
}

// result is Result without the copy, and with the job's status. A
// completed job's labels never change after finish, so the caller may
// read them, but must not write them.
func (s *Server) result(id string) ([]int, JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil, JobStatus{}, ErrUnknownJob
	}
	switch job.state {
	case StateCompleted:
		return job.labels, job.statusLocked(), nil
	case StateFailed:
		return nil, JobStatus{}, job.err
	default:
		return nil, JobStatus{}, ErrJobNotFinished
	}
}

// Jobs lists a snapshot of every job, sorted by ID.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.statusLocked())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Draining reports whether the server has stopped admitting work.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the serving loop down: admission stops
// (Submit returns ErrDraining), queued jobs are suspended immediately,
// and in-flight jobs get cfg.DrainTimeout to finish before being
// cancelled at a phase boundary and suspended with their checkpoints
// staged out. It returns when every job has reached a terminal state.
// Without a StateDir there is nowhere to suspend to, so interrupted
// jobs fail loudly instead.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		for s.inflight > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.hub.Event(nil, "server.draining")
	s.hub.Gauge("server_draining").Set(1)
	// Queued jobs never started: suspend them in place. Their journaled
	// spec + input is already durable, so a restart re-queues them.
	for _, t := range s.tenants {
		for _, job := range t.queue {
			s.suspendLocked(job, errors.New("server: drained before start"))
		}
		t.queue = nil
		s.setQueueGauges(t)
	}
	s.queued = 0
	s.cond.Broadcast()
	s.mu.Unlock()

	// Grace period for in-flight jobs, then cancel them; runJob observes
	// the cancellation at the next phase boundary, stages checkpoints
	// out and suspends.
	done := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.inflight > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.runCancel()
		<-done
	}
	s.hub.Event(nil, "server.drained")
}

// Close drains (if not already draining) and stops the workers. The
// server accepts no further calls to Submit afterwards.
func (s *Server) Close() {
	s.Drain()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.runCancel()
	s.wg.Wait()
}

// worker is one executor: it pulls jobs off the tenant queues
// round-robin and runs them until the server drains or closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		job := s.next()
		if job == nil {
			return
		}
		s.runJob(job)
	}
}

// next blocks until a job is dispatchable, returning nil at drain/close.
func (s *Server) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed || s.draining {
			return nil
		}
		if job := s.dequeueLocked(); job != nil {
			job.state = StateRunning
			job.started = time.Now()
			s.inflight++
			s.hub.Gauge("server_inflight_jobs").Set(int64(s.inflight))
			return job
		}
		s.cond.Wait()
	}
}

// finish transitions a job out of running. Exactly one of the terminal
// paths is taken; the quota tokens the job held are returned either way.
func (s *Server) finish(job *Job, res *mrscan.Result, labels []int, runErr error) {
	s.mu.Lock()
	defer func() {
		s.inflight--
		s.hub.Gauge("server_inflight_jobs").Set(int64(s.inflight))
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	if res != nil {
		job.completed = append([]string(nil), res.CompletedPhases...)
		job.restored = append([]string(nil), res.RestoredPhases...)
		job.retries = res.Times.Retries()
	}
	if runErr == nil {
		job.state = StateCompleted
		job.finished = time.Now()
		job.labels = labels
		job.numClusters = res.NumClusters
		s.releaseTokensLocked(job)
		s.hub.Counter("server_jobs_completed_total", "tenant", job.tenant).Inc()
		s.hub.Histogram("server_job_latency_seconds", nil, "tenant", job.tenant).
			Observe(job.finished.Sub(job.started).Seconds())
		s.hub.Event(nil, "server.completed", telemetry.String("tenant", job.tenant),
			telemetry.String("job", job.id))
		s.tenantLocked(job.tenant).breaker.recordSuccess()
		s.global.recordSuccess()
		s.jr.setState(job.id, string(StateCompleted))
		return
	}

	drained := s.draining && errors.Is(runErr, context.Canceled)
	fatal := faultinject.IsFatal(runErr)
	switch {
	case drained && s.jr.enabled():
		// Drain cancelled the run at a phase boundary; the checkpoints
		// written before the cut are staged. Suspend for the next
		// instance to resume.
		s.suspendLocked(job, runErr)
	case fatal && s.jr.enabled() && !job.fatalRetried && !s.draining:
		// A fatal fault models the job's process dying (a worker kill).
		// The durable checkpoints survive, so requeue the job once with
		// Resume — the serving analogue of ALPS restarting a dead node.
		job.fatalRetried = true
		job.resumed = true
		job.state = StateQueued
		s.hub.Counter("server_jobs_resumed_total", "tenant", job.tenant).Inc()
		s.hub.Event(nil, "server.resumed", telemetry.String("tenant", job.tenant),
			telemetry.String("job", job.id), telemetry.String("cause", "fatal-fault"))
		t := s.tenantLocked(job.tenant)
		t.queue = append([]*Job{job}, t.queue...) // resume ahead of new work
		s.queued++
		s.setQueueGauges(t)
	default:
		s.failLocked(job, runErr)
	}
}

// failLocked marks a job loudly failed and updates breakers.
func (s *Server) failLocked(job *Job, err error) {
	job.state = StateFailed
	job.finished = time.Now()
	job.err = err
	s.releaseTokensLocked(job)
	s.hub.Counter("server_jobs_failed_total", "tenant", job.tenant).Inc()
	s.hub.Event(nil, "server.failed", telemetry.String("tenant", job.tenant),
		telemetry.String("job", job.id), telemetry.String("error", err.Error()))
	now := time.Now()
	if s.tenantLocked(job.tenant).breaker.recordFailure(now) {
		s.hub.Event(nil, "server.breaker-open", telemetry.String("tenant", job.tenant))
	}
	if s.global.recordFailure(now) {
		s.hub.Event(nil, "server.breaker-open", telemetry.String("tenant", "*global*"))
	}
	s.jr.setState(job.id, string(StateFailed))
}

// suspendLocked parks a job for a future server instance to resume.
func (s *Server) suspendLocked(job *Job, cause error) {
	job.state = StateSuspended
	job.err = cause
	s.releaseTokensLocked(job)
	s.hub.Counter("server_jobs_suspended_total", "tenant", job.tenant).Inc()
	s.hub.Event(nil, "server.suspended", telemetry.String("tenant", job.tenant),
		telemetry.String("job", job.id))
	s.jr.setState(job.id, string(StateSuspended))
}

// recover re-admits every non-terminal journaled job left by a previous
// server instance on the same state directory. Recovered jobs bypass
// admission control — they were admitted once — but re-acquire their
// quota tokens so subsequent admissions see honest accounting.
func (s *Server) recover() error {
	recovered, maxSeq, err := s.jr.recoverJobs()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq = maxSeq
	for _, r := range recovered {
		job := &Job{
			id:     r.id,
			tenant: r.spec.Tenant,
			spec: JobSpec{
				Tenant: r.spec.Tenant, Points: r.points, Eps: r.spec.Eps,
				MinPts: r.spec.MinPts, Leaves: r.spec.Leaves,
				Deadline: time.Duration(r.spec.DeadlineNS),
			},
			state:     StateQueued,
			resumed:   true,
			submitted: time.Now(),
			hub:       telemetry.New(nil),
		}
		t := s.tenantLocked(job.tenant)
		t.tokens += int64(len(job.spec.Points))
		s.enqueueLocked(job)
		s.hub.Counter("server_jobs_resumed_total", "tenant", job.tenant).Inc()
		s.hub.Event(nil, "server.resumed", telemetry.String("tenant", job.tenant),
			telemetry.String("job", job.id), telemetry.String("cause", "restart"))
	}
	s.cond.Broadcast()
	return nil
}

// runJob executes one job end to end: provision a fresh simulated file
// system, stage the input, resume from staged
// checkpoints if the job was suspended, run the pipeline under the job
// deadline, and land the result in exactly one terminal state.
func (s *Server) runJob(job *Job) {
	ctx := s.runCtx
	deadline := job.spec.Deadline
	if deadline <= 0 {
		deadline = s.cfg.JobTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	fs := lustre.New(lustre.Titan(), nil)
	defer fs.Release()
	if err := ptio.WriteDataset(fs.Create("input.mrsc"), job.spec.Points, false); err != nil {
		s.finish(job, nil, nil, fmt.Errorf("server: staging input: %w", err))
		return
	}

	cfg := mrscan.Default(job.spec.Eps, job.spec.MinPts, job.spec.Leaves)
	cfg.IncludeNoise = true
	cfg.Retry = s.cfg.Retry
	cfg.FaultPlan = job.spec.FaultPlan
	cfg.Telemetry = job.hub
	cfg.Checkpoint = s.jr.enabled()
	if job.resumed && s.jr.enabled() {
		if err := mrscan.StageStateIn(fs, s.state, ckptDir(job.id)); err != nil {
			s.finish(job, nil, nil, fmt.Errorf("server: staging checkpoint state in: %w", err))
			return
		}
		cfg.Resume = true
	}

	res, runErr := mrscan.RunContext(ctx, fs, "input.mrsc", "output.mrsl", cfg)
	if runErr != nil {
		if cfg.Checkpoint {
			// The snapshots written before the abort are what a resumed
			// run restarts from — stage them out even (especially) on
			// failure.
			if serr := mrscan.StageStateOut(fs, s.state, ckptDir(job.id)); serr != nil {
				runErr = errors.Join(runErr, fmt.Errorf("server: staging checkpoint state out: %w", serr))
			}
		}
		s.finish(job, res, nil, runErr)
		return
	}

	labels, err := mrscan.LabelsByID(fs, res.OutputFile, job.spec.Points)
	if err != nil {
		s.finish(job, res, nil, fmt.Errorf("server: reading output: %w", err))
		return
	}
	s.finish(job, res, labels, nil)
}
