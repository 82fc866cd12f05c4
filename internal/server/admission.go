package server

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Admission control: the server's first line of defense under overload.
// Work is bounded at three levels — per-tenant queue depth, total queue
// depth, and per-tenant in-system point count (the "token quota") — and
// anything over a bound is rejected at submission time with a typed
// error, so overload surfaces as backpressure the client can reason
// about instead of as memory growth or tail latency inside the server.

// tenantState is one tenant's serving account: its FIFO of queued jobs,
// the quota tokens (input points) it currently holds across queued and
// running jobs, and its circuit breaker.
type tenantState struct {
	name    string
	queue   []*Job
	tokens  int64
	breaker *breaker
}

// tenantLocked returns (creating on first use) the tenant's state.
// Caller holds s.mu.
func (s *Server) tenantLocked(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		t = &tenantState{
			name: name,
			breaker: newBreaker(s.cfg.BreakerThreshold, s.cfg.BreakerCooldown,
				s.hub.Counter("server_breaker_trips_total", "scope", "tenant", "tenant", name),
				s.hub.Gauge("server_breaker_state", "scope", "tenant", "tenant", name)),
		}
		s.tenants[name] = t
		s.order = append(s.order, name)
	}
	return t
}

// refusalLocked is the admission decision for need more points from
// tenant, changing nothing: drain gate, breaker gate, queue bounds,
// quota. A tenant never seen holds nothing. Caller holds s.mu.
func (s *Server) refusalLocked(tenant string, need int64, now time.Time) (reason string, err error) {
	if s.draining || s.closed {
		return "draining", fmt.Errorf("%w: tenant %s", ErrDraining, tenant)
	}
	if s.global.isOpen(now) {
		return "breaker", fmt.Errorf("%w: pipeline (global)", ErrBreakerOpen)
	}
	var held int64
	if t := s.tenants[tenant]; t != nil {
		if t.breaker.isOpen(now) {
			return "breaker", fmt.Errorf("%w: tenant %s", ErrBreakerOpen, tenant)
		}
		if len(t.queue) >= s.cfg.QueuePerTenant {
			return "queue_full", fmt.Errorf("%w: tenant %s at %d queued jobs",
				ErrQueueFull, tenant, len(t.queue))
		}
		held = t.tokens
	}
	if s.queued >= s.cfg.QueueTotal {
		return "queue_full", fmt.Errorf("%w: server at %d queued jobs", ErrQueueFull, s.queued)
	}
	if s.cfg.TenantQuota > 0 && held+need > s.cfg.TenantQuota {
		return "quota", fmt.Errorf("%w: tenant %s holds %d of %d points, job needs %d",
			ErrQuotaExceeded, tenant, held, s.cfg.TenantQuota, need)
	}
	return "", nil
}

// admitLocked admits one submission or refuses it: on success the
// tenant's quota tokens are charged. Caller holds s.mu.
func (s *Server) admitLocked(tenant string, need int64) error {
	now := time.Now()
	t := s.tenantLocked(tenant)
	s.global.closeIfCooled(now)
	t.breaker.closeIfCooled(now)
	if reason, err := s.refusalLocked(tenant, need, now); err != nil {
		s.refusedLocked(tenant, reason)
		return err
	}
	t.tokens += need
	return nil
}

// refusedLocked books one refused submission. Caller holds s.mu.
func (s *Server) refusedLocked(tenant, reason string) {
	s.hub.Counter("server_jobs_rejected_total", "tenant", tenant, "reason", reason).Inc()
	s.hub.Event(nil, "server.rejected", telemetry.String("tenant", tenant),
		telemetry.String("reason", reason))
}

// precheck is admission run early, on what the HTTP edge knows before it
// has paid for the points: it refuses (and books) what Submit would
// refuse for the same tenant and point count, and otherwise changes
// nothing — Submit's own admission stays the authority.
func (s *Server) precheck(tenant string, need int64) error {
	if tenant == "" {
		tenant = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	reason, err := s.refusalLocked(tenant, need, time.Now())
	if err != nil {
		s.hub.Counter("server_jobs_submitted_total", "tenant", tenant).Inc()
		s.refusedLocked(tenant, reason)
	}
	return err
}

// enqueueLocked appends the job to its tenant's queue. Caller holds
// s.mu and has already charged the quota tokens.
func (s *Server) enqueueLocked(job *Job) {
	t := s.tenantLocked(job.tenant)
	t.queue = append(t.queue, job)
	s.jobs[job.id] = job
	s.queued++
	s.setQueueGauges(t)
}

// dequeueLocked pops the next job fairly: round-robin across tenants in
// first-seen order, FIFO within a tenant, so one tenant's burst cannot
// starve the others. Returns nil when every queue is empty. Caller
// holds s.mu.
func (s *Server) dequeueLocked() *Job {
	n := len(s.order)
	for i := 0; i < n; i++ {
		t := s.tenants[s.order[(s.rr+i)%n]]
		if len(t.queue) == 0 {
			continue
		}
		job := t.queue[0]
		t.queue = t.queue[1:]
		s.rr = (s.rr + i + 1) % n
		s.queued--
		s.setQueueGauges(t)
		return job
	}
	return nil
}

// releaseTokensLocked returns a job's quota tokens when it leaves the
// system (completed, failed, or suspended). Caller holds s.mu.
func (s *Server) releaseTokensLocked(job *Job) {
	t := s.tenantLocked(job.tenant)
	t.tokens -= int64(len(job.spec.Points))
	if t.tokens < 0 {
		t.tokens = 0
	}
	s.hub.Gauge("server_tenant_tokens", "tenant", t.name).Set(t.tokens)
}

// setQueueGauges refreshes the per-tenant and total queue-depth gauges.
// Caller holds s.mu.
func (s *Server) setQueueGauges(t *tenantState) {
	s.hub.Gauge("server_queue_depth", "tenant", t.name).Set(int64(len(t.queue)))
	s.hub.Gauge("server_queue_depth_total").Set(int64(s.queued))
	s.hub.Gauge("server_tenant_tokens", "tenant", t.name).Set(t.tokens)
}
