package server

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/mrscan"
	"repro/internal/quality"
)

// testPoints is a small Twitter-like workload shared by the serving
// tests; eps/minPts match the chaos harness's standard configuration.
func testPoints(n int, seed int64) []geom.Point {
	return dataset.Twitter(n, seed)
}

func testSpec(tenant string, pts []geom.Point) JobSpec {
	return JobSpec{Tenant: tenant, Points: pts, Eps: 0.1, MinPts: 20, Leaves: 2}
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status(%s): %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// referenceLabels is the fault-free full-quality pipeline run the
// served results are scored against.
func referenceLabels(t *testing.T, pts []geom.Point, spec JobSpec) []int {
	t.Helper()
	cfg := mrscan.Default(spec.Eps, spec.MinPts, spec.Leaves)
	cfg.IncludeNoise = true
	_, labels, err := mrscan.RunPoints(pts, cfg)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return labels
}

func TestSubmitCompletes(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pts := testPoints(2000, 1)
	id, err := s.Submit(testSpec("acme", pts))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, s, id)
	if st.State != StateCompleted {
		t.Fatalf("state = %s (err %q), want completed", st.State, st.Err)
	}
	labels, err := s.Result(id)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if len(labels) != len(pts) {
		t.Fatalf("got %d labels for %d points", len(labels), len(pts))
	}
	q, err := quality.Score(referenceLabels(t, pts, testSpec("acme", pts)), labels)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.995 {
		t.Fatalf("full-quality served job scored %.4f, want >= 0.995", q)
	}
	if got := s.Hub().Counter("server_jobs_completed_total", "tenant", "acme").Value(); got != 1 {
		t.Fatalf("server_jobs_completed_total{tenant=acme} = %d, want 1", got)
	}
}

func TestTypedRejections(t *testing.T) {
	// One worker, one queue slot per tenant: a slow in-flight job plus
	// one queued job saturates tenant capacity.
	s, err := New(Config{
		Workers:        1,
		QueuePerTenant: 1,
		QueueTotal:     4,
		TenantQuota:    10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pts := testPoints(1500, 2)
	slow := testSpec("acme", pts)
	slow.FaultPlan = faultinject.New(1).Arm(mrscan.PhaseSite(mrscan.PhaseCluster),
		faultinject.Rule{Times: 1, Delay: 400 * time.Millisecond})
	first, err := s.Submit(slow)
	if err != nil {
		t.Fatalf("Submit slow job: %v", err)
	}
	// Wait until the slow job is dispatched so the next submission is
	// the one that queues.
	for {
		if st, _ := s.Status(first); st.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(testSpec("acme", pts))
	if err != nil {
		t.Fatalf("Submit queued job: %v", err)
	}

	if _, err := s.Submit(testSpec("acme", pts)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue submit: err = %v, want ErrQueueFull", err)
	}
	if _, err := s.Submit(testSpec("other", testPoints(10_001, 3))); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: err = %v, want ErrQuotaExceeded", err)
	}
	if got := s.Hub().Counter("server_jobs_rejected_total", "tenant", "acme", "reason", "queue_full").Value(); got != 1 {
		t.Fatalf("rejected{queue_full} = %d, want 1", got)
	}
	if got := s.Hub().Counter("server_jobs_rejected_total", "tenant", "other", "reason", "quota").Value(); got != 1 {
		t.Fatalf("rejected{quota} = %d, want 1", got)
	}

	waitTerminal(t, s, first)
	waitTerminal(t, s, queued)
	s.Drain()
	if _, err := s.Submit(testSpec("acme", pts)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
}

func TestCircuitBreaker(t *testing.T) {
	s, err := New(Config{
		Workers:          1,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		Retry:            mrscan.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pts := testPoints(1000, 4)
	// Two consecutive loud failures (permanent fault, no retries, no
	// state dir to resume from) trip the tenant breaker.
	for i := 0; i < 2; i++ {
		spec := testSpec("flaky", pts)
		spec.FaultPlan = faultinject.New(int64(i+1)).Arm(
			mrscan.PhaseSite(mrscan.PhaseCluster), faultinject.Rule{})
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit failing job %d: %v", i, err)
		}
		st := waitTerminal(t, s, id)
		if st.State != StateFailed {
			t.Fatalf("job %d state = %s, want failed", i, st.State)
		}
		if st.Err == "" {
			t.Fatalf("failed job %d has no error — a silent failure", i)
		}
	}
	if _, err := s.Submit(testSpec("flaky", pts)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit with open breaker: err = %v, want ErrBreakerOpen", err)
	}
	// Other tenants are unaffected by one tenant's breaker.
	id, err := s.Submit(testSpec("healthy", pts))
	if err != nil {
		t.Fatalf("healthy tenant submit with flaky breaker open: %v", err)
	}
	if st := waitTerminal(t, s, id); st.State != StateCompleted {
		t.Fatalf("healthy tenant job state = %s (err %q)", st.State, st.Err)
	}
	// After the cooldown the breaker closes and the tenant serves again.
	time.Sleep(120 * time.Millisecond)
	id, err = s.Submit(testSpec("flaky", pts))
	if err != nil {
		t.Fatalf("submit after breaker cooldown: %v", err)
	}
	if st := waitTerminal(t, s, id); st.State != StateCompleted {
		t.Fatalf("post-cooldown job state = %s (err %q)", st.State, st.Err)
	}
}

// TestOverloadKeepsFullQuality: overload sheds load at the door and
// never changes an admitted job's answer. One worker is held by a slow
// job, after another has completed, while the queue fills to its bound
// (past the three-quarter mark that used to switch admissions to a
// subsampled run). Every job completes with all its labels at full
// quality, and every result reply says so.
func TestOverloadKeepsFullQuality(t *testing.T) {
	s := mustServer(t, Config{Workers: 1, QueueTotal: 4})
	pts := testPoints(4000, 11)
	spec := testSpec("acme", pts)
	warm, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, warm); st.State != StateCompleted {
		t.Fatalf("warmup job state = %s (err %q)", st.State, st.Err)
	}

	slow := spec
	slow.FaultPlan = faultinject.New(5).Arm(mrscan.PhaseSite(mrscan.PhasePartition),
		faultinject.Rule{Times: 1, Delay: time.Second})
	slowID, err := s.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if st, _ := s.Status(slowID); st.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ids := []string{warm, slowID}
	for i := 0; i < 4; i++ {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("queueing job %d behind the slow one: %v", i, err)
		}
		ids = append(ids, id)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past the queue bound: err = %v, want ErrQueueFull", err)
	}

	ref := referenceLabels(t, pts, spec)
	h := s.Handler()
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateCompleted {
			t.Fatalf("job %s state = %s (err %q)", id, st.State, st.Err)
		}
		got, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("job %s returned %d labels for %d points", id, len(got), len(pts))
		}
		q, err := quality.Score(ref, got)
		if err != nil {
			t.Fatal(err)
		}
		if q < 0.995 {
			t.Fatalf("job %s quality %.4f under overload, want >= 0.995", id, q)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/jobs/"+id+"/result", nil))
		if !strings.Contains(rec.Body.String(), `"degraded":false,"sample_rate":0,`) {
			t.Fatalf("job %s result reply does not report full quality: %.120s", id, rec.Body)
		}
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// One worker and three tenants each queueing several jobs: every
	// tenant's work completes — a burst from one cannot starve another.
	s, err := New(Config{Workers: 1, QueuePerTenant: 8, QueueTotal: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pts := testPoints(800, 5)
	var ids []string
	for _, tenant := range []string{"a", "a", "a", "b", "c", "b"} {
		id, err := s.Submit(testSpec(tenant, pts))
		if err != nil {
			t.Fatalf("Submit(%s): %v", tenant, err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateCompleted {
			t.Fatalf("job %s state = %s (err %q)", id, st.State, st.Err)
		}
	}
	for _, tenant := range []string{"a", "b", "c"} {
		want := int64(1)
		if tenant == "a" {
			want = 3
		} else if tenant == "b" {
			want = 2
		}
		if got := s.Hub().Counter("server_jobs_completed_total", "tenant", tenant).Value(); got != want {
			t.Fatalf("completed{%s} = %d, want %d", tenant, got, want)
		}
	}
}

func TestFatalFaultResumesInPlace(t *testing.T) {
	// A fatal fault models the job's worker process dying mid-run. With
	// a state directory the job's checkpoints are durable, so the server
	// requeues it once with Resume — and the restored phases show up on
	// the status.
	s, err := New(Config{Workers: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pts := testPoints(2000, 6)
	spec := testSpec("acme", pts)
	spec.FaultPlan = faultinject.New(7).Arm(mrscan.PhaseSite(mrscan.PhaseMerge),
		faultinject.Rule{Times: 1, Fatal: true})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	if st.State != StateCompleted {
		t.Fatalf("state = %s (err %q), want completed after in-place resume", st.State, st.Err)
	}
	if !st.Resumed {
		t.Fatalf("job survived a fatal fault but is not marked resumed")
	}
	if len(st.RestoredPhases) == 0 {
		t.Fatalf("resumed job restored no phases — it recomputed instead of resuming")
	}
	labels, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quality.Score(referenceLabels(t, pts, spec), labels)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.995 {
		t.Fatalf("resumed job scored %.4f against fault-free reference, want >= 0.995", q)
	}
	if got := s.Hub().Counter("server_jobs_resumed_total", "tenant", "acme").Value(); got != 1 {
		t.Fatalf("server_jobs_resumed_total = %d, want 1", got)
	}
}
