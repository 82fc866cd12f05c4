package distrib

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/health"
	"repro/internal/telemetry"
)

// smallReqs slices pts into n modest work requests.
func smallReqs(pts []geom.Point, n int) []WorkRequest {
	reqs := make([]WorkRequest, n)
	per := len(pts) / n
	for i := range reqs {
		lo, hi := i*per, (i+1)*per
		if i == n-1 {
			hi = len(pts)
		}
		reqs[i] = WorkRequest{Leaf: i, Eps: 0.1, MinPts: 4, DenseBox: true, Owned: pts[lo:hi]}
	}
	return reqs
}

// TestLimpingWorkerQuarantinedProbedReadmitted walks the whole
// state machine: a worker serving 15x slower than the fleet is
// quarantined on in-flight evidence, earns Probation through cheap
// probes once its limp clears, and is re-admitted by clean real work —
// with every dispatch still completing every partition and no healthy
// worker ever quarantined.
func TestLimpingWorkerQuarantinedProbedReadmitted(t *testing.T) {
	const (
		baseDelay = 20 * time.Millisecond
		limpDelay = 300 * time.Millisecond
	)
	pts := dataset.Twitter(2400, 9)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	tracker := health.New(health.Config{
		SuspectAfter: 2, QuarantineAfter: 1, RecoverAfter: 2, MinObservations: 2,
	})
	c.Health = tracker
	c.ProbeInterval = 2 * time.Millisecond
	var trMu sync.Mutex
	var transitions []health.Transition
	tracker.OnTransition(func(tr health.Transition) {
		trMu.Lock()
		transitions = append(transitions, tr)
		trMu.Unlock()
	})
	hub := telemetry.New(nil)
	c.SetTelemetry(hub)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = WorkerWithOptions(c.Addr(), 4000+i, WorkerOptions{Delay: baseDelay})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The limper's first (and only first) work request is 15x slow.
		_ = WorkerWithOptions(c.Addr(), 4999, WorkerOptions{Delay: limpDelay, LimpOps: 1})
	}()
	if err := c.AcceptWorkers(4, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	reqs := smallReqs(pts, 12)
	healthyAgain := false
	for round := 0; round < 6 && !healthyAgain; round++ {
		resps, err := c.Dispatch(reqs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, r := range resps {
			if r == nil {
				t.Fatalf("round %d: partition %d has no response", round, i)
			}
		}
		trMu.Lock()
		var sick string
		for _, tr := range transitions {
			if tr.To == health.Quarantined {
				sick = tr.Component
			}
		}
		if sick != "" && tracker.State(sick) == health.Healthy {
			healthyAgain = true
		}
		trMu.Unlock()
	}

	trMu.Lock()
	defer trMu.Unlock()
	sick := map[string]bool{}
	var sawProbation, sawReadmit bool
	for _, tr := range transitions {
		if tr.To == health.Quarantined {
			sick[tr.Component] = true
		}
		if tr.From == health.Quarantined && tr.To == health.Probation {
			sawProbation = true
		}
		if tr.From == health.Probation && tr.To == health.Healthy {
			sawReadmit = true
		}
	}
	if len(sick) != 1 {
		t.Fatalf("quarantined components = %v, want exactly the limper; transitions=%v", sick, transitions)
	}
	if !sawProbation || !sawReadmit {
		t.Fatalf("state machine incomplete: probation=%v readmit=%v transitions=%v",
			sawProbation, sawReadmit, transitions)
	}
	if !healthyAgain {
		t.Fatalf("limper never returned to Healthy; snapshot=%+v", tracker.Snapshot())
	}
	if hub.Counter("distrib_probes_total").Value() == 0 {
		t.Fatal("no probes recorded for the quarantined worker")
	}

	c.Shutdown()
	wg.Wait()
}

// TestDuplicateCompletionAckedOnce: when a hedge wins a partition, the
// original worker's late response must be discarded — OnResponse (the
// checkpoint/quota hook) fires exactly once per partition.
func TestDuplicateCompletionAckedOnce(t *testing.T) {
	const delay = 400 * time.Millisecond
	pts := dataset.Twitter(2400, 11)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.StragglerFactor = 2
	acks := make([]atomic.Int32, 6)
	c.OnResponse = func(i int, resp *WorkResponse) { acks[i].Add(1) }
	wg := startMixedWorkers(t, c, 2, delay)

	resps, err := c.Dispatch(smallReqs(pts, 6))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r == nil {
			t.Fatalf("partition %d has no response", i)
		}
	}
	if st := c.Stats(); st.HedgesWon < 1 {
		t.Fatalf("HedgesWon = %d, want >= 1 (test needs a losing original)", st.HedgesWon)
	}
	// Let the losing original finish its exchange and be discarded.
	time.Sleep(2 * delay)
	for i := range acks {
		if got := acks[i].Load(); got != 1 {
			t.Fatalf("partition %d acked %d times, want exactly 1", i, got)
		}
	}
	c.Shutdown()
	wg.Wait()
}

// TestRedispatchBudgetDenialFailsLoud: with the shared retry budget
// exhausted, a worker loss turns into a loud dispatch failure instead
// of a redispatch.
func TestRedispatchBudgetDenialFailsLoud(t *testing.T) {
	pts := dataset.Twitter(1200, 13)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.Budget = health.NewBudget(0, 0)
	c.SetFaultPlan(faultinject.New(2).Arm(WorkerFaultSite(0), faultinject.Rule{Times: 1}))
	wg := startWorkers(t, c, 2)

	_, err = c.Dispatch(smallReqs(pts, 4))
	if err == nil {
		t.Fatal("dispatch succeeded despite a lost worker and a zero retry budget")
	}
	if !errors.Is(err, health.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	c.Shutdown()
	wg.Wait()
}

// TestStatsCounterBackedWithCarryover: Stats reads from the telemetry
// counters, and counts accumulated before SetTelemetry carry over to
// the run hub — so Prometheus and the JSON report see the same numbers.
// One rule shared by both workers' sites kills exactly one of them,
// whichever the dispatcher sends work to first.
func TestStatsCounterBackedWithCarryover(t *testing.T) {
	pts := dataset.Twitter(1200, 17)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(faultinject.New(4).ArmShared(faultinject.Rule{Times: 1}, WorkerFaultSite(0), WorkerFaultSite(1)))
	wg := startWorkers(t, c, 2)
	if _, err := c.Dispatch(smallReqs(pts, 4)); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.WorkersLost != 1 || st.Reassigned < 1 {
		t.Fatalf("stats = %+v, want one lost worker and >= 1 reassignment", st)
	}

	hub := telemetry.New(nil)
	c.SetTelemetry(hub)
	if got := hub.Counter("distrib_workers_lost_total").Value(); got != int64(st.WorkersLost) {
		t.Fatalf("carryover: distrib_workers_lost_total = %d, stats say %d", got, st.WorkersLost)
	}
	if got := hub.Counter("distrib_retries_total").Value(); got != int64(st.Reassigned) {
		t.Fatalf("carryover: distrib_retries_total = %d, stats say %d", got, st.Reassigned)
	}
	c.Shutdown()
	wg.Wait()
}
