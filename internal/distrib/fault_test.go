package distrib

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/geom"
)

// runOnce clusters pts on n workers with the given fault plan and
// returns the labels, so fault-free and faulty runs can be compared
// exactly.
func runOnce(t *testing.T, pts []geom.Point, n int, plan *faultinject.Plan, opt ...WorkerOptions) ([]int, Stats) {
	t.Helper()
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.RequestTimeout = 30 * time.Second
	c.SetFaultPlan(plan)
	wg := startWorkers(t, c, n, opt...)
	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 10, Leaves: 9, DenseBox: true})
	if err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	c.Shutdown()
	wg.Wait()
	return res.Labels, stats
}

// TestWorkerDeathMidDispatchReassigns severs one worker's connection
// after its first successful response. The dispatch must re-queue that
// worker's outstanding partitions to the survivors and produce labels
// identical to a fault-free run.
func TestWorkerDeathMidDispatchReassigns(t *testing.T) {
	pts := dataset.Twitter(4000, 5)
	want, cleanStats := runOnce(t, pts, 3, nil)
	if cleanStats.WorkersLost != 0 || cleanStats.Reassigned != 0 {
		t.Fatalf("fault-free run reported failures: %+v", cleanStats)
	}

	plan := faultinject.New(0).
		Arm(WorkerFaultSite(1), faultinject.Rule{After: 1})
	// The fault fires on worker 1's second partition, so it must get two
	// of the nine: a few ms per exchange keeps three workers in step
	// however the scheduler staggers their start.
	got, stats := runOnce(t, pts, 3, plan, WorkerOptions{Delay: 3 * time.Millisecond})
	if stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", stats.WorkersLost)
	}
	if stats.Reassigned < 1 {
		t.Errorf("Reassigned = %d, want >= 1", stats.Reassigned)
	}
	if len(got) != len(want) {
		t.Fatalf("label count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d: recovery changed the clustering", i, got[i], want[i])
		}
	}
}

// TestDispatchAllWorkersDie arms a permanent connection fault on the
// only worker: the dispatch must fail promptly with a wrapped error, not
// hang or panic.
func TestDispatchAllWorkersDie(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.DistribConn, faultinject.Rule{}))
	wg := startWorkers(t, c, 1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Dispatch([]WorkRequest{
			{Leaf: 0, Eps: 0.1, MinPts: 4},
			{Leaf: 1, Eps: 0.1, MinPts: 4},
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("dispatch with all workers dead must fail")
		}
		if !strings.Contains(err.Error(), "no surviving workers") {
			t.Errorf("err = %v, want 'no surviving workers'", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("dispatch hung after losing every worker")
	}
	c.Shutdown()
	wg.Wait()
}

// TestPartitionExhaustsRetries: with retry budget 1 a single connection
// fault must surface instead of being retried forever.
func TestPartitionExhaustsRetries(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.Retry = RetryPolicy{MaxAttempts: 1}
	c.SetFaultPlan(faultinject.New(0).
		Arm(WorkerFaultSite(0), faultinject.Rule{Times: 1}))
	wg := startWorkers(t, c, 1)
	_, err = c.Dispatch([]WorkRequest{{Leaf: 0, Eps: 0.1, MinPts: 4}})
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Errorf("err = %v, want retry exhaustion", err)
	}
	c.Shutdown()
	wg.Wait()
}

func TestAcceptWorkersTimeout(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	start := time.Now()
	err = c.AcceptWorkers(1, 100*time.Millisecond)
	if err == nil {
		t.Fatal("AcceptWorkers with no workers must time out")
	}
	if !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("AcceptWorkers took %v, want ~100ms", elapsed)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, c, 2)
	c.Shutdown()
	c.Shutdown() // second call must be a no-op, not a double close
	wg.Wait()
}

// TestHeartbeatEvictsDeadWorker kills one of two workers via an injected
// connection fault during the ping round; the survivor must still serve
// a dispatch.
func TestHeartbeatEvictsDeadWorker(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultPlan(faultinject.New(0).
		Arm(WorkerFaultSite(0), faultinject.Rule{Times: 1}))
	wg := startWorkers(t, c, 2)
	if got := c.Heartbeat(5 * time.Second); got != 1 {
		t.Fatalf("Heartbeat survivors = %d, want 1", got)
	}
	if got := c.Stats().WorkersLost; got != 1 {
		t.Errorf("WorkersLost = %d, want 1", got)
	}
	pts := dataset.Twitter(500, 7)
	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 5, Leaves: 2, DenseBox: true})
	if err != nil {
		t.Fatalf("dispatch after heartbeat eviction: %v", err)
	}
	if len(res.Labels) != len(pts) {
		t.Errorf("labels = %d, want %d", len(res.Labels), len(pts))
	}
	c.Shutdown()
	wg.Wait()
}
