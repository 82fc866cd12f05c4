package distrib

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/quality"
)

// startWorkers launches n protocol workers as goroutines dialing the
// coordinator over real TCP (the protocol is identical whether the other
// end is a goroutine or a separate process; TestMain exercises the
// process case). One WorkerOptions value may be passed for all of them.
func startWorkers(t *testing.T, c *Coordinator, n int, opt ...WorkerOptions) *sync.WaitGroup {
	t.Helper()
	opt = append(opt, WorkerOptions{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := WorkerWithOptions(c.Addr(), 1000+i, opt[0]); err != nil && !IsConnClosed(err) {
				t.Errorf("worker %d: %v", i, err)
			}
		}(i)
	}
	if err := c.AcceptWorkers(n, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return &wg
}

func TestDistributedMatchesReference(t *testing.T) {
	pts := dataset.Twitter(10000, 1)
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 40})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, c, 3)
	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 40, Leaves: 8, DenseBox: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()
	if res.NumClusters != ref.NumClusters {
		t.Errorf("NumClusters = %d, want %d", res.NumClusters, ref.NumClusters)
	}
	score, err := quality.Score(ref.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.995 {
		t.Errorf("quality = %.4f, want >= 0.995", score)
	}
}

func TestDistributedMoreLeavesThanWorkers(t *testing.T) {
	pts := dataset.Twitter(6000, 2)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, c, 2)
	// 11 partitions over 2 workers: each worker serves several leaves
	// sequentially over its single connection.
	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 10, Leaves: 11, DenseBox: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	score, err := quality.Score(ref.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.995 {
		t.Errorf("quality = %.4f", score)
	}
}

func TestDispatchWithoutWorkers(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.Dispatch([]WorkRequest{{}}); err == nil {
		t.Error("dispatch with no workers must fail")
	}
	if _, err := c.Run(nil, Options{Eps: 0.1, MinPts: 4, Leaves: 0}); err == nil {
		t.Error("zero leaves must fail")
	}
}

func TestWorkerErrorPropagates(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, c, 1)
	// Invalid parameters surface from the worker as a response error.
	reqs := []WorkRequest{{Leaf: 0, Eps: -1, MinPts: 4}}
	_, err = c.Dispatch(reqs)
	if err == nil || !strings.Contains(err.Error(), "Eps") {
		t.Errorf("err = %v, want worker-side Eps validation error", err)
	}
	c.Shutdown()
	wg.Wait()
}

// TestMain doubles as the worker-process entry point: when the test
// binary is re-executed with MRSCAN_DISTRIB_WORKER set, it runs the
// worker loop instead of the tests — letting TestRealProcessWorkers spawn
// genuine OS processes without a separate binary.
func TestMain(m *testing.M) {
	if addr := os.Getenv("MRSCAN_DISTRIB_WORKER"); addr != "" {
		if err := Worker(addr, os.Getpid()); err != nil && !IsConnClosed(err) {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDispatchLargestFirst: with a single worker, the dispatch must hand
// out partitions in descending size order — the dispatch ends when its
// slowest partition finishes, so the biggest cannot be the last queued.
func TestDispatchLargestFirst(t *testing.T) {
	pts := dataset.Twitter(200, 3)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, c, 1)
	// Sizes 1, 3, 2 points (plus a common tail so every request is valid).
	reqs := []WorkRequest{
		{Leaf: 0, Eps: 0.1, MinPts: 4, Owned: pts[:1]},
		{Leaf: 1, Eps: 0.1, MinPts: 4, Owned: pts[:3]},
		{Leaf: 2, Eps: 0.1, MinPts: 4, Owned: pts[:2]},
	}
	resps, err := c.Dispatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()
	for i, r := range resps {
		if r == nil || r.Leaf != reqs[i].Leaf {
			t.Fatalf("responses not indexed by request position: %+v", resps)
		}
	}
	st := c.Stats()
	want := []int{1, 2, 0} // descending by size: 3, 2, 1 points
	if len(st.ServeOrder) != len(want) {
		t.Fatalf("ServeOrder = %v, want %v", st.ServeOrder, want)
	}
	for i := range want {
		if st.ServeOrder[i] != want[i] {
			t.Fatalf("ServeOrder = %v, want %v (largest partition first)", st.ServeOrder, want)
		}
	}
}
