package distrib

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/quality"
	"repro/internal/telemetry"
)

// startMixedWorkers launches fast workers plus one deliberately slow
// straggler (delay per request), tolerating the connection teardown
// errors a cancelled dispatch produces.
func startMixedWorkers(t *testing.T, c *Coordinator, fast int, delay time.Duration) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < fast; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = Worker(c.Addr(), 2000+i)
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = WorkerWithOptions(c.Addr(), 2999, WorkerOptions{Delay: delay})
	}()
	if err := c.AcceptWorkers(fast+1, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	return &wg
}

// TestStragglerHedging: one worker serves every request with a large
// delay. Without hedging the dispatch would block on that worker's
// partition for the full delay; with hedging the partition is re-issued
// to an idle fast worker and the run finishes well under the delay.
func TestStragglerHedging(t *testing.T) {
	const delay = 2 * time.Second
	pts := dataset.Twitter(6000, 3)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.StragglerFactor = 3
	hub := telemetry.New(nil)
	c.SetTelemetry(hub)
	wg := startMixedWorkers(t, c, 3, delay)
	start := time.Now()
	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 10, Leaves: 12, DenseBox: true})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.HedgesLaunched < 1 || st.HedgesWon < 1 {
		t.Fatalf("hedges launched=%d won=%d, want >= 1 each", st.HedgesLaunched, st.HedgesWon)
	}
	// Every hedge decision must be visible in the trace and counters.
	if got := len(hub.Trace.FindEvents("distrib.hedge")); got != st.HedgesLaunched {
		t.Errorf("trace has %d distrib.hedge events, stats say %d launched", got, st.HedgesLaunched)
	}
	if got := len(hub.Trace.FindEvents("distrib.hedge_won")); got != st.HedgesWon {
		t.Errorf("trace has %d distrib.hedge_won events, stats say %d won", got, st.HedgesWon)
	}
	if got := hub.Counter("distrib_hedges_launched_total").Value(); got != int64(st.HedgesLaunched) {
		t.Errorf("distrib_hedges_launched_total = %d, stats say %d", got, st.HedgesLaunched)
	}
	if elapsed >= delay {
		t.Fatalf("dispatch took %v — hedging did not beat the %v straggler", elapsed, delay)
	}
	// The hedged run's output must still be correct (losers discarded).
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	score, err := quality.Score(ref.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.995 {
		t.Errorf("quality = %.4f, want >= 0.995", score)
	}
	c.Shutdown()
	wg.Wait()
}

// TestDispatchContextCancel: a deadline shorter than the workers'
// service time aborts the dispatch promptly with a wrapped context
// error — blocked exchanges are unblocked by severing the connections.
func TestDispatchContextCancel(t *testing.T) {
	const delay = 2 * time.Second
	pts := dataset.Twitter(2000, 4)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	// Both workers are slow: every in-flight exchange must be unblocked.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = WorkerWithOptions(c.Addr(), 3000+i, WorkerOptions{Delay: delay})
		}(i)
	}
	if err := c.AcceptWorkers(2, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	reqs := make([]WorkRequest, 4)
	for i := range reqs {
		reqs[i] = WorkRequest{Leaf: i, Eps: 0.1, MinPts: 10, Owned: pts, DenseBox: true}
	}
	start := time.Now()
	_, err = c.DispatchContext(ctx, reqs)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if elapsed >= delay {
		t.Fatalf("cancelled dispatch took %v, want well under the %v service time", elapsed, delay)
	}
	wg.Wait() // severed connections must also release the workers
}

// TestRunCheckpointResume: a run with a checkpoint store snapshots every
// partition; a second coordinator over the same store restores them all
// (or all but a corrupted one) and produces identical labels.
func TestRunCheckpointResume(t *testing.T) {
	pts := dataset.Twitter(6000, 5)
	opt := Options{Eps: 0.1, MinPts: 10, Leaves: 8, DenseBox: true}
	bk, err := checkpoint.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	run := func(store *checkpoint.Store) *Result {
		t.Helper()
		c, err := NewCoordinator()
		if err != nil {
			t.Fatal(err)
		}
		wg := startWorkers(t, c, 2)
		o := opt
		o.Checkpoint = store
		res, err := c.Run(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		return res
	}

	res1 := run(checkpoint.NewStore(bk, "dist-run"))
	if res1.RestoredPartitions != 0 {
		t.Fatalf("first run restored %d partitions, want 0", res1.RestoredPartitions)
	}
	// Same store, new coordinator (a restarted process): everything
	// restores, nothing is dispatched.
	res2 := run(checkpoint.NewStore(bk, "dist-run"))
	if res2.RestoredPartitions != opt.Leaves {
		t.Fatalf("second run restored %d partitions, want %d", res2.RestoredPartitions, opt.Leaves)
	}
	for i := range res1.Labels {
		if res1.Labels[i] != res2.Labels[i] {
			t.Fatalf("label %d differs after restore: %d vs %d", i, res1.Labels[i], res2.Labels[i])
		}
	}

	// Corrupt one snapshot: only that partition re-dispatches.
	store := checkpoint.NewStore(bk, "dist-run")
	var resp WorkResponse
	if err := store.Load(clusterSnapshot(3), &resp); err != nil {
		t.Fatal(err)
	}
	resp.Leaf = 999 // wrong contents under the right name
	if err := store.Save(clusterSnapshot(3), &resp); err != nil {
		t.Fatal(err)
	}
	res3 := run(checkpoint.NewStore(bk, "dist-run"))
	if res3.RestoredPartitions != opt.Leaves-1 {
		t.Fatalf("third run restored %d partitions, want %d", res3.RestoredPartitions, opt.Leaves-1)
	}
	for i := range res1.Labels {
		if res1.Labels[i] != res3.Labels[i] {
			t.Fatalf("label %d differs after partial restore", i)
		}
	}
}

// TestRunCheckpointResumeTruncatedSnapshot: a snapshot file cut short
// on disk (a coordinator killed mid-write, a filesystem that lost the
// tail) must not poison the resume — verification rejects the torn
// envelope, exactly that partition re-dispatches, and the labels come
// out identical.
func TestRunCheckpointResumeTruncatedSnapshot(t *testing.T) {
	pts := dataset.Twitter(6000, 7)
	opt := Options{Eps: 0.1, MinPts: 10, Leaves: 6, DenseBox: true}
	dir := t.TempDir()
	bk, err := checkpoint.DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}

	run := func() *Result {
		t.Helper()
		c, err := NewCoordinator()
		if err != nil {
			t.Fatal(err)
		}
		wg := startWorkers(t, c, 2)
		o := opt
		o.Checkpoint = checkpoint.NewStore(bk, "trunc-run")
		res, err := c.Run(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		return res
	}

	res1 := run()

	// Tear the tail off one snapshot, as a crash mid-write would.
	snap := filepath.Join(dir, "ckpt-"+clusterSnapshot(2)+".ckpt")
	fi, err := os.Stat(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snap, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewStore(bk, "trunc-run")
	var resp WorkResponse
	if err := store.Load(clusterSnapshot(2), &resp); err == nil {
		t.Fatal("Load accepted a truncated snapshot")
	}

	res2 := run()
	if res2.RestoredPartitions != opt.Leaves-1 {
		t.Fatalf("resume restored %d partitions, want %d (truncated one re-dispatched)",
			res2.RestoredPartitions, opt.Leaves-1)
	}
	for i := range res1.Labels {
		if res1.Labels[i] != res2.Labels[i] {
			t.Fatalf("label %d differs after truncated-snapshot resume: %d vs %d",
				i, res1.Labels[i], res2.Labels[i])
		}
	}
}
