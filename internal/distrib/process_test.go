package distrib

import (
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/quality"
)

// TestRealProcessWorkers runs the cluster phase in genuine separate OS
// processes: the test binary re-executes itself in worker mode (see
// TestMain) and dials back over TCP, so partitions, summaries and labels
// cross a real process boundary.
func TestRealProcessWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning test skipped in -short mode")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot locate test binary: %v", err)
	}
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	procs := make([]*exec.Cmd, workers)
	for i := range procs {
		cmd := exec.Command(exe, "-test.run=^$")
		cmd.Env = append(os.Environ(), "MRSCAN_DISTRIB_WORKER="+c.Addr())
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawning worker %d: %v", i, err)
		}
		procs[i] = cmd
	}
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				_ = p.Process.Kill()
				_ = p.Wait()
			}
		}
	}()
	if err := c.AcceptWorkers(workers, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	pts := dataset.Twitter(8000, 3)
	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 40, Leaves: 6, DenseBox: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != ref.NumClusters {
		t.Errorf("NumClusters = %d, want %d", res.NumClusters, ref.NumClusters)
	}
	score, err := quality.Score(ref.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.995 {
		t.Errorf("cross-process quality = %.4f, want >= 0.995", score)
	}
	// The workers were real processes with their own PIDs.
	for _, p := range procs {
		if p.Process.Pid == os.Getpid() {
			t.Error("worker shares the test process PID — not a separate process")
		}
	}
}
