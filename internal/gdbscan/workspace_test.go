package gdbscan

import (
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/geom"
)

// TestWorkspaceReuseMatchesFresh runs a sequence of differently-shaped
// partitions through one shared Workspace on one device — the cluster
// phase's per-leaf loop — and checks every result against the reference.
// Stale state leaking between calls (labels, dense boxes, per-block
// queues, collision filters, recycled device buffers) would corrupt the
// later partitions.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	params := geom.Params{Eps: 0.1, MinPts: 4}
	dev := testDevice()
	var ws Workspace
	// Shrinking then growing sizes exercise both reuse (capacity fits)
	// and regrowth of every workspace array and pooled buffer.
	for i, n := range []int{1200, 400, 2000, 50, 1} {
		pts := mixedDataset(int64(20+i), n)
		res, err := Cluster(dev, pts, Options{
			Params:    params,
			DenseBox:  true,
			Workspace: &ws,
		})
		if err != nil {
			t.Fatalf("partition %d (n=%d): %v", i, n, err)
		}
		validate(t, pts, params, res)
	}
	st := dev.Stats()
	if st.PoolHits == 0 {
		t.Error("no pool hits across repeated partitions; buffer reuse is not engaging")
	}
	// After the first partition leases and releases its two buffers,
	// every subsequent partition that fits should recycle both.
	if st.PoolMisses > 4 {
		t.Errorf("PoolMisses = %d; regrowth shapes should miss at most 4 times", st.PoolMisses)
	}
}

// TestWorkspaceReuseCUDADClustMode covers the baseline mode's per-round
// state against workspace reuse (its seeds array is the largest reused
// allocation).
func TestWorkspaceReuseCUDADClustMode(t *testing.T) {
	params := geom.Params{Eps: 0.1, MinPts: 4}
	dev := testDevice()
	var ws Workspace
	for i, n := range []int{900, 300, 1100} {
		pts := mixedDataset(int64(30+i), n)
		res, err := Cluster(dev, pts, Options{
			Params:    params,
			Mode:      ModeCUDADClust,
			Blocks:    16,
			Workspace: &ws,
		})
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
		validate(t, pts, params, res)
		if got := len(res.Stats.RoundTransferBytes); got != res.Stats.SeedRounds {
			t.Errorf("partition %d: %d round records for %d rounds", i, got, res.Stats.SeedRounds)
		}
	}
}

// TestLaunchFaultOnReusedWorkspace: a cell-bounds launch that fails
// leaves a reused Workspace holding the previous partition's neighbour
// lists. Cluster must return the launch's error, not read those lists
// (which indexed out of range).
func TestLaunchFaultOnReusedWorkspace(t *testing.T) {
	params := geom.Params{Eps: 0.1, MinPts: 40}
	var ws Workspace
	if _, err := Cluster(testDevice(), dataset.Twitter(20000, 1), Options{Params: params, DenseBox: true, Workspace: &ws}); err != nil {
		t.Fatal(err)
	}
	dev := testDevice()
	dev.SetFaultPlan(faultinject.New(1).Arm(faultinject.GPULaunch, faultinject.Rule{Times: 1}))
	_, err := Cluster(dev, dataset.Twitter(1500, 2), Options{Params: params, DenseBox: true, Workspace: &ws})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Cluster = %v, want the injected launch fault", err)
	}
}
