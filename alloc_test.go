package mrscan

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// TestRunPointsBytesPerPoint is the batch data path's allocation guard,
// and it needs no clock: bytes allocated by one RunPoints, per input
// point. Every file on the path (input, partition, output) and every
// point slab comes from bufpool and goes back when the run ends, so a
// run after the warm-up allocates none of them — DESIGN.md "Batch data
// path" has the hop table — the partitioner leaves' rank scratch comes
// from bufpool too, and host scratch is held per cluster worker, not per
// leaf, which is what the budgets below hold the pipeline to. Workers
// follow the core count, so the test runs at GOMAXPROCS 2. The budgets
// sit about 10 % over the measured 135 and 110 B/point; with fresh rank
// scratch and input-writer buffers per run the pipeline read 152 and
// 128, with every file and slab allocated afresh per run 303 and 280,
// with host scratch per leaf 513 and 437, and with files and slabs copied
// twice 867 and 764, so any of them creeping back in fails here.
// The 64-leaf row must stay within 1.1× of the 16-leaf one: allocation
// may not grow with the leaf count.
func TestRunPointsBytesPerPoint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	sdss := dataset.SDSS(50_000, 1)
	perPoint := map[string]uint64{}
	for _, c := range []struct {
		name   string
		pts    []Point
		cfg    Config
		budget uint64 // bytes per input point
	}{
		{"sdss50k_16", sdss, Default(0.00015, 5, 16), 149},
		{"sdss50k_64", sdss, Default(0.00015, 5, 64), 0},
		{"twitter30k_8", dataset.Twitter(30_000, 1), Default(0.1, 40, 8), 121},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.budget == 0 {
				c.budget = perPoint["sdss50k_16"] * 11 / 10
			}
			perPoint[c.name] = allocatedPerRun(t, c.pts, c.cfg) / uint64(len(c.pts))
			t.Logf("%d bytes allocated per input point (budget %d)", perPoint[c.name], c.budget)
			if perPoint[c.name] > c.budget {
				t.Errorf("RunPoints allocated %d bytes per input point, budget %d", perPoint[c.name], c.budget)
			}
		})
	}
}

// allocatedPerRun returns the bytes one RunPoints allocates, averaged over
// three runs after a warm-up that builds lazily built tables.
func allocatedPerRun(t *testing.T, pts []Point, cfg Config) uint64 {
	t.Helper()
	if _, _, err := RunPoints(pts, cfg); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := RunPoints(pts, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestCheckpointOverheadBytes guards what durability costs on
// BenchmarkCheckpointOverhead's shape (Twitter 50 k, 4 leaves) without a
// clock: with every phase snapshotted, a run allocates at most 10 bytes
// per input point more than one without (it measures 0: each snapshot is
// encoded into a bufpool buffer that goes back once it is written). The
// budget is a difference, not a ratio to the run without snapshots, so
// making that run cheaper does not shrink the allowance. A fresh buffer
// per snapshot cost 44 bytes per point; gob snapshots cost 1.63× a run
// without them.
func TestCheckpointOverheadBytes(t *testing.T) {
	pts := dataset.Twitter(4*12_500, 1)
	var allocated [2]uint64
	for i, ckpt := range []bool{false, true} {
		cfg := Default(0.1, 40, 4)
		cfg.Checkpoint = ckpt
		allocated[i] = allocatedPerRun(t, pts, cfg)
	}
	overhead := (int64(allocated[1]) - int64(allocated[0])) / int64(len(pts))
	t.Logf("checkpoint on: %.1f MB per run, off: %.1f MB (+%d bytes per input point)", float64(allocated[1])/1e6, float64(allocated[0])/1e6, overhead)
	if overhead > 10 {
		t.Errorf("checkpointing allocates %d bytes per input point more than a run without it, budget 10", overhead)
	}
}
