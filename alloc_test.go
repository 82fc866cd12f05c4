package mrscan

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// TestRunPointsBytesPerPoint is the batch data path's allocation guard,
// and it needs no clock: bytes allocated by one RunPoints, per input
// point. Every file on the path (input, partition, output) and every
// point slab is allocated once — DESIGN.md "Batch data path" has the hop
// table — which is what the budgets below hold the pipeline to. They sit
// about 10 % over what PR 22 measured (519 and 436 B/point); the revision
// before it read 867 and 764, so a second copy of any file or slab
// creeping back in fails here.
func TestRunPointsBytesPerPoint(t *testing.T) {
	for _, c := range []struct {
		name   string
		pts    []Point
		cfg    Config
		budget uint64 // bytes per input point
	}{
		{"sdss50k_16", dataset.SDSS(50_000, 1), Default(0.00015, 5, 16), 570},
		{"twitter30k_8", dataset.Twitter(30_000, 1), Default(0.1, 40, 8), 480},
	} {
		t.Run(c.name, func(t *testing.T) {
			perPoint := allocatedPerRun(t, c.pts, c.cfg) / uint64(len(c.pts))
			t.Logf("%d bytes allocated per input point (budget %d)", perPoint, c.budget)
			if perPoint > c.budget {
				t.Errorf("RunPoints allocated %d bytes per input point, budget %d", perPoint, c.budget)
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
// clock: with every phase snapshotted, a run allocates at most 1.25× the
// bytes of one without. Gob snapshots cost 1.63× here.
func TestCheckpointOverheadBytes(t *testing.T) {
	pts := dataset.Twitter(4*12_500, 1)
	var allocated [2]uint64
	for i, ckpt := range []bool{false, true} {
		cfg := Default(0.1, 40, 4)
		cfg.Checkpoint = ckpt
		allocated[i] = allocatedPerRun(t, pts, cfg)
	}
	ratio := float64(allocated[1]) / float64(allocated[0])
	t.Logf("checkpoint on: %.1f MB per run, off: %.1f MB (%.2f×)", float64(allocated[1])/1e6, float64(allocated[0])/1e6, ratio)
	if ratio > 1.25 {
		t.Errorf("checkpointing allocates %.2f× the bytes of a run without it, budget 1.25×", ratio)
	}
}
