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
			if _, _, err := RunPoints(c.pts, c.cfg); err != nil { // warm lazily built tables
				t.Fatal(err)
			}
			const runs = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, _, err := RunPoints(c.pts, c.cfg); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			perPoint := (after.TotalAlloc - before.TotalAlloc) / runs / uint64(len(c.pts))
			t.Logf("%d bytes allocated per input point (budget %d)", perPoint, c.budget)
			if perPoint > c.budget {
				t.Errorf("RunPoints allocated %d bytes per input point, budget %d", perPoint, c.budget)
			}
		})
	}
}
