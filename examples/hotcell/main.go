// Hotcell: the strong-scaling limit and its fix. The paper found that
// beyond 2,048 leaves "the slowest cluster process is executing a
// partition made up of a single dense grid cell. Since this partition
// cannot be subdivided further, we have again found a limit ... or we
// need to subdivide grid cells when they have extremely high density"
// (§5.1.2). This example builds a dataset dominated by one Eps cell and
// shows the slowest-leaf load with and without hot-cell subdivision
// (Config.HotCellThreshold).
//
//	go run ./examples/hotcell
package main

import (
	"fmt"
	"log"
	"math/rand"

	mrscan "repro"
)

func main() {
	// 80% of the data inside a single 0.1°×0.1° cell (one metro core),
	// the rest scattered.
	rng := rand.New(rand.NewSource(99))
	const n = 60_000
	pts := make([]mrscan.Point, n)
	for i := range pts {
		if i < n*8/10 {
			pts[i] = mrscan.Point{ID: uint64(i), X: rng.Float64() * 0.1, Y: rng.Float64() * 0.1, Weight: 1}
		} else {
			pts[i] = mrscan.Point{ID: uint64(i), X: rng.Float64()*6 - 3, Y: rng.Float64()*6 - 3, Weight: 1}
		}
	}
	fmt.Printf("dataset: %d points, %d of them in one Eps cell\n\n", n, n*8/10)

	fmt.Printf("%-6s %-26s %-16s %-14s %-10s\n", "leaves", "mode", "max leaf points", "slowest GPU", "clusters")
	for _, leaves := range []int{4, 8, 16} {
		for _, mode := range []struct {
			name       string
			threshold  int64
			shadowReps bool
		}{
			{"whole cells", 0, false},
			{"split hot cells", 3000, false},
			{"split + shadow reps", 3000, true},
		} {
			cfg := mrscan.Default(0.1, 4, leaves)
			cfg.HotCellThreshold = mode.threshold
			cfg.ShadowReps = mode.shadowReps
			res, _, err := mrscan.RunPoints(pts, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-6d %-26s %-16d %-14v %-10d\n",
				leaves, mode.name, res.Stats.MaxLeafPoints, res.Times.GPUDBSCAN, res.NumClusters)
		}
	}
	fmt.Println("\nwithout splitting, one leaf always owns the whole dense cell —")
	fmt.Println("adding leaves stops helping (the paper's 2,048-leaf plateau).")
	fmt.Println("HotCellThreshold shatters the cell into quadrant tiles, shrinking")
	fmt.Println("the owned load; adding ShadowReps also bounds each tile's shadow")
	fmt.Println("(8 representatives per region), so the slowest GPU keeps improving.")
}
