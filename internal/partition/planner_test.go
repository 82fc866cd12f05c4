package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

// histCase is one seeded random unit histogram plus the points behind it.
type histCase struct {
	name string
	g    grid.Grid
	uh   *UnitHistogram
	pts  []geom.Point
}

// randomHist fills a w×h block of cells with probability fill, count
// 1..maxCount each; hot of the filled cells are subdivided at depths 1–4
// and given points in a random subset of their tiles (a few dozen at most). Every point sits
// well inside its unit, so UnitOf recovers exactly the histogram.
func randomHist(rng *rand.Rand, w, h int, fill float64, maxCount, hot int) histCase {
	g := grid.New(1)
	uh := NewUnitHistogram()
	var cells []grid.Coord
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			if rng.Float64() < fill {
				cells = append(cells, grid.Coord{CX: int32(x - w/2), CY: int32(y - h/2)})
			}
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	for i, c := range cells {
		if i >= hot {
			uh.Counts[CellUnit(c)] = int64(rng.Intn(maxCount)) + 1
			continue
		}
		d := uint8(i%MaxSplitDepth) + 1
		uh.Depth[c] = d
		for path := 0; path < 1<<(2*d); path++ {
			if path == 0 || rng.Intn(1<<d) < 3 { // deeper cells fill sparser: the reference is slow
				uh.Counts[Unit{Cell: c, Depth: d, Path: uint16(path)}] = int64(rng.Intn(maxCount)) + 1
			}
		}
	}
	hc := histCase{g: g, uh: uh}
	for u, n := range uh.Counts {
		r := u.Rect(g)
		for k := int64(0); k < n; k++ {
			hc.pts = append(hc.pts, geom.Point{
				X: r.MinX + (0.25+0.5*rng.Float64())*(r.MaxX-r.MinX),
				Y: r.MinY + (0.25+0.5*rng.Float64())*(r.MaxY-r.MinY),
			})
		}
	}
	// Map order above is random per run; the point order must not be.
	slices.SortFunc(hc.pts, func(a, b geom.Point) int {
		if a.X != b.X {
			if a.X < b.X {
				return -1
			}
			return 1
		}
		if a.Y < b.Y {
			return -1
		}
		return 1
	})
	rng.Shuffle(len(hc.pts), func(i, j int) { hc.pts[i], hc.pts[j] = hc.pts[j], hc.pts[i] })
	for i := range hc.pts {
		hc.pts[i].ID = uint64(i)
	}
	return hc
}

func diffCases() []histCase {
	seeds := int64(4)
	if testing.Short() {
		seeds = 2 // the reference planner is slow, and slower under -race
	}
	var out []histCase
	add := func(name string, seed int64, w, h int, fill float64, maxCount, hot int) {
		hc := randomHist(rand.New(rand.NewSource(seed)), w, h, fill, maxCount, hot)
		hc.name = fmt.Sprintf("%s/seed=%d", name, seed)
		out = append(out, hc)
	}
	for seed := int64(1); seed <= seeds; seed++ {
		add("sparse", seed, 30, 30, 0.3, 40, 0)
		add("dense", seed, 12, 20, 0.9, 60, 0)
		add("hot", seed, 10, 10, 0.6, 30, 4)
		add("all-hot", seed, 2, 2, 1, 20, 4)
		add("single-column", seed, 1, 40, 0.8, 50, 2)
		add("single-row", seed, 40, 1, 0.8, 50, 2)
		add("two-cells", seed, 2, 1, 1, 9, 0)
	}
	return out
}

func sameSpecs(t *testing.T, got *Plan, want *refPlan) {
	t.Helper()
	if len(got.Specs) != len(want.Specs) {
		t.Fatalf("%d specs, reference has %d", len(got.Specs), len(want.Specs))
	}
	for i, w := range want.Specs {
		s := got.Specs[i]
		if !slices.Equal(s.Units, w.Units) {
			t.Fatalf("spec %d: units %v, reference %v", i, s.Units, w.Units)
		}
		if !slices.Equal(s.Shadow, w.Shadow) {
			t.Fatalf("spec %d: shadow %v, reference %v", i, s.Shadow, w.Shadow)
		}
		if s.PointCount != w.PointCount || s.ShadowCount != w.ShadowCount {
			t.Fatalf("spec %d: counts %d+%d, reference %d+%d", i, s.PointCount, s.ShadowCount, w.PointCount, w.ShadowCount)
		}
	}
	for u, owner := range want.UnitOwner {
		if o, ok := got.UnitOwner(u); !ok || o != owner {
			t.Fatalf("unit %v: owner %d (ok=%v), reference %d", u, o, ok, owner)
		}
	}
}

func sameSplit(t *testing.T, got, want *SplitResult) {
	t.Helper()
	for j := range want.Partitions {
		if !slices.Equal(got.Partitions[j], want.Partitions[j]) {
			t.Fatalf("partition %d: owned points differ from the reference (%d vs %d points)", j, len(got.Partitions[j]), len(want.Partitions[j]))
		}
		if !slices.Equal(got.Shadows[j], want.Shadows[j]) {
			t.Fatalf("partition %d: shadow points differ from the reference (%d vs %d points)", j, len(got.Shadows[j]), len(want.Shadows[j]))
		}
	}
}

// TestPlannerMatchesReference: the sorted-table planner and the counting
// Split return exactly what the map-based reference returns — unit runs,
// shadow lists in order, both counts, and every point slice in order.
func TestPlannerMatchesReference(t *testing.T) {
	straddled, padded, minPtsBound, moved := false, false, false, false
	for _, hc := range diffCases() {
		var total int64
		for _, n := range hc.uh.Counts {
			total += n
		}
		units := len(hc.uh.Counts)
		for _, nParts := range []int{1, 2, 3, 7, 16, units + 3} {
			for _, minPts := range []int{1, 5, int(total)/nParts + 10} {
				if nParts > units && minPts > 1 {
					continue // the reference is quadratic in partitions × units
				}
				for _, rebalance := range []bool{false, true} {
					opt := PlanOptions{NumPartitions: nParts, MinPts: minPts, Rebalance: rebalance}
					t.Run(fmt.Sprintf("%s/parts=%d/minpts=%d/rebalance=%v", hc.name, nParts, minPts, rebalance), func(t *testing.T) {
						want := refMakePlanUnits(hc.g, hc.uh, opt)
						got, err := MakePlanUnits(hc.g, hc.uh, opt)
						if err != nil {
							t.Fatal(err)
						}
						sameSpecs(t, got, want)
						for i := 1; i < nParts; i++ {
							a, b := got.Specs[i-1].Units, got.Specs[i].Units
							if len(a) > 0 && len(b) > 0 && a[len(a)-1].Cell == b[0].Cell {
								straddled = true
							}
						}
						padded = padded || len(got.Specs[nParts-1].Units) == 0
						minPtsBound = minPtsBound || int64(minPts)*int64(nParts) > total
						for _, reps := range []bool{false, true} {
							so := SplitOptions{ShadowReps: reps}
							split, err := Split(got, hc.pts, so)
							if err != nil {
								t.Fatal(err)
							}
							sameSplit(t, split, refSplit(want, hc.pts, so))
						}
					})
				}
			}
		}
		// MakePlan takes the cell-histogram shortcut into the same planner.
		if len(hc.uh.Depth) == 0 {
			got, err := MakePlan(hc.g, cellHistogram(entriesOf(hc.uh)), 5, 3, true)
			if err != nil {
				t.Fatal(err)
			}
			sameSpecs(t, got, refMakePlanUnits(hc.g, hc.uh, PlanOptions{NumPartitions: 5, MinPts: 3, Rebalance: true}))
			_, stats, _ := makePlan(hc.g, unitTableOf(entriesOf(hc.uh)), nil, PlanOptions{NumPartitions: 5, MinPts: 3, Rebalance: true})
			moved = moved || stats.moves > 0
		}
	}
	// The cases must reach the situations they were written for.
	if !straddled {
		t.Error("no case put a partition boundary inside a split cell")
	}
	if !padded {
		t.Error("no case padded with empty partitions")
	}
	if !minPtsBound {
		t.Error("no case had MinPts above an equal share")
	}
	if !moved {
		t.Error("no case made the rebalancing pass move a unit")
	}
}

// TestMakePlanMatchesMapHistogram: on the benchmark's input shapes, the
// plan MakePlan forms from the sorted histogram (summed over shards where
// the partitioner would reduce one) is the plan formed, as before the
// histogram was sorted, from a Go map count's entries sorted by
// sortEntries — the same Specs, owners and shadow slots.
func TestMakePlanMatchesMapHistogram(t *testing.T) {
	shapes := []struct {
		name   string
		eps    float64
		minPts int
		pts    []geom.Point
		shards int
	}{
		{"batch_io", 0.00015, 5, dataset.SDSS(150_000, 3), 4},
		{"dist_tcp", 0.00015, 5, dataset.SDSS(150_000, 4), 1},
		{"batch_dense", 0.1, 40, dataset.Twitter(60_000, 5), 8},
	}
	for _, sh := range shapes {
		g := grid.New(sh.eps)
		parts := make([]*grid.Histogram, sh.shards)
		for s := range parts {
			parts[s] = g.HistogramOf(sh.pts[len(sh.pts)*s/sh.shards : len(sh.pts)*(s+1)/sh.shards])
		}
		hist := grid.Sum(parts)
		counts := make(map[grid.Coord]int64)
		for _, p := range sh.pts {
			counts[g.CellOf(p)]++
		}
		var entries []unitCount
		for c, n := range counts {
			entries = append(entries, unitCount{CellUnit(c), n})
		}
		for _, nParts := range []int{4, 16, 64} {
			t.Run(fmt.Sprintf("%s/parts=%d", sh.name, nParts), func(t *testing.T) {
				got, err := MakePlan(g, hist, nParts, sh.minPts, true)
				if err != nil {
					t.Fatal(err)
				}
				opt := PlanOptions{NumPartitions: nParts, MinPts: sh.minPts, Rebalance: true}
				want, _, err := makePlan(g, unitTableOf(slices.Clone(entries)), nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range want.Specs {
					s := got.Specs[i]
					if !slices.Equal(s.Units, w.Units) || !slices.Equal(s.Shadow, w.Shadow) ||
						s.PointCount != w.PointCount || s.ShadowCount != w.ShadowCount {
						t.Fatalf("spec %d differs: %d units + %d shadow (%d+%d points), map plan %d + %d (%d+%d)",
							i, len(s.Units), len(s.Shadow), s.PointCount, s.ShadowCount,
							len(w.Units), len(w.Shadow), w.PointCount, w.ShadowCount)
					}
				}
				if !slices.Equal(got.owner, want.owner) || !slices.Equal(got.slotOff, want.slotOff) ||
					!slices.Equal(got.shadowStart, want.shadowStart) || !slices.Equal(got.shadowSlots, want.shadowSlots) {
					t.Fatal("owners or shadow slots differ from the map plan's")
				}
			})
		}
	}
}

func entriesOf(uh *UnitHistogram) []unitCount {
	var out []unitCount
	for u, n := range uh.Counts {
		out = append(out, unitCount{u, n})
	}
	return out
}

// cellHistogram is the cell histogram of entries, which must be whole
// cells.
func cellHistogram(entries []unitCount) *grid.Histogram {
	cells, counts := make([]grid.Coord, len(entries)), make([]int64, len(entries))
	for i, e := range entries {
		cells[i], counts[i] = e.u.Cell, e.n
	}
	return grid.NewHistogram(cells, counts)
}

// TestSplitConcurrentMatchesReference: sixteen leaves Split their shards
// against one shared plan at once (what Distribute's reduction does) and
// each gets the reference's slices; under -race this is also the proof
// that Split only reads the plan.
func TestSplitConcurrentMatchesReference(t *testing.T) {
	hc := randomHist(rand.New(rand.NewSource(42)), 24, 24, 0.7, 60, 5)
	opt := PlanOptions{NumPartitions: 8, MinPts: 5, Rebalance: true}
	plan, err := MakePlanUnits(hc.g, hc.uh, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := refMakePlanUnits(hc.g, hc.uh, opt)
	const leaves = 16
	for _, reps := range []bool{false, true} {
		so := SplitOptions{ShadowReps: reps}
		got := make([]*SplitResult, leaves)
		errs := make([]error, leaves)
		shard := func(l int) []geom.Point {
			return hc.pts[len(hc.pts)*l/leaves : len(hc.pts)*(l+1)/leaves]
		}
		var wg sync.WaitGroup
		for l := 0; l < leaves; l++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[l], errs[l] = Split(plan, shard(l), so)
			}()
		}
		wg.Wait()
		for l := 0; l < leaves; l++ {
			if errs[l] != nil {
				t.Fatal(errs[l])
			}
			sameSplit(t, got[l], refSplit(ref, shard(l), so))
		}
	}
}

func TestSplitRejectsPointOutsidePlan(t *testing.T) {
	hc := randomHist(rand.New(rand.NewSource(7)), 5, 5, 1, 5, 1)
	plan, err := MakePlanUnits(hc.g, hc.uh, PlanOptions{NumPartitions: 3, MinPts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Split(plan, []geom.Point{{X: 100, Y: 100}}, SplitOptions{}); err == nil {
		t.Error("a point in a cell the histogram never saw must be rejected")
	}
}

// blockEntries is a full w×h block of one-point cells with one heavy
// column a quarter of the way along, sized so that two partitions meet
// right after it: the heavy column is then the second partition's shadow,
// pushes it over the rebalancing threshold, and the pass moves units of
// the next column until the heavy cells fall out of reach — some share of
// h moves, whatever w is.
func blockEntries(w, h int) []unitCount {
	var out []unitCount
	heavyX := w / 4
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			n := int64(1)
			if x == heavyX {
				n = int64(w - 2*heavyX - 1)
			}
			out = append(out, unitCount{CellUnit(grid.Coord{CX: int32(x), CY: int32(y)}), n})
		}
	}
	return out
}

// TestMakePlanAllocsIndependentOfUnits is the complexity guard that does
// not depend on a clock: planning 8× the units (same column height, same
// partition count) performs the same number of allocations — a table, not
// a map per partition per move.
func TestMakePlanAllocsIndependentOfUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are taken in the plain run, not under -race")
	}
	g := grid.New(1)
	allocs := func(w int) float64 {
		hist := cellHistogram(blockEntries(w, 100))
		return testing.AllocsPerRun(3, func() {
			if _, err := MakePlan(g, hist, 16, 5, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(800)
	t.Logf("allocs: %.0f at 10k units, %.0f at 80k units", small, large)
	if large > small+8 {
		t.Errorf("MakePlan allocations grow with unit count: %.0f at 10k units, %.0f at 80k", small, large)
	}
}

// TestRebalanceMoveTouchesBoundaryOnly: repairing the shadows after a
// move examines the boundary columns of the two partitions beside it —
// at most two columns at each end of each — however many units the
// partitions own.
func TestRebalanceMoveTouchesBoundaryOnly(t *testing.T) {
	const h = 50
	g := grid.New(1)
	perMove := func(w int) float64 {
		_, stats, err := makePlan(g, unitTableOf(blockEntries(w, h)), nil, PlanOptions{NumPartitions: 2, MinPts: 5, Rebalance: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.moves < h/8 {
			t.Fatalf("width %d: the rebalancing pass moved %d units, the case is built for a column's share", w, stats.moves)
		}
		t.Logf("width %d: %d moves, %d units examined", w, stats.moves, stats.rebalanceProbes)
		return float64(stats.rebalanceProbes) / float64(stats.moves)
	}
	for _, w := range []int{40, 320} {
		// Two partitions × two ends × two columns of h cells.
		if got := perMove(w); got > 8*h {
			t.Errorf("width %d (partitions of ~%d units): %.0f units examined per move, boundary bound is %d", w, w*h/2, got, 8*h)
		}
	}
}
