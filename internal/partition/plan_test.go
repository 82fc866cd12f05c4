package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

const eps = 0.1

func twitterHist(t testing.TB, n int, seed int64) (grid.Grid, *grid.Histogram, []geom.Point) {
	t.Helper()
	g := grid.New(eps)
	pts := dataset.Twitter(n, seed)
	return g, g.HistogramOf(pts), pts
}

func TestMakePlanValidation(t *testing.T) {
	g := grid.New(eps)
	h := grid.NewHistogram(nil, nil)
	if _, err := MakePlan(g, h, 0, 4, true); err == nil {
		t.Error("zero partitions must be rejected")
	}
	if _, err := MakePlan(g, h, 2, 0, true); err == nil {
		t.Error("zero MinPts must be rejected")
	}
}

func TestMakePlanEmptyHistogram(t *testing.T) {
	g := grid.New(eps)
	plan, err := MakePlan(g, grid.NewHistogram(nil, nil), 4, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d, want 4", plan.NumPartitions())
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanInvariants(t *testing.T) {
	for _, nParts := range []int{1, 2, 5, 16, 64} {
		g, h, _ := twitterHist(t, 20000, 1)
		plan, err := MakePlan(g, h, nParts, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("nParts=%d: %v", nParts, err)
		}
		if plan.NumPartitions() != nParts {
			t.Fatalf("nParts=%d: NumPartitions = %d", nParts, plan.NumPartitions())
		}
		// Total owned points must equal the histogram total.
		var sum int64
		for _, s := range plan.Specs {
			sum += s.PointCount
		}
		if sum != h.Total() {
			t.Fatalf("nParts=%d: partitions hold %d points, histogram has %d", nParts, sum, h.Total())
		}
	}
}

func TestPlanCellsContiguous(t *testing.T) {
	// Partitions own contiguous runs of the global cell iteration order,
	// before and after rebalancing.
	g, h, _ := twitterHist(t, 30000, 2)
	for _, rebalance := range []bool{false, true} {
		plan, err := MakePlan(g, h, 12, 4, rebalance)
		if err != nil {
			t.Fatal(err)
		}
		pos := make(map[grid.Coord]int)
		for i := range h.Len() {
			c, _ := h.At(i)
			pos[c] = i
		}
		next := 0
		for i, s := range plan.Specs {
			for k, u := range s.Units {
				if pos[u.Cell] != next {
					t.Fatalf("rebalance=%v: partition %d cell %d out of order (global pos %d, want %d)",
						rebalance, i, k, pos[u.Cell], next)
				}
				next++
			}
		}
	}
}

func TestPlanMinPtsConstraint(t *testing.T) {
	// §3.1.2: "each partition must contain at least MinPts points."
	g, h, _ := twitterHist(t, 50000, 3)
	const minPts = 400
	plan, err := MakePlan(g, h, 32, minPts, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.Specs {
		if len(s.Units) == 0 {
			continue // padding partition (more leaves than cells)
		}
		if s.PointCount < minPts {
			t.Errorf("partition %d holds %d points, want >= MinPts=%d", i, s.PointCount, minPts)
		}
	}
}

func TestRebalanceImprovesBalance(t *testing.T) {
	// The populous "last partition" effect (Figure 2a): without
	// rebalancing the final partition absorbs the leftovers; rebalancing
	// must bring the maximum down toward the threshold.
	g, h, _ := twitterHist(t, 60000, 4)
	const nParts = 24
	raw, err := MakePlan(g, h, nParts, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	bal, err := MakePlan(g, h, nParts, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := bal.Validate(); err != nil {
		t.Fatal(err)
	}
	if bal.MaxTotal() > raw.MaxTotal() {
		t.Errorf("rebalancing increased the max partition: %d > %d", bal.MaxTotal(), raw.MaxTotal())
	}
	// The max must approach the threshold unless a single cell forces it
	// higher ("Large grid cells do not pose a problem ... because of our
	// dense box optimization").
	_, maxCell := h.MaxCell()
	limit := int64(RebalanceThreshold*bal.MeanTotal()) + maxCell
	if bal.MaxTotal() > limit {
		t.Errorf("max partition %d exceeds threshold+maxcell %d", bal.MaxTotal(), limit)
	}
}

// TestShadowCompleteness is the §3.1.1 correctness property: for every
// point p owned by partition i, every point within Eps of p is either
// owned by i or in i's shadow region.
func TestShadowCompleteness(t *testing.T) {
	g := grid.New(eps)
	pts := dataset.Twitter(5000, 5)
	h := g.HistogramOf(pts)
	plan, err := MakePlan(g, h, 8, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	inPartition := make([]map[grid.Coord]bool, 8)
	inShadow := make([]map[grid.Coord]bool, 8)
	for i, s := range plan.Specs {
		inPartition[i] = make(map[grid.Coord]bool, len(s.Units))
		for _, u := range s.Units {
			inPartition[i][u.Cell] = true
		}
		inShadow[i] = make(map[grid.Coord]bool, len(s.Shadow))
		for _, u := range s.Shadow {
			inShadow[i][u.Cell] = true
		}
	}
	eps2 := eps * eps
	for a := 0; a < len(pts); a += 3 {
		ca := g.CellOf(pts[a])
		owner, _ := plan.UnitOwner(CellUnit(ca))
		for b := range pts {
			if a == b || geom.Dist2(pts[a], pts[b]) > eps2 {
				continue
			}
			cb := g.CellOf(pts[b])
			if !inPartition[owner][cb] && !inShadow[owner][cb] {
				t.Fatalf("point %d (cell %v, partition %d) has neighbor %d in cell %v outside partition+shadow",
					a, ca, owner, b, cb)
			}
		}
	}
}

func TestPlanProperty(t *testing.T) {
	// Random histograms with random partition counts always validate and
	// preserve totals.
	f := func(seeds []uint32, nRaw uint8, minRaw uint8) bool {
		g := grid.New(1)
		cells, counts := make([]grid.Coord, len(seeds)), make([]int64, len(seeds))
		for i, s := range seeds {
			cells[i] = grid.Coord{CX: int32(s % 37), CY: int32((s / 37) % 37)}
			counts[i] = int64(s%50) + 1
		}
		h := grid.NewHistogram(cells, counts)
		nParts := int(nRaw)%20 + 1
		minPts := int(minRaw)%10 + 1
		plan, err := MakePlan(g, h, nParts, minPts, true)
		if err != nil {
			return false
		}
		if plan.Validate() != nil {
			return false
		}
		var sum int64
		for _, s := range plan.Specs {
			sum += s.PointCount
		}
		return sum == h.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSinglePartitionHasNoShadow(t *testing.T) {
	g, h, _ := twitterHist(t, 2000, 6)
	plan, err := MakePlan(g, h, 1, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Specs[0].ShadowCount != 0 || len(plan.Specs[0].Shadow) != 0 {
		t.Errorf("single partition must have an empty shadow, got %d cells / %d points",
			len(plan.Specs[0].Shadow), plan.Specs[0].ShadowCount)
	}
}

func TestSplitCoversAllPointsOnce(t *testing.T) {
	g := grid.New(eps)
	pts := dataset.Twitter(8000, 7)
	h := g.HistogramOf(pts)
	plan, err := MakePlan(g, h, 10, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	split, err := Split(plan, pts, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for _, part := range split.Partitions {
		for _, p := range part {
			seen[p.ID]++
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("partitions cover %d distinct points, want %d", len(seen), len(pts))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("point %d owned %d times", id, n)
		}
	}
	// Shadow points must be copies of owned points from other partitions.
	owned := make(map[uint64]int)
	for i, part := range split.Partitions {
		for _, p := range part {
			owned[p.ID] = i
		}
	}
	for i, sh := range split.Shadows {
		for _, p := range sh {
			if o, ok := owned[p.ID]; !ok {
				t.Fatalf("shadow point %d of partition %d not owned anywhere", p.ID, i)
			} else if o == i {
				t.Fatalf("partition %d shadows its own point %d", i, p.ID)
			}
		}
	}
}

func TestSplitShadowMatchesPlanCounts(t *testing.T) {
	g := grid.New(eps)
	pts := dataset.Twitter(6000, 8)
	h := g.HistogramOf(pts)
	plan, err := MakePlan(g, h, 6, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	split, err := Split(plan, pts, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.Specs {
		if int64(len(split.Partitions[i])) != s.PointCount {
			t.Errorf("partition %d: split %d points, plan says %d", i, len(split.Partitions[i]), s.PointCount)
		}
		if int64(len(split.Shadows[i])) != s.ShadowCount {
			t.Errorf("partition %d: split %d shadow points, plan says %d", i, len(split.Shadows[i]), s.ShadowCount)
		}
	}
}

func TestShadowRepsBounded(t *testing.T) {
	g := grid.New(eps)
	pts := dataset.Twitter(20000, 9)
	h := g.HistogramOf(pts)
	plan, err := MakePlan(g, h, 8, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	opt := SplitOptions{ShadowReps: true}
	split, err := Split(plan, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Split(plan, pts, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reduced := false
	for i := range split.Shadows {
		// One shard sees every point, so each shadow unit contributes
		// min(its count, MaxShadowReps) — the plan's ShadowCount with
		// every unit capped.
		var capped int64
		for _, u := range plan.Specs[i].Shadow {
			capped += min(plan.tab.counts[plan.tab.indexOf(u)], MaxShadowReps)
		}
		if int64(len(split.Shadows[i])) != capped {
			t.Errorf("partition %d: %d shadow reps, capped ShadowCount is %d",
				i, len(split.Shadows[i]), capped)
		}
		if len(split.Shadows[i]) > len(full.Shadows[i]) {
			t.Errorf("partition %d: reps (%d) exceed full shadow (%d)",
				i, len(split.Shadows[i]), len(full.Shadows[i]))
		}
		if len(split.Shadows[i]) < len(full.Shadows[i]) {
			reduced = true
		}
		// Per shadow cell: at most 8 points.
		perCell := map[grid.Coord]int{}
		for _, p := range split.Shadows[i] {
			perCell[g.CellOf(p)]++
		}
		for c, n := range perCell {
			if n > MaxShadowReps {
				t.Errorf("partition %d shadow cell %v holds %d reps, max %d", i, c, n, MaxShadowReps)
			}
		}
	}
	if !reduced {
		t.Error("dense data must trigger shadow reduction somewhere")
	}
}

func TestShadowRepsSelection(t *testing.T) {
	g := grid.New(1)
	cell := grid.Coord{CX: 0, CY: 0}
	rng := rand.New(rand.NewSource(10))
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), X: rng.Float64(), Y: rng.Float64()}
	}
	reps := ShadowReps(g, cell, pts)
	if len(reps) != MaxShadowReps {
		t.Fatalf("selected %d reps, want %d", len(reps), MaxShadowReps)
	}
	// Selection must be deterministic.
	again := ShadowReps(g, cell, pts)
	for i := range reps {
		if reps[i] != again[i] {
			t.Fatal("rep selection not deterministic")
		}
	}
	// Small cells pass through unchanged.
	small := pts[:5]
	if got := ShadowReps(g, cell, small); len(got) != 5 {
		t.Errorf("small cell reduced to %d points", len(got))
	}
}
