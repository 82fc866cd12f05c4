package partition

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ptio"
)

// The Split this package shipped until the ranked placement replaced it,
// kept verbatim (under new names) as the oracle the tests below compare
// against: it looks every point's unit up in the plan and places points,
// and ShadowRepsRect marks its picks in a map.

func probeSplit(plan *Plan, pts []geom.Point, opt SplitOptions) (*SplitResult, error) {
	nParts := plan.NumPartitions()
	unitOf := make([]int32, len(pts))
	ownedEnd := make([]int, nParts)
	slotEnd := make([]int, plan.slotOff[nParts])
	for i, p := range pts {
		x := plan.unitIndexOf(p)
		if x < 0 {
			return nil, fmt.Errorf("partition: point %v in cell %v owned by no partition (stale plan?)", p, plan.Grid.CellOf(p))
		}
		unitOf[i] = int32(x)
		ownedEnd[plan.owner[x]]++
		for _, slot := range plan.shadowSlots[plan.shadowStart[x]:plan.shadowStart[x+1]] {
			slotEnd[slot]++
		}
	}
	// Counts become write cursors (exclusive prefix sums); after the
	// placement pass each cursor sits at its bucket's end.
	owned := make([]geom.Point, len(pts))
	shadow := make([]geom.Point, cursors(slotEnd))
	cursors(ownedEnd)
	for i, p := range pts {
		x := unitOf[i]
		owned[ownedEnd[plan.owner[x]]] = p
		ownedEnd[plan.owner[x]]++
		for _, slot := range plan.shadowSlots[plan.shadowStart[x]:plan.shadowStart[x+1]] {
			shadow[slotEnd[slot]] = p
			slotEnd[slot]++
		}
	}
	res := &SplitResult{
		Partitions: make([][]geom.Point, nParts),
		Shadows:    make([][]geom.Point, nParts),
	}
	ownedLo, shadowLo := 0, 0
	for j := 0; j < nParts; j++ {
		if hi := ownedEnd[j]; hi > ownedLo {
			res.Partitions[j] = owned[ownedLo:hi:hi]
			ownedLo = hi
		}
		first, last := plan.slotOff[j], plan.slotOff[j+1]
		if first == last || slotEnd[last-1] == shadowLo {
			continue
		}
		if !opt.ShadowReps {
			hi := slotEnd[last-1]
			res.Shadows[j] = shadow[shadowLo:hi:hi]
			shadowLo = hi
			continue
		}
		// The representative reduction operates region-wise. For
		// whole-cell units this is the paper's per-shadow-cell reduction;
		// for quadrant tiles of split cells it applies per tile, which is
		// what keeps a tile leaf's shadow bounded even when its cell holds
		// millions of points.
		for slot := first; slot < last; slot++ {
			hi := slotEnd[slot]
			rect := plan.Specs[j].Shadow[slot-first].Rect(plan.Grid)
			res.Shadows[j] = append(res.Shadows[j], probeShadowRepsRect(rect, shadow[shadowLo:hi])...)
			shadowLo = hi
		}
	}
	return res, nil
}

// probeShadowRepsRect is ShadowRepsRect as it was.
func probeShadowRepsRect(r geom.Rect, cellPts []geom.Point) []geom.Point {
	if len(cellPts) <= MaxShadowReps {
		return cellPts
	}
	chosen := make(map[int]bool, MaxShadowReps)
	mx := (r.MinX + r.MaxX) / 2
	my := (r.MinY + r.MaxY) / 2
	anchors := [8]geom.Point{
		{X: r.MinX, Y: r.MinY}, {X: r.MinX, Y: r.MaxY},
		{X: r.MaxX, Y: r.MinY}, {X: r.MaxX, Y: r.MaxY},
		{X: mx, Y: r.MinY}, {X: mx, Y: r.MaxY},
		{X: r.MinX, Y: my}, {X: r.MaxX, Y: my},
	}
	for _, a := range anchors {
		best, bestD := -1, math.Inf(1)
		for i, p := range cellPts {
			if chosen[i] {
				continue
			}
			if d := geom.Dist2(p, a); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			chosen[best] = true
		}
	}
	for i := 0; len(chosen) < MaxShadowReps && i < len(cellPts); i++ {
		chosen[i] = true
	}
	out := make([]geom.Point, 0, MaxShadowReps)
	for i, p := range cellPts {
		if chosen[i] {
			out = append(out, p)
		}
	}
	return out
}

// probePartitionFile is the partition file the old write stage produced
// for a plan: every leaf's shard (equal slices of pts, as the read stage
// cuts them) split by probeSplit, laid out by layoutRegions and encoded
// region by region.
func probePartitionFile(t *testing.T, plan *Plan, pts []geom.Point, leaves int, opt DistOptions) []byte {
	t.Helper()
	total := int64(len(pts))
	splits := make([]*SplitResult, leaves)
	counts := make([]leafCounts, leaves)
	for l := range splits {
		shard := pts[total*int64(l)/int64(leaves) : total*int64(l+1)/int64(leaves)]
		split, err := probeSplit(plan, shard, SplitOptions{ShadowReps: opt.ShadowReps})
		if err != nil {
			t.Fatal(err)
		}
		splits[l] = split
		counts[l] = make(leafCounts, opt.NumPartitions)
		for j := range counts[l] {
			counts[l][j] = [2]int64{int64(len(split.Partitions[j])), int64(len(split.Shadows[j]))}
		}
	}
	_, offsets, size := layoutRegions(eps, opt.HasWeight, opt.NumPartitions, counts)
	file := make([]byte, size)
	for l, split := range splits {
		for j := range split.Partitions {
			copy(file[offsets[l][j][0]:], ptio.EncodeRecords(split.Partitions[j], opt.HasWeight))
			copy(file[offsets[l][j][1]:], ptio.EncodeRecords(split.Shadows[j], opt.HasWeight))
		}
	}
	return file
}

// oracleShapes are the three workloads' partitioner inputs: batch_io's
// sparse SDSS points, batch_dense's Twitter points and dist_tcp's (batch_io's
// input, split whole by the coordinator). Short runs take a quarter of
// the points.
func oracleShapes(t *testing.T) []struct {
	name          string
	pts           []geom.Point
	eps           float64
	minPts, parts int
} {
	scale := 1
	if testing.Short() {
		scale = 4
	}
	return []struct {
		name          string
		pts           []geom.Point
		eps           float64
		minPts, parts int
	}{
		{"batch_io", dataset.SDSS(150_000/scale, 1), 0.00015, 5, 16},
		{"batch_dense", dataset.Twitter(60_000/scale, 1), 0.1, 40, 8},
		{"dist_tcp", dataset.SDSS(150_000/scale, 7), 0.00015, 5, 16},
	}
}

// TestSplitMatchesProbeOracle: on the three workload shapes, with hot
// cells split or not and representative shadows on or off, the exported
// Split and SplitRanked return the oracle's slices, order included, and
// Distribute on 1, 2 and 4 partitioner leaves writes the oracle's
// partition file byte for byte.
func TestSplitMatchesProbeOracle(t *testing.T) {
	for _, sh := range oracleShapes(t) {
		g := grid.New(sh.eps)
		_, most := g.HistogramOf(sh.pts).MaxCell()
		for _, hot := range []bool{false, true} {
			var threshold int64
			if hot {
				threshold = max(most/3, 2)
			}
			for _, reps := range []bool{false, true} {
				name := fmt.Sprintf("%s/hot=%v/reps=%v", sh.name, hot, reps)
				opt := DistOptions{NumPartitions: sh.parts, MinPts: sh.minPts, Rebalance: true, ShadowReps: reps, SplitThreshold: threshold}
				var plan *Plan
				for _, leaves := range []int{1, 2, 4} {
					net, fs := distEnv(t, leaves)
					writeInput(t, fs, "in.mrsc", sh.pts, false)
					res, err := Distribute(context.Background(), net, fs, sh.eps, "in.mrsc", "parts.bin", "parts.json", opt)
					if err != nil {
						t.Fatalf("%s/leaves=%d: %v", name, leaves, err)
					}
					if hot && res.Plan.SplitCells() == 0 {
						t.Fatalf("%s: threshold %d split no cell", name, threshold)
					}
					h, err := fs.Open("parts.bin")
					if err != nil {
						t.Fatal(err)
					}
					got := make([]byte, h.Size())
					if _, err := h.ReadAt(got, 0); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, probePartitionFile(t, res.Plan, sh.pts, leaves, opt)) {
						t.Fatalf("%s/leaves=%d: partition file differs from the oracle's", name, leaves)
					}
					plan = res.Plan
				}
				so := SplitOptions{ShadowReps: reps}
				want, err := probeSplit(plan, sh.pts, so)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Split(plan, sh.pts, so)
				if err != nil {
					t.Fatal(err)
				}
				sameSplit(t, got, want)
				hist, rank, err := g.RankedHistogramOf(sh.pts)
				if err != nil {
					t.Fatal(err)
				}
				if rank == nil {
					t.Fatalf("%s: the histogram's sort ranked no point", name)
				}
				if got, err = SplitRanked(plan, sh.pts, hist, rank, so); err != nil {
					t.Fatal(err)
				}
				sameSplit(t, got, want)
			}
		}
	}
}

// TestSplitRankedFallsBack: a nil rank probes every point, and a rank
// whose cell the plan lacks is refused as Split refuses it.
func TestSplitRankedFallsBack(t *testing.T) {
	g := grid.New(1)
	pts := []geom.Point{{ID: 1, X: 0.5, Y: 0.5}, {ID: 2, X: 3.5, Y: 0.5}, {ID: 3, X: 0.2, Y: 0.7}}
	plan, err := MakePlan(g, g.HistogramOf(pts), 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := probeSplit(plan, pts, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SplitRanked(plan, pts, nil, nil, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameSplit(t, got, want)
	stray := append(slices.Clone(pts), geom.Point{ID: 4, X: 9.5, Y: 9.5})
	h, rank, err := g.RankedHistogramOf(stray)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitRanked(plan, stray, h, rank, SplitOptions{}); err == nil {
		t.Error("a ranked point in a cell the plan never saw must be rejected")
	}
}
