package partition

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/lustre"
	"repro/internal/mrnet"
)

func BenchmarkMakePlan(b *testing.B) {
	g := grid.New(eps)
	for _, n := range []int{10_000, 100_000} {
		h := g.HistogramOf(dataset.Twitter(n, 1))
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MakePlan(g, h, 64, 40, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The sparse shape (paper §4.2, the repo benchmark's batch_io): about
	// 50 k non-empty cells of a few points each. The histogram arrives
	// sorted, so the plan is copying it into the unit table, hashing its
	// cells and the forming pass; the rebalancing pass has nothing to do.
	sdss := grid.New(0.00015)
	h := sdss.HistogramOf(dataset.SDSS(150_000, 1))
	b.Run("sdss/points=150000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MakePlan(sdss, h, 16, 5, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSplit times the exported Split, which looks every point's unit
// up, at the planner benchmark's Twitter shape and at batch_io's (SDSS
// 150 k, Eps 0.00015, 16 partitions). The sdss150k_16_ranked row is the
// same shard split as Distribute's leaves split it: units from the
// histogram's ranks, indices placed instead of points (the rank sort
// itself is the read stage's, outside the timer).
func BenchmarkSplit(b *testing.B) {
	g := grid.New(eps)
	pts := dataset.Twitter(100_000, 2)
	h := g.HistogramOf(pts)
	plan, err := MakePlan(g, h, 32, 40, true)
	if err != nil {
		b.Fatal(err)
	}
	for _, reps := range []bool{false, true} {
		b.Run(fmt.Sprintf("shadowreps=%v", reps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Split(plan, pts, SplitOptions{ShadowReps: reps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	sdss := grid.New(0.00015)
	sdssPts := dataset.SDSS(150_000, 1)
	sdssHist, rank, err := sdss.RankedHistogramOf(sdssPts)
	if err != nil {
		b.Fatal(err)
	}
	sdssPlan, err := MakePlan(sdss, sdssHist, 16, 5, true)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sdss150k_16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Split(sdssPlan, sdssPts, SplitOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	ranks := slices.Clone(rank)
	b.Run("sdss150k_16_ranked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			copy(ranks, rank)
			b.StartTimer()
			unitOf, err := sdssPlan.unitsOf(sdssPts, sdssHist, ranks)
			if err != nil {
				b.Fatal(err)
			}
			splitIndices(sdssPlan, sdssPts, unitOf, SplitOptions{})
		}
	})
}

func BenchmarkQuadCounts(b *testing.B) {
	g := grid.New(eps)
	pts := dataset.Twitter(100_000, 3)
	h := g.HistogramOf(pts)
	depth := map[grid.Coord]uint8{}
	cell, _ := h.MaxCell()
	depth[cell] = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuadCounts(g, pts, depth)
	}
}

// BenchmarkPartitionWrite isolates stage 3 — the write path itself, fed
// precomputed leaf contributions — without stage 1/2 noise (§5.1.1: the
// small random writes are 65.2% of the phase). The sub-benchmark keeps
// the name the bench gate's baseline rows carry.
func BenchmarkPartitionWrite(b *testing.B) {
	const leaves, parts = 8, 8
	pts := dataset.Twitter(100_000, 4)
	g := grid.New(eps)
	plan, err := MakePlan(g, g.HistogramOf(pts), parts, 40, true)
	if err != nil {
		b.Fatal(err)
	}
	contribs := make([]*leafContrib, leaves)
	allCounts := make([]leafCounts, leaves)
	total := int64(len(pts))
	for l := 0; l < leaves; l++ {
		lo := total * int64(l) / leaves
		hi := total * int64(l+1) / leaves
		s := &leafShard{pts: pts[lo:hi]}
		unitOf, err := s.units(plan)
		if err != nil {
			b.Fatal(err)
		}
		contribs[l] = &leafContrib{pts: s.pts}
		contribs[l].part, contribs[l].shadow = splitIndices(plan, s.pts, unitOf, SplitOptions{})
		allCounts[l] = contribs[l].counts()
	}
	env := func(b *testing.B) (*mrnet.Network, *lustre.FS) {
		fs := lustre.New(lustre.Titan(), nil)
		net, err := mrnet.New(leaves, mrnet.DefaultFanout, mrnet.CostModel{}, fs.Clock())
		if err != nil {
			b.Fatal(err)
		}
		return net, fs
	}
	b.Run("layout=legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			net, fs := env(b)
			_, offsets, size := layoutRegions(eps, false, parts, allCounts)
			b.StartTimer()
			if err := writePartitions(context.Background(), net, fs, "parts.bin", size, contribs, offsets, parts, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}
