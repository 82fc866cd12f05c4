package merge

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
)

// benchSummaries builds realistic per-leaf summaries from exact local
// clusterings of a partitioned Twitter dataset.
func benchSummaries(b *testing.B, n, nParts int) [][]*Summary {
	b.Helper()
	gg, leaves := leafInputs(b, dataset.Twitter(n, 4), geom.Params{Eps: 0.1, MinPts: 40}, nParts)
	flat, _ := buildBoth(b, gg, leaves)
	return flat
}

// BenchmarkBuildSummaries summarizes all 16 leaves of the two shapes the
// end-to-end benchmark runs: sparse SDSS (thousands of small clusters a
// leaf) and dense Twitter (a few large ones), through one Scratch per op
// as one cluster worker of a run would.
func BenchmarkBuildSummaries(b *testing.B) {
	for _, tc := range dataCases()[1:] {
		gg, leaves := leafInputs(b, tc.pts, tc.params, tc.leaves)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var scratch Scratch
				for leaf, in := range leaves {
					if _, err := scratch.BuildSummaries(gg, leaf, in.pts, in.owned, in.labels, in.core, in.n); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkCombine(b *testing.B) {
	for _, nParts := range []int{4, 16} {
		groups := benchSummaries(b, 50_000, nParts)
		b.Run(fmt.Sprintf("leaves=%d", nParts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Clone the summaries each round: Combine mutates them.
				fresh := benchClone(groups)
				out := Combine(grid.New(0.1), 0.1, fresh)
				if len(out) == 0 {
					b.Fatal("no clusters")
				}
			}
		})
	}
}

func benchClone(groups [][]*Summary) [][]*Summary {
	out := make([][]*Summary, len(groups))
	for gi, grp := range groups {
		out[gi] = make([]*Summary, len(grp))
		for si, s := range grp {
			out[gi][si] = &Summary{Key: s.Key, Members: slices.Clone(s.Members), Cells: slices.Clone(s.Cells), Points: slices.Clone(s.Points)}
		}
	}
	return out
}
