package merge

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/integrity"
	"repro/internal/partition"
)

// toFlat converts an oracle summary to the flat representation in its
// canonical form: cells by packed key, runs by ID, representatives
// deduplicated (the oracle keeps a fused cell's duplicate representatives
// until they exceed MaxReps; as a set they are the same points), weights
// dropped.
func toFlat(rs *refSummary) *Summary {
	s := &Summary{Key: rs.Key, Members: slices.Clone(rs.Members)}
	coords := make([]grid.Coord, 0, len(rs.Cells))
	for c := range rs.Cells {
		coords = append(coords, c)
	}
	slices.SortFunc(coords, func(a, b grid.Coord) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	values := func(m map[uint64]geom.Point) []geom.Point {
		out := make([]geom.Point, 0, len(m))
		for _, p := range m {
			out = append(out, p)
		}
		return out
	}
	for _, c := range coords {
		cd := rs.Cells[c]
		cell := Cell{Coord: c, Start: int32(len(s.Points)), Owned: cd.Owned}
		for i, run := range [][]geom.Point{slices.Clone(cd.Reps), values(cd.OwnedNonCore), values(cd.ShadowNonCore)} {
			run = setByID(run)
			for j := range run {
				run[j].Weight = 0
			}
			*[]*int32{&cell.NReps, &cell.NOwnedNonCore, &cell.NShadowNonCore}[i] = int32(len(run))
			s.Points = append(s.Points, run...)
		}
		s.Cells = append(s.Cells, cell)
	}
	return s
}

func toFlatAll(rs []*refSummary) []*Summary {
	out := make([]*Summary, len(rs))
	for i, r := range rs {
		out[i] = toFlat(r)
	}
	return out
}

// leafInputs partitions pts and clusters every leaf exactly.
type leafInput struct {
	pts    []geom.Point
	owned  int
	labels []int32
	core   []bool
	n      int
}

func leafInputs(tb testing.TB, pts []geom.Point, params geom.Params, nParts int) (grid.Grid, []leafInput) {
	tb.Helper()
	gg := grid.New(params.Eps)
	plan, err := partition.MakePlan(gg, gg.HistogramOf(pts), nParts, params.MinPts, true)
	if err != nil {
		tb.Fatal(err)
	}
	split, err := partition.Split(plan, pts, partition.SplitOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	leaves := make([]leafInput, nParts)
	for leaf := range leaves {
		combined := append(slices.Clone(split.Partitions[leaf]), split.Shadows[leaf]...)
		res, err := dbscan.Cluster(combined, params)
		if err != nil {
			tb.Fatal(err)
		}
		labels := make([]int32, len(res.Labels))
		for i, l := range res.Labels {
			labels[i] = int32(l)
		}
		leaves[leaf] = leafInput{combined, len(split.Partitions[leaf]), labels, res.Core, res.NumClusters}
	}
	return gg, leaves
}

// buildBoth summarizes every leaf with the flat code and with the oracle.
// The flat builds share one Scratch, as a cluster worker's leaves do, and
// every leaf's summaries are compared after the last build.
func buildBoth(tb testing.TB, gg grid.Grid, leaves []leafInput) (flat [][]*Summary, ref [][]*refSummary) {
	tb.Helper()
	var scratch Scratch
	for leaf, in := range leaves {
		f, err := scratch.BuildSummaries(gg, leaf, in.pts, in.owned, in.labels, in.core, in.n)
		if err != nil {
			tb.Fatal(err)
		}
		r, err := refBuildSummaries(gg, leaf, in.pts, in.owned, in.labels, in.core, in.n)
		if err != nil {
			tb.Fatal(err)
		}
		flat, ref = append(flat, f), append(ref, r)
	}
	return flat, ref
}

// handBuilt are merge_test.go's rule 1/2/3 cases as oracle groups.
func handBuilt() map[string][][]*refSummary {
	p50 := geom.Point{ID: 50, X: 0.15, Y: 0.05}
	p1, p2 := geom.Point{ID: 1, X: 0.05, Y: 0.05}, geom.Point{ID: 2, X: 0.15, Y: 0.05}
	shared := geom.Point{ID: 100, X: 0.05, Y: 0.05}
	own := func(cx int32) map[grid.Coord]bool { return map[grid.Coord]bool{{CX: cx}: true} }
	one := func(s ...*refSummary) [][]*refSummary {
		out := make([][]*refSummary, len(s))
		for i := range s {
			out[i] = []*refSummary{s[i]}
		}
		return out
	}
	rng := rand.New(rand.NewSource(2))
	var crowded []*refSummary
	for leaf := int32(0); leaf < 10; leaf++ {
		reps := make([]geom.Point, 8)
		for i := range reps {
			reps[i] = geom.Point{ID: uint64(leaf)*100 + uint64(i), X: rng.Float64() * eps, Y: rng.Float64() * eps, Weight: 2}
		}
		crowded = append(crowded, mkRefSummary(key(leaf, 0), nil, reps, nil, nil))
	}
	return map[string][][]*refSummary{
		"rule1": one(
			mkRefSummary(key(0, 0), own(0), []geom.Point{shared, {ID: 1, X: 0.02, Y: 0.02}}, nil, nil),
			mkRefSummary(key(1, 0), nil, []geom.Point{shared, {ID: 2, X: 0.08, Y: 0.08}}, nil, nil)),
		"rule2": one(
			mkRefSummary(key(0, 0), own(0), []geom.Point{{ID: 1, X: 0.08, Y: 0.05}}, nil, []geom.Point{p50}),
			mkRefSummary(key(1, 0), own(1), []geom.Point{p50, {ID: 51, X: 0.18, Y: 0.05}}, nil, nil)),
		"rule2-owner-speaks": one(
			mkRefSummary(key(0, 0), own(0), []geom.Point{{ID: 1, X: 0.08, Y: 0.05}}, nil, []geom.Point{p50}),
			mkRefSummary(key(1, 0), own(1), []geom.Point{{ID: 51, X: 0.16, Y: 0.05}}, []geom.Point{p50}, nil)),
		"rule3-fused": one(
			mkRefSummary(key(0, 0), own(0), []geom.Point{{ID: 1, X: 0.08, Y: 0.05}, {ID: 52, X: 0.17, Y: 0.05}}, nil, []geom.Point{p50}),
			mkRefSummary(key(1, 0), own(1), []geom.Point{{ID: 51, X: 0.16, Y: 0.05}}, []geom.Point{p50}, nil)),
		"transitive": one(
			mkRefSummary(key(2, 0), nil, []geom.Point{p2}, nil, nil),
			mkRefSummary(key(1, 0), nil, []geom.Point{p1, p2}, nil, nil),
			mkRefSummary(key(0, 0), nil, []geom.Point{p1}, nil, nil)),
		"crowded": one(crowded...),
	}
}

// reduceBoth runs a fanout-4 reduction over both representations and
// requires byte-identical canonical encodings at every node of every
// level (level 0 is the leaves' own summaries).
func reduceBoth(t *testing.T, gg grid.Grid, eps float64, flat [][]*Summary, ref [][]*refSummary) []*Summary {
	t.Helper()
	for level := 0; ; level++ {
		for i := range flat {
			got, want := AppendSummaries(nil, flat[i]), AppendSummaries(nil, toFlatAll(ref[i]))
			if !bytes.Equal(got, want) {
				t.Fatalf("level %d node %d: flat result (%d summaries, %d bytes) differs from the oracle's (%d, %d)",
					level, i, len(flat[i]), len(got), len(ref[i]), len(want))
			}
		}
		if len(flat) == 1 {
			return flat[0]
		}
		var nf [][]*Summary
		var nr [][]*refSummary
		for lo := 0; lo < len(flat); lo += 4 {
			hi := min(lo+4, len(flat))
			nf = append(nf, Combine(gg, eps, flat[lo:hi]))
			nr = append(nr, refCombine(gg, eps, ref[lo:hi]))
		}
		flat, ref = nf, nr
	}
}

type dataCase struct {
	name   string
	pts    []geom.Point
	params geom.Params
	leaves int
}

func dataCases() []dataCase {
	tw, sd := geom.Params{Eps: 0.1, MinPts: 40}, geom.Params{Eps: 0.00015, MinPts: 5}
	return []dataCase{
		{"twitter50k/4", dataset.Twitter(50_000, 4), tw, 4},
		{"twitter50k/16", dataset.Twitter(50_000, 4), tw, 16},
		{"sdss150k/16", dataset.SDSS(150_000, 5), sd, 16},
	}
}

func TestFlatMatchesOracle(t *testing.T) {
	for name, ref := range handBuilt() {
		t.Run(name, func(t *testing.T) {
			flat := make([][]*Summary, len(ref))
			for i := range ref {
				flat[i] = toFlatAll(ref[i])
			}
			reduceBoth(t, g, eps, flat, ref)
		})
	}
	for _, tc := range dataCases() {
		t.Run(tc.name, func(t *testing.T) {
			gg, leaves := leafInputs(t, tc.pts, tc.params, tc.leaves)
			flat, ref := buildBoth(t, gg, leaves)
			final := reduceBoth(t, gg, tc.params.Eps, flat, ref)
			if len(final) == 0 {
				t.Fatal("no clusters")
			}
		})
	}
}

// TestCombineOrderIndependent: the 16 leaves' groups arrive in any order
// and Combine returns the same bytes (ROADMAP item 3 asked whether merge
// arrival order explains serve_jobs' rare differing label hash: it does
// not).
func TestCombineOrderIndependent(t *testing.T) {
	tc := dataCases()[2]
	gg, leaves := leafInputs(t, tc.pts, tc.params, tc.leaves)
	flat, _ := buildBoth(t, gg, leaves)
	want := AppendSummaries(nil, Combine(gg, tc.params.Eps, benchClone(flat)))
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 200; round++ {
		groups := benchClone(flat)
		rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
		if got := AppendSummaries(nil, Combine(gg, tc.params.Eps, groups)); !bytes.Equal(got, want) {
			t.Fatalf("shuffle %d: Combine result depends on group order", round)
		}
	}
}

// equalSummaries compares logical content: a decoded summary's runs are
// packed while Combine leaves gaps where rule 3 shrank one.
func equalSummaries(a, b []*Summary) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d vs %d summaries", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Key != y.Key || !slices.Equal(x.Members, y.Members) || len(x.Cells) != len(y.Cells) {
			return fmt.Errorf("summary %d: header differs: %v vs %v", i, x.Key, y.Key)
		}
		for j := range x.Cells {
			cx, cy := &x.Cells[j], &y.Cells[j]
			if cx.Coord != cy.Coord || cx.Owned != cy.Owned || !slices.Equal(x.Reps(cx), y.Reps(cy)) ||
				!slices.Equal(x.OwnedNonCore(cx), y.OwnedNonCore(cy)) || !slices.Equal(x.ShadowNonCore(cx), y.ShadowNonCore(cy)) {
				return fmt.Errorf("summary %v cell %v differs", x.Key, cx.Coord)
			}
		}
	}
	return nil
}

func TestCodecRoundTrip(t *testing.T) {
	tc := dataCases()[0]
	gg, leaves := leafInputs(t, tc.pts, tc.params, tc.leaves)
	flat, _ := buildBoth(t, gg, leaves)
	blocks := append(slices.Clone(flat), Combine(gg, tc.params.Eps, benchClone(flat)), nil)
	for _, ref := range handBuilt() {
		for _, grp := range ref {
			blocks = append(blocks, toFlatAll(grp))
		}
	}
	for i, sums := range blocks {
		enc := AppendSummaries(nil, sums)
		var size int64 = BlockHeaderSize
		for _, s := range sums {
			size += s.WireSize()
		}
		if size != int64(len(enc)) {
			t.Fatalf("block %d: Σ WireSize + header = %d, encoded %d bytes", i, size, len(enc))
		}
		dec, err := DecodeSummaries(enc)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if err := equalSummaries(dec, sums); err != nil {
			t.Fatalf("block %d: Decode(Append(x)) != x: %v", i, err)
		}
		if again := AppendSummaries(nil, dec); !bytes.Equal(again, enc) {
			t.Fatalf("block %d: Append(Decode(p)) != p", i)
		}
	}
}

// allocatedBytes reports what f allocates: the least of three readings of
// the process-wide counter, which other goroutines (the fuzz worker's own)
// also advance.
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func FuzzDecodeSummaries(f *testing.F) {
	for _, ref := range handBuilt() {
		for _, grp := range ref {
			f.Add(AppendSummaries(nil, toFlatAll(grp)))
		}
	}
	gg, leaves := leafInputs(f, dataset.Twitter(3000, 4), geom.Params{Eps: 0.1, MinPts: 10}, 3)
	flat, _ := buildBoth(f, gg, leaves)
	f.Add(AppendSummaries(nil, Combine(gg, 0.1, flat)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		var sums []*Summary
		var err error
		// A decoded value is at most ~5× its encoding (an 80-byte Summary
		// from a 16-byte header), an error a few hundred bytes: a hostile
		// count must fail before make.
		if got := allocatedBytes(func() { sums, err = DecodeSummaries(p) }); got > 8*uint64(len(p))+2048 {
			t.Fatalf("decoding %d bytes allocated %d", len(p), got)
		}
		if err != nil {
			if !errors.Is(err, integrity.ErrMalformed) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if again := AppendSummaries(nil, sums); !bytes.Equal(again, p) {
			t.Fatalf("decoded block re-encodes to different bytes")
		}
	})
}
