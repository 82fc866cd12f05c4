package grid

import (
	"errors"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// mapHistogram is the oracle: the Go map count HistogramOf replaced, on
// the same CellOf.
func mapHistogram(g Grid, pts []geom.Point) map[Coord]int64 {
	m := make(map[Coord]int64)
	for _, p := range pts {
		m[g.CellOf(p)]++
	}
	return m
}

func asMap(h *Histogram) map[Coord]int64 {
	m := make(map[Coord]int64, h.Len())
	for i := range h.Len() {
		c, n := h.At(i)
		m[c] = n
	}
	return m
}

// checkRuns holds h to its invariants: cells strictly ascending by key,
// every count positive.
func checkRuns(t *testing.T, h *Histogram) {
	t.Helper()
	for i := range h.Len() {
		c, n := h.At(i)
		if n <= 0 {
			t.Fatalf("cell %v holds count %d", c, n)
		}
		if i > 0 {
			if prev, _ := h.At(i - 1); !prev.Less(c) {
				t.Fatalf("cells %v, %v out of order at %d", prev, c, i)
			}
		}
	}
}

// fuzzEps are the cell sides a fuzz input picks from: plain ones, one
// whose x/Eps overflows every finite coordinate, and one whose quotient
// underflows.
var fuzzEps = []float64{1, 0.1, 0.00015, 3, math.SmallestNonzeroFloat64, 1e300}

// fuzzCoord turns one byte into a coordinate on a grid of side eps. Bytes
// below 64 pick a hostile value; the rest fall in the cells around zero.
func fuzzCoord(b byte, eps float64) float64 {
	const two31 = 1 << 31
	hostile := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1030,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
		two31 * eps, -two31 * eps,
		math.Nextafter(two31*eps, math.Inf(1)), math.Nextafter(two31*eps, math.Inf(-1)),
		math.Nextafter(-two31*eps, math.Inf(1)), math.Nextafter(-two31*eps, math.Inf(-1)),
		(two31 - 0.5) * eps, (-two31 + 0.5) * eps, (two31 + 1.5) * eps, (-two31 - 1.5) * eps,
		0.5 * eps, -0.5 * eps, 1.5 * eps, -1.5 * eps,
		// With a cell at 0.5·Eps on the other axis: spans of 16+16 = 32
		// bits and of 16+17 = 33 bits, either side of the key widths.
		65535.5 * eps, 65536.5 * eps, -65535.5 * eps, -65536.5 * eps,
	}
	if int(b) < 64 {
		return hostile[int(b)%len(hostile)]
	}
	return (float64(b) - 160) * 0.37 * eps
}

// checkRanked holds RankedHistogramOf to InRange, HistogramOf and CellOf:
// a *RangeError naming the first point outside InRange exactly when there
// is one, and otherwise the same runs, and a rank exactly when the count
// could make one (a non-empty shard whose extremes' span holds every cell
// and fits 32 bits), with At(rank[i]) pts[i]'s cell. Hostile input (NaN,
// ±Inf, ±2³¹·Eps) is refused; a 33-bit span is counted without a rank.
func checkRanked(t *testing.T, g Grid, pts []geom.Point, want *Histogram) {
	t.Helper()
	h, rank, err := g.RankedHistogramOf(pts)
	if i := slices.IndexFunc(pts, func(p geom.Point) bool { return !g.InRange(p) }); i >= 0 {
		var re *RangeError
		same := func(a, b geom.Point) bool { // bit for bit: NaN included
			return a.ID == b.ID && math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
		}
		if !errors.As(err, &re) || !same(re.Point, pts[i]) || re.Side != g.Side() || h != nil || rank != nil {
			t.Fatalf("point %d %v is out of range: got %v, %v, err %v", i, pts[i], h != nil, rank != nil, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("every point in range: %v", err)
	}
	if !slices.Equal(h.keys, want.keys) || !slices.Equal(h.counts, want.counts) {
		t.Fatalf("ranked histogram %v, HistogramOf %v", asMap(h), asMap(want))
	}
	sp, rankable, _ := g.coordSpan(pts)
	rankable = rankable && sp.width <= 32 && len(pts) > 0
	for _, p := range pts {
		c := g.CellOf(p)
		rankable = rankable && uint32(c.CX)-uint32(sp.base.CX) <= sp.xRange && uint32(c.CY)-uint32(sp.base.CY) <= sp.yRange
	}
	if (rank != nil) != rankable {
		t.Fatalf("rank %v for %d points whose span %+v is rankable=%v", rank != nil, len(pts), sp, rankable)
	}
	if rank == nil {
		return
	}
	if len(rank) != len(pts) {
		t.Fatalf("%d ranks for %d points", len(rank), len(pts))
	}
	for i, p := range pts {
		if c, _ := h.At(int(rank[i])); c != g.CellOf(p) {
			t.Fatalf("point %d %v: rank %d is cell %v, CellOf %v", i, p, rank[i], c, g.CellOf(p))
		}
	}
}

// FuzzHistogramOf: bytes become an Eps, up to 300 points drawn from
// hostile coordinates and small cells either side of zero, and a split
// into 1–8 shards. Every shard's histogram and their Sum must be sorted,
// hold no zero count and equal the map oracle on the same CellOf, and
// every shard's ranked histogram must pass checkRanked.
func FuzzHistogramOf(f *testing.F) {
	f.Add([]byte{0, 1, 200, 201, 200, 201, 90, 250})
	f.Add([]byte{1, 3, 6, 6, 7, 200, 8, 9, 200, 6, 100, 100, 6, 160})
	f.Add([]byte{0, 0, 21, 21, 25, 25})         // 16 + 16 bits of span: 32-bit keys
	f.Add([]byte{0, 1, 21, 21, 25, 26, 23, 21}) // 16 + 17 bits: 64-bit keys
	f.Add([]byte{2, 2, 27, 21, 25, 21, 21, 28}) // 17 + 17 bits, cells either side of zero
	f.Add([]byte{0, 4, 11, 12, 19, 20, 13, 14, 15, 16, 17, 18, 160, 160})
	f.Add([]byte{4, 7, 200, 201, 202, 150, 7, 8, 9, 10})
	f.Add([]byte{5, 1, 2, 3, 4, 5, 200, 70})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := New(fuzzEps[int(data[0])%len(fuzzEps)])
		shards := 1 + int(data[1])%8
		data = data[2:]
		pts := make([]geom.Point, 0, len(data)/2)
		for i := 0; i+1 < len(data) && len(pts) < 300; i += 2 {
			pts = append(pts, geom.Point{ID: uint64(len(pts)), X: fuzzCoord(data[i], g.Side()), Y: fuzzCoord(data[i+1], g.Side())})
		}
		parts := make([]*Histogram, shards)
		for s := range parts {
			shard := pts[len(pts)*s/shards : len(pts)*(s+1)/shards]
			parts[s] = g.HistogramOf(shard)
			checkRuns(t, parts[s])
			if got, want := asMap(parts[s]), mapHistogram(g, shard); !maps.Equal(got, want) {
				t.Fatalf("shard %d: histogram %v, oracle %v", s, got, want)
			}
			checkRanked(t, g, shard, parts[s])
		}
		h := Sum(parts)
		checkRuns(t, h)
		if got, want := asMap(h), mapHistogram(g, pts); !maps.Equal(got, want) {
			t.Fatalf("sum %v, oracle %v", got, want)
		}
		if h.Total() != int64(len(pts)) {
			t.Fatalf("sum holds %d points, input %d", h.Total(), len(pts))
		}
	})
}

// TestHistogramOfPacksBothWidths pins which key width the packing picks
// at the boundary and that both count right.
func TestHistogramOfPacksBothWidths(t *testing.T) {
	g := New(1)
	for _, tc := range []struct {
		pts   []geom.Point
		width uint
	}{
		{[]geom.Point{{X: 0.5, Y: 0.5}, {X: 65535.5, Y: 65535.5}}, 32},
		{[]geom.Point{{X: 0.5, Y: 0.5}, {X: 65535.5, Y: 65536.5}}, 33},
		{[]geom.Point{{X: -2147483648, Y: 0}, {X: 2147483647, Y: 0}}, 32},
	} {
		sp, ok, _ := g.coordSpan(tc.pts)
		if !ok || sp.width != tc.width {
			t.Errorf("%v: span %+v (ok=%v), want width %d", tc.pts, sp, ok, tc.width)
		}
		h := g.HistogramOf(tc.pts)
		if got, want := asMap(h), mapHistogram(g, tc.pts); !maps.Equal(got, want) {
			t.Errorf("%v: histogram %v, oracle %v", tc.pts, got, want)
		}
		checkRanked(t, g, tc.pts, h)
	}
}

var histSink *Histogram

// BenchmarkHistogramOf counts the two benchmark inputs' cells: SDSS 150 k
// at Eps 0.00015 (about 50 k cells of a few points, batch_io's shape) and
// Twitter 60 k at Eps 0.1 (about 9 k cells, batch_dense's). The ranked
// rows also rank every point, as the partitioner leaves do.
func BenchmarkHistogramOf(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    Grid
		pts  []geom.Point
	}{
		{"sdss/points=150000", New(0.00015), dataset.SDSS(150_000, 1)},
		{"twitter/points=60000", New(0.1), dataset.Twitter(60_000, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				histSink = bc.g.HistogramOf(bc.pts)
			}
		})
		b.Run(bc.name+"/ranked", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				histSink, _, _ = bc.g.RankedHistogramOf(bc.pts)
			}
		})
	}
}
