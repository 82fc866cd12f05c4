package grid

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/geom"
)

// Histogram counts points per non-empty cell. This is the only information
// the distributed partitioner ships to the root (§3.1.3): "the partitioner
// is able to ... only send a point count of each non-empty Eps x Eps cell".
//
// It is a sorted run table, the grid layout of Wang, Gu & Shun: the
// non-empty cells ascending by Coord.Key (the partitioner's iteration
// order) with their counts, all positive, in a parallel slice. A histogram
// is immutable once built, so it stays sorted from the leaf that counts it
// through the reduction (Sum) to the root's plan, which reads it in order.
type Histogram struct {
	keys   []uint64 // Coord.Key of each non-empty cell, ascending
	counts []int64
}

// NewHistogram builds a histogram from per-cell counts in any order: it
// sorts them once, adds the counts of a repeated cell and drops a cell
// whose count comes to zero. It is for hand-made histograms; HistogramOf
// and Sum build theirs in order.
func NewHistogram(cells []Coord, counts []int64) *Histogram {
	if len(cells) != len(counts) {
		panic(fmt.Sprintf("grid: %d cells, %d counts", len(cells), len(counts)))
	}
	type run struct {
		key uint64
		n   int64
	}
	runs := make([]run, len(cells))
	for i, c := range cells {
		runs[i] = run{c.Key(), counts[i]}
	}
	slices.SortFunc(runs, func(a, b run) int { return cmp.Compare(a.key, b.key) })
	h := &Histogram{}
	for i := 0; i < len(runs); {
		k, n := runs[i].key, int64(0)
		for ; i < len(runs) && runs[i].key == k; i++ {
			n += runs[i].n
		}
		if n != 0 {
			h.keys = append(h.keys, k)
			h.counts = append(h.counts, n)
		}
	}
	return h
}

// Len returns the number of non-empty cells.
func (h *Histogram) Len() int { return len(h.keys) }

// At returns the i-th non-empty cell in iteration order and its count.
func (h *Histogram) At(i int) (Coord, int64) { return coordOfKey(h.keys[i]), h.counts[i] }

// Total returns the total point count across all cells.
func (h *Histogram) Total() int64 {
	var t int64
	for _, n := range h.counts {
		t += n
	}
	return t
}

// MaxCell returns the most populous cell and its count, the first in
// iteration order among equals (zero Coord and 0 for an empty histogram).
// The strong-scaling limit in the paper (§5.1.2) is set by the single
// densest Eps grid cell, which cannot be subdivided.
func (h *Histogram) MaxCell() (Coord, int64) {
	best, bestN := -1, int64(0)
	for i, n := range h.counts {
		if n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		return Coord{}, 0
	}
	return coordOfKey(h.keys[best]), bestN
}

// coordOfKey inverts Coord.Key.
func coordOfKey(k uint64) Coord {
	return Coord{CX: int32(uint32(k>>32) ^ 1<<31), CY: int32(uint32(k) ^ 1<<31)}
}

// HistogramOf builds a histogram of pts on grid g: one LSD radix sort of
// their cell keys, then a count of the runs.
//
// A key is packed relative to the shard's lowest cell, (cx−bx)<<yBits |
// (cy−by), which orders as Coord.Key does; it is 32 bits wide when the
// shard's cells span at most 32 bits in all and 64 otherwise, and the sort
// runs digit passes over the span's bits only (three on the SDSS and
// Twitter inputs). The span is first read off the extreme coordinates,
// which bound every cell while x/Eps and y/Eps are finite and within
// int32; CellOf of anything else is implementation-defined, so every cell
// is checked against the span, and one outside it sends the count round
// again with the span of the cells themselves.
func (g Grid) HistogramOf(pts []geom.Point) *Histogram {
	h, _, _ := g.histogramOf(pts, false)
	return h
}

// RankedHistogramOf is HistogramOf for a shard of the pipeline's input:
// it refuses the shard with a *RangeError for its first point outside
// InRange, and it also keeps the sort's permutation: rank[i] is the run
// of pts[i]'s cell, so At(rank[i]) is CellOf(pts[i]). When the span fits
// 32 bits each sorted word carries the point's index in its low 32 bits,
// under its key, and the run count writes the ranks; the sort makes the
// same passes over the key bits. A wider span returns a nil rank: the
// caller then finds each point's cell itself. The range is read off the
// extremes the span is taken from, so it costs no pass of its own.
func (g Grid) RankedHistogramOf(pts []geom.Point) (h *Histogram, rank []int32, err error) {
	return g.histogramOf(pts, true)
}

// histogramOf is HistogramOf, ranked when asked and the span allows.
// Ranked, it refuses a point outside InRange.
func (g Grid) histogramOf(pts []geom.Point, ranked bool) (*Histogram, []int32, error) {
	if len(pts) == 0 {
		return &Histogram{}, nil, nil
	}
	sp, ok, inRange := g.coordSpan(pts)
	if ranked && !inRange {
		i := slices.IndexFunc(pts, func(p geom.Point) bool { return !g.InRange(p) })
		return nil, nil, &RangeError{Point: pts[i], Side: g.side}
	}
	if ok {
		if h, rank := histogramIn(g, pts, sp, ranked); h != nil {
			return h, rank, nil
		}
	}
	h, _ := histogramIn(g, pts, g.cellSpan(pts), false)
	return h, nil, nil
}

// span is a packing of cells relative to base: a cell of the span packs
// as (cx−base.CX)<<yBits | (cy−base.CY), width bits in all.
type span struct {
	base           Coord
	xRange, yRange uint32 // last cell − base, per axis
	yBits, width   uint
}

// newSpan returns the span of cells [lo, hi] per axis; ok is false when hi
// lies below lo. The ranges are taken in uint32, so a span that reaches
// from MinInt32 to MaxInt32 does not wrap.
func newSpan(lo, hi Coord) (sp span, ok bool) {
	if hi.CX < lo.CX || hi.CY < lo.CY {
		return span{}, false
	}
	sp = span{base: lo, xRange: uint32(hi.CX) - uint32(lo.CX), yRange: uint32(hi.CY) - uint32(lo.CY)}
	sp.yBits = uint(bits.Len32(sp.yRange))
	sp.width = uint(bits.Len32(sp.xRange)) + sp.yBits
	return sp, true
}

// coordSpan is the span of the cells of pts' extreme coordinates (a NaN
// is no extreme), and whether every point is InRange: no coordinate is
// NaN and the extremes are InRange. The span bounds every cell only on
// tame input; histogramIn checks.
func (g Grid) coordSpan(pts []geom.Point) (sp span, ok, inRange bool) {
	lo := geom.Point{X: math.Inf(1), Y: math.Inf(1)}
	hi := geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	nan := false
	for _, p := range pts {
		if p.X < lo.X {
			lo.X = p.X
		}
		if p.X > hi.X {
			hi.X = p.X
		}
		if p.Y < lo.Y {
			lo.Y = p.Y
		}
		if p.Y > hi.Y {
			hi.Y = p.Y
		}
		// NaN, or +Inf beside -Inf, which the extremes refuse anyway.
		if s := p.X + p.Y; s != s {
			nan = true
		}
	}
	sp, ok = newSpan(g.CellOf(lo), g.CellOf(hi))
	return sp, ok, !nan && g.InRange(lo) && g.InRange(hi)
}

// cellSpan is the span of pts' cells themselves, which always holds them.
func (g Grid) cellSpan(pts []geom.Point) span {
	lo := Coord{CX: math.MaxInt32, CY: math.MaxInt32}
	hi := Coord{CX: math.MinInt32, CY: math.MinInt32}
	for _, p := range pts {
		c := g.CellOf(p)
		lo.CX, hi.CX = min(lo.CX, c.CX), max(hi.CX, c.CX)
		lo.CY, hi.CY = min(lo.CY, c.CY), max(hi.CY, c.CY)
	}
	sp, _ := newSpan(lo, hi)
	return sp
}

// histogramIn counts pts' cells packed in sp: under their indices in
// 64-bit words when ranked and the span fits 32 bits, in 32-bit keys when
// it fits otherwise. It returns a nil histogram when a cell lies outside
// sp.
func histogramIn(g Grid, pts []geom.Point, sp span, ranked bool) (*Histogram, []int32) {
	switch {
	case ranked && sp.width <= 32 && len(pts) <= math.MaxInt32:
		return rankCells(g, pts, sp)
	case sp.width <= 32:
		return countCells[uint32](g, pts, sp), nil
	default:
		return countCells[uint64](g, pts, sp), nil
	}
}

// pack returns c's key in sp; ok is false when c lies outside sp.
func (sp span) pack(c Coord) (key uint64, ok bool) {
	dx, dy := uint32(c.CX)-uint32(sp.base.CX), uint32(c.CY)-uint32(sp.base.CY)
	return uint64(dx)<<sp.yBits | uint64(dy), dx <= sp.xRange && dy <= sp.yRange
}

// unpack inverts pack into Coord.Key.
func (sp span) unpack(key uint64) uint64 {
	return Coord{
		CX: int32(uint32(sp.base.CX) + uint32(key>>sp.yBits)),
		CY: int32(uint32(sp.base.CY) + uint32(key&(1<<sp.yBits-1))),
	}.Key()
}

// countCells is histogramIn at one key width K, unranked.
func countCells[K uint32 | uint64](g Grid, pts []geom.Point, sp span) *Histogram {
	keys := make([]K, len(pts))
	for i, p := range pts {
		k, ok := sp.pack(g.CellOf(p))
		if !ok {
			return nil
		}
		keys[i] = K(k)
	}
	keys = radixSort(keys, 0, sp.width)
	runs := 1
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[i-1] {
			runs++
		}
	}
	h := &Histogram{keys: make([]uint64, runs), counts: make([]int64, runs)}
	r := -1
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			r++
			h.keys[r] = sp.unpack(uint64(k))
		}
		h.counts[r]++
	}
	return h
}

// rankCells is histogramIn ranking pts: each word is a key of at most 32
// bits over the point's index, and the sort passes over the key bits
// only, so a run's indices stay ascending. Its run count is countCells'
// with a shift; sharing one loop with a variable shift slowed the
// unranked count by a tenth on Twitter 60 k.
func rankCells(g Grid, pts []geom.Point, sp span) (*Histogram, []int32) {
	words := make([]uint64, len(pts))
	for i, p := range pts {
		k, ok := sp.pack(g.CellOf(p))
		if !ok {
			return nil, nil
		}
		words[i] = k<<32 | uint64(i)
	}
	words = radixSort(words, 32, sp.width)
	runs := 1
	for i := 1; i < len(words); i++ {
		if words[i]>>32 != words[i-1]>>32 {
			runs++
		}
	}
	h := &Histogram{keys: make([]uint64, runs), counts: make([]int64, runs)}
	rank := make([]int32, len(pts))
	r := -1
	for i, w := range words {
		if i == 0 || w>>32 != words[i-1]>>32 {
			r++
			h.keys[r] = sp.unpack(w >> 32)
		}
		h.counts[r]++
		rank[uint32(w)] = int32(r)
	}
	return h, rank
}

// radixBits caps a digit: 2¹¹ buckets of counts stay in L1.
const radixBits = 11

// radixSort sorts keys by their width bits from bit lo up (no key sets a
// bit above them), stably, in LSD digit passes of at most radixBits bits
// through one scratch buffer; it returns whichever of the two holds the
// result.
func radixSort[K uint32 | uint64](keys []K, lo, width uint) []K {
	passes := (width + radixBits - 1) / radixBits
	if passes == 0 {
		return keys
	}
	tmp := make([]K, len(keys))
	digit := (width + passes - 1) / passes
	mask := K(1)<<digit - 1
	var next [1 << radixBits]int
	for shift := lo; shift < lo+width; shift += digit {
		bucket := next[:mask+1]
		clear(bucket)
		for _, k := range keys {
			bucket[k>>shift&mask]++
		}
		at := 0
		for d, n := range bucket {
			bucket[d] = at
			at += n
		}
		for _, k := range keys {
			d := k >> shift & mask
			tmp[bucket[d]] = k
			bucket[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Sum returns the histogram of all of parts' points: one k-way merge of
// their sorted runs through a binary heap, adding the counts of a cell
// that several parts hold, so each entry costs O(log k) key comparisons
// however many parts there are. A lone part is returned as it is, without
// a copy. The partitioner's reduction filter sums its children with it
// (§3.1.3).
func Sum(parts []*Histogram) *Histogram {
	h, _ := sum(parts)
	return h
}

// cursor is one part's unmerged tail in sum's heap.
type cursor struct {
	keys   []uint64
	counts []int64
}

// sum is Sum, also returning the number of key comparisons it made.
func sum(parts []*Histogram) (*Histogram, int) {
	if len(parts) == 1 {
		return parts[0], 0
	}
	heap := make([]cursor, 0, len(parts))
	n := 0
	for _, h := range parts {
		if len(h.keys) > 0 {
			heap = append(heap, cursor{h.keys, h.counts})
			n += len(h.keys)
		}
	}
	compares := 0
	for i := len(heap)/2 - 1; i >= 0; i-- {
		compares += siftDown(heap, i)
	}
	out := &Histogram{keys: make([]uint64, 0, n), counts: make([]int64, 0, n)}
	for len(heap) > 0 {
		top := &heap[0]
		if m := len(out.keys); m > 0 && out.keys[m-1] == top.keys[0] {
			out.counts[m-1] += top.counts[0]
		} else {
			out.keys = append(out.keys, top.keys[0])
			out.counts = append(out.counts, top.counts[0])
		}
		if top.keys, top.counts = top.keys[1:], top.counts[1:]; len(top.keys) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		compares += siftDown(heap, 0)
	}
	return out, compares
}

// siftDown restores the heap order below i and returns the key
// comparisons it made.
func siftDown(heap []cursor, i int) (compares int) {
	for {
		m := 2*i + 1
		if m >= len(heap) {
			return compares
		}
		if r := m + 1; r < len(heap) {
			compares++
			if heap[r].keys[0] < heap[m].keys[0] {
				m = r
			}
		}
		compares++
		if heap[i].keys[0] <= heap[m].keys[0] {
			return compares
		}
		heap[i], heap[m] = heap[m], heap[i]
		i = m
	}
}
