package geom

import (
	"cmp"
	"math"
	"slices"
)

// AlignByID returns, for every point of pts, the value that the n
// (id, value) pairs at(0..n-1) give its ID, or absent where no pair names
// it; at is called once per pair, in order. Two pairs naming one of pts'
// IDs is an error: dup is that ID and ok is false.
//
// There is no hash map on the path. When pts' IDs span no more than
// len(pts) values — a dense range in any order, the generators' and the
// server's case — the pairs land in a table indexed by ID − min;
// otherwise they are sorted by ID and each point binary-searches them.
func AlignByID(pts []Point, n int, at func(i int) (id uint64, value int), absent int) (vals []int, dup uint64, ok bool) {
	vals = make([]int, len(pts))
	if len(pts) == 0 {
		return vals, 0, true
	}
	lo, hi := pts[0].ID, pts[0].ID
	for _, p := range pts {
		lo, hi = min(lo, p.ID), max(hi, p.ID)
	}
	if hi-lo < uint64(len(pts)) {
		const unset = math.MinInt
		table := make([]int, hi-lo+1)
		for i := range table {
			table[i] = unset
		}
		for i := 0; i < n; i++ {
			id, v := at(i)
			if id < lo || id > hi {
				continue
			}
			if table[id-lo] != unset {
				return nil, id, false
			}
			table[id-lo] = v
		}
		for i, p := range pts {
			if vals[i] = table[p.ID-lo]; vals[i] == unset {
				vals[i] = absent
			}
		}
		return vals, 0, true
	}
	type pair struct {
		id uint64
		v  int
	}
	byID := func(a, b pair) int { return cmp.Compare(a.id, b.id) }
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i].id, pairs[i].v = at(i)
	}
	slices.SortFunc(pairs, byID)
	for i, p := range pts {
		j, found := slices.BinarySearchFunc(pairs, pair{id: p.ID}, byID)
		if !found {
			vals[i] = absent
			continue
		}
		if j+1 < len(pairs) && pairs[j+1].id == p.ID {
			return nil, p.ID, false
		}
		vals[i] = pairs[j].v
	}
	return vals, 0, true
}
