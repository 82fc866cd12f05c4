package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// alignByIDMap is AlignByID with the hash map it replaced.
func alignByIDMap(pts []Point, ids []uint64, vals []int, absent int) ([]int, uint64, bool) {
	byID := make(map[uint64]int, len(ids))
	want := make(map[uint64]bool, len(pts))
	for _, p := range pts {
		want[p.ID] = true
	}
	for i, id := range ids {
		if _, dup := byID[id]; dup && want[id] {
			return nil, id, false
		}
		byID[id] = vals[i]
	}
	out := make([]int, len(pts))
	for i, p := range pts {
		if v, ok := byID[p.ID]; ok {
			out[i] = v
		} else {
			out[i] = absent
		}
	}
	return out, 0, true
}

func TestAlignByIDMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 500
	perm := rng.Perm(n)
	shapes := map[string]func(i int) uint64{
		"dense":    func(i int) uint64 { return uint64(i) },
		"shuffled": func(i int) uint64 { return uint64(perm[i]) },
		"offset":   func(i int) uint64 { return ^uint64(0) - uint64(perm[i]) },
		"sparse":   func(i int) uint64 { return uint64(perm[i]) * 7919 },
		"one":      func(int) uint64 { return 42 },
	}
	for name, id := range shapes {
		for _, dup := range []bool{false, true} {
			pts := make([]Point, n)
			var ids []uint64
			var vals []int
			for i := range pts {
				pts[i].ID = id(i)
				if i%4 != 0 || name == "one" && i == 0 {
					ids, vals = append(ids, pts[i].ID), append(vals, i%9-1)
				}
			}
			if name == "one" {
				ids, vals = ids[:1], vals[:1]
			}
			ids, vals = append(ids, 1<<62+1), append(vals, 5) // a pair no point asks for
			if dup {
				ids, vals = append(ids, ids[0]), append(vals, 3)
			}
			pts = append(pts, pts[1], pts[1]) // repeated input points are fine
			got, gotDup, ok := AlignByID(pts, len(ids), func(i int) (uint64, int) { return ids[i], vals[i] }, -7)
			want, wantDup, wok := alignByIDMap(pts, ids, vals, -7)
			if ok != wok || ok == dup || gotDup != wantDup || !slices.Equal(got, want) {
				t.Errorf("%s dup=%t: (ok %t, dup %d) vs map version (ok %t, dup %d), labels equal: %t",
					name, dup, ok, gotDup, wok, wantDup, slices.Equal(got, want))
			}
		}
	}
	if got, _, ok := AlignByID(nil, 0, nil, -1); !ok || len(got) != 0 {
		t.Errorf("empty input: %v, %t", got, ok)
	}
}
