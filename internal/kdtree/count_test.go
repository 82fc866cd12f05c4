package kdtree

import (
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestSubtreeCounts: every node's Start/Count is its subtree's range of
// Order — the root's is everything, a parent's is its children's ranges
// back to back — for both stop rules and every tie-heavy input.
func TestSubtreeCounts(t *testing.T) {
	for name, pts := range tieHeavyInputs() {
		var ws Workspace
		for rule, build := range map[string]func() *Flat{
			"Build":      func() *Flat { _, f := ws.Build(pts, 8); return f },
			"BuildCells": func() *Flat { _, f := ws.BuildCells(pts, 8, 0.05); return f },
		} {
			f := build()
			if len(pts) == 0 {
				continue
			}
			if f.Start[0] != 0 || int(f.Count[0]) != len(pts) {
				t.Fatalf("%s/%s: root range %d+%d, want 0+%d", name, rule, f.Start[0], f.Count[0], len(pts))
			}
			for ni, l := range f.Left {
				if l < 0 {
					continue
				}
				r := f.Right[ni]
				if f.Count[ni] != f.Count[l]+f.Count[r] || f.Start[l] != f.Start[ni] || f.Start[r] != f.Start[l]+f.Count[l] {
					t.Fatalf("%s/%s: node %d holds %d+%d, its children %d+%d and %d+%d", name, rule, ni,
						f.Start[ni], f.Count[ni], f.Start[l], f.Count[l], f.Start[r], f.Count[r])
				}
			}
		}
	}
}

// rangeNoShortcut is Range as it was before leaves inside the disc were
// taken whole: every point of a visited leaf is tested. It fixes the
// callback order Range must keep.
func rangeNoShortcut(f *Flat, xs, ys []float64, cx, cy, eps float64, self int32, fn func(i int32) bool) {
	eps2 := eps * eps
	stack := []int32{0}
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b := f.Bounds[4*ni : 4*ni+4]
		dx, dy := axisDist(cx, b[0], b[2]), axisDist(cy, b[1], b[3])
		if dx*dx+dy*dy > eps2 {
			continue
		}
		if f.Left[ni] >= 0 {
			stack = append(stack, f.Left[ni], f.Right[ni])
			continue
		}
		for _, i := range f.Order[f.Start[ni] : f.Start[ni]+f.Count[ni]] {
			ddx, ddy := cx-xs[i], cy-ys[i]
			if i != self && ddx*ddx+ddy*ddy <= eps2 && !fn(i) {
				return
			}
		}
	}
}

// TestInsideShortcutMatchesBruteForce drives CountRange and Range through
// the wholly-inside shortcut's cases: self inside a leaf taken whole
// (subtracted once), self outside every such leaf, no self, a center that
// is not self's point, a limit reached inside a leaf taken whole (the
// limit itself comes back, as when it is reached point by point), and a
// disc holding the whole tree. Counts equal brute force; Range reports
// the points of the traversal without the shortcut, in its order.
func TestInsideShortcutMatchesBruteForce(t *testing.T) {
	// A 16 × 16 lattice of spacing 1/16 with four copies of every point:
	// leaves of four identical points are taken whole by any disc that
	// reaches them, and eps values that are multiples of the spacing put
	// points at d² == eps² exactly.
	var pts []geom.Point
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			for k := 0; k < 4; k++ {
				pts = append(pts, geom.Point{ID: uint64(len(pts)), X: float64(x) / 16, Y: float64(y) / 16})
			}
		}
	}
	tr := Build(pts, 4)
	f := tr.Flat()
	xs, ys := tr.Coords()
	center := int32(4 * (8*16 + 8)) // a copy of lattice site (8, 8)
	far := int32(0)                 // a copy of site (0, 0)
	cases := []struct {
		name   string
		cx, cy float64
		eps    float64
		self   int32
	}{
		{"self inside a whole leaf", xs[center], ys[center], 0.125, center},
		{"self is a far point", xs[center], ys[center], 0.125, far},
		{"no self", xs[center], ys[center], 0.125, -1},
		{"center off self's point", xs[center] + 0.03, ys[center] - 0.01, 0.2, center},
		{"self alone with its copies", xs[far], ys[far], 0.01, far},
		{"disc holds the tree", 0.5, 0.5, 2, center},
		{"disc holds nothing", 5, 5, 1, -1},
	}
	for _, tc := range cases {
		want := len(bruteRange(pts, geom.Point{X: tc.cx, Y: tc.cy}, tc.eps, tc.self))
		if got := f.CountRange(xs, ys, tc.cx, tc.cy, tc.eps, tc.self, 0); got != want {
			t.Errorf("%s: CountRange = %d, brute force %d", tc.name, got, want)
		}
		for _, limit := range []int{1, 3, 7, want, want + 1} {
			if limit <= 0 {
				continue
			}
			if got := f.CountRange(xs, ys, tc.cx, tc.cy, tc.eps, tc.self, limit); got != min(want, limit) {
				t.Errorf("%s: CountRange with limit %d = %d, want %d", tc.name, limit, got, min(want, limit))
			}
		}
		var got, exp []int32
		f.Range(xs, ys, tc.cx, tc.cy, tc.eps, tc.self, func(i int32) bool { got = append(got, i); return true })
		rangeNoShortcut(f, xs, ys, tc.cx, tc.cy, tc.eps, tc.self, func(i int32) bool { exp = append(exp, i); return true })
		if !slices.Equal(got, exp) {
			t.Errorf("%s: Range reported %d points, the traversal without the shortcut %d, or in another order", tc.name, len(got), len(exp))
		}
		if len(exp) != want {
			t.Errorf("%s: Range reported %d points, brute force %d", tc.name, len(exp), want)
		}
		// Early stop: fn returning false after k points ends the search.
		for _, k := range []int{1, want / 2} {
			if k < 1 || k > want {
				continue
			}
			calls := 0
			f.Range(xs, ys, tc.cx, tc.cy, tc.eps, tc.self, func(int32) bool { calls++; return calls < k })
			if calls != k {
				t.Errorf("%s: Range stopped after %d callbacks, want %d", tc.name, calls, k)
			}
		}
	}
}

// TestCountRangeMatchesBruteForceOnWorkloads sweeps every point of the
// tie-heavy inputs as a self-excluding query at radii that take from no
// node to the whole tree whole.
func TestCountRangeMatchesBruteForceOnWorkloads(t *testing.T) {
	for name, pts := range tieHeavyInputs() {
		if len(pts) == 0 {
			continue
		}
		tr := Build(pts, 8)
		bounds := geom.RectOf(pts)
		span := max(bounds.Width(), bounds.Height(), 1e-9)
		for _, frac := range []float64{0.01, 0.2, 2} {
			eps := span * frac
			for i := 0; i < len(pts); i += max(1, len(pts)/60) {
				want := len(bruteRange(pts, pts[i], eps, int32(i)))
				if got := tr.CountRange(pts[i], eps, int32(i), 0); got != want {
					t.Fatalf("%s: CountRange(point %d, eps %g) = %d, brute force %d", name, i, eps, got, want)
				}
			}
		}
	}
}
