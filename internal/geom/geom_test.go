package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{X: 1, Y: 2}, Point{X: 1, Y: 2}, 0},
		{"unit x", Point{X: 0, Y: 0}, Point{X: 1, Y: 0}, 1},
		{"unit y", Point{X: 0, Y: 0}, Point{X: 0, Y: 1}, 1},
		{"3-4-5", Point{X: 0, Y: 0}, Point{X: 3, Y: 4}, 5},
		{"negative coords", Point{X: -1, Y: -1}, Point{X: 2, Y: 3}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dist(tt.p, tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := Dist2(tt.p, tt.q); math.Abs(got-tt.want*tt.want) > 1e-12 {
				t.Errorf("Dist2(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
			}
		})
	}
}

func TestWithinEpsBoundaryInclusive(t *testing.T) {
	p := Point{X: 0, Y: 0}
	q := Point{X: 0.1, Y: 0}
	if !WithinEps(p, q, 0.1) {
		t.Error("points at exactly eps must be within the Eps-neighborhood")
	}
	if WithinEps(p, Point{X: 0.1000001, Y: 0}, 0.1) {
		t.Error("points beyond eps must not be within the Eps-neighborhood")
	}
}

// TestParamsValidate: Eps must be positive and finite — NaN and +Inf
// were accepted once, and ran a whole partition phase before failing —
// and MinPts at least 1. A subnormal Eps is valid: its square underflows
// to 0, so only coincident points are within it.
func TestParamsValidate(t *testing.T) {
	for _, tc := range []struct {
		p  Params
		ok bool
	}{
		{Params{Eps: math.NaN(), MinPts: 4}, false},
		{Params{Eps: math.Inf(1), MinPts: 4}, false},
		{Params{Eps: math.Inf(-1), MinPts: 4}, false},
		{Params{Eps: 0, MinPts: 4}, false},
		{Params{Eps: -0.1, MinPts: 4}, false},
		{Params{Eps: 1e-310, MinPts: 4}, true},
		{Params{Eps: 0.1, MinPts: 0}, false},
		{Params{Eps: 0.1, MinPts: 1}, true},
	} {
		if err := tc.p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%+v: Validate() = %v, want accepted=%t", tc.p, err, tc.ok)
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNaNInf(ax, ay, bx, by) {
			return true
		}
		a, b := Point{X: ax, Y: ay}, Point{X: bx, Y: by}
		return Dist2(a, b) == Dist2(b, a) && Dist2(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{X: float64(ax), Y: float64(ay)}
		b := Point{X: float64(bx), Y: float64(by)}
		c := Point{X: float64(cx), Y: float64(cy)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyRect(t *testing.T) {
	r := EmptyRect()
	if !r.Empty() {
		t.Fatal("EmptyRect must be empty")
	}
	if r.Width() != 0 || r.Height() != 0 || r.Diagonal() != 0 {
		t.Error("empty rect must have zero extents")
	}
	if r.Contains(Point{}) {
		t.Error("empty rect must not contain points")
	}
	r = r.Extend(Point{X: 1, Y: 2})
	if r.Empty() {
		t.Fatal("rect with one point must not be empty")
	}
	if !r.Contains(Point{X: 1, Y: 2}) {
		t.Error("rect must contain its defining point")
	}
}

func TestRectOf(t *testing.T) {
	pts := []Point{{X: 1, Y: 5}, {X: -2, Y: 3}, {X: 4, Y: -1}}
	r := RectOf(pts)
	want := Rect{MinX: -2, MinY: -1, MaxX: 4, MaxY: 5}
	if r != want {
		t.Errorf("RectOf = %+v, want %+v", r, want)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("bounding rect must contain %v", p)
		}
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	b := Rect{MinX: 2, MinY: -1, MaxX: 3, MaxY: 0.5}
	u := a.Union(b)
	want := Rect{MinX: 0, MinY: -1, MaxX: 3, MaxY: 1}
	if u != want {
		t.Errorf("Union = %+v, want %+v", u, want)
	}
	if got := a.Union(EmptyRect()); got != a {
		t.Errorf("union with empty = %+v, want %+v", got, a)
	}
	if got := EmptyRect().Union(a); got != a {
		t.Errorf("empty union rect = %+v, want %+v", got, a)
	}
}

func TestRectDist2ToPoint(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	tests := []struct {
		p    Point
		want float64
	}{
		{Point{X: 1, Y: 1}, 0},      // inside
		{Point{X: 0, Y: 0}, 0},      // corner
		{Point{X: 3, Y: 1}, 1},      // right of
		{Point{X: 1, Y: -2}, 4},     // below
		{Point{X: 5, Y: 6}, 9 + 16}, // diagonal
	}
	for _, tt := range tests {
		if got := r.Dist2ToPoint(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Dist2ToPoint(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := Rect{MinX: 0, MinY: 0, MaxX: 2, MaxY: 2}
	tests := []struct {
		name string
		b    Rect
		want bool
	}{
		{"overlapping", Rect{MinX: 1, MinY: 1, MaxX: 3, MaxY: 3}, true},
		{"touching edge", Rect{MinX: 2, MinY: 0, MaxX: 4, MaxY: 2}, true},
		{"disjoint", Rect{MinX: 3, MinY: 3, MaxX: 4, MaxY: 4}, false},
		{"containing", Rect{MinX: -1, MinY: -1, MaxX: 5, MaxY: 5}, true},
		{"empty", EmptyRect(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := a.Intersects(tt.b); got != tt.want {
				t.Errorf("Intersects = %v, want %v", got, tt.want)
			}
			if got := tt.b.Intersects(a); got != tt.want {
				t.Errorf("Intersects (reversed) = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRectInflate(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}.Inflate(0.5)
	want := Rect{MinX: -0.5, MinY: -0.5, MaxX: 1.5, MaxY: 1.5}
	if r != want {
		t.Errorf("Inflate = %+v, want %+v", r, want)
	}
	if got := EmptyRect().Inflate(1); !got.Empty() {
		t.Error("inflating an empty rect must stay empty")
	}
}

func TestDiagonal(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 4}
	if got := r.Diagonal(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Diagonal = %v, want 5", got)
	}
}

func TestExtendContainmentProperty(t *testing.T) {
	f := func(seed []int16) bool {
		r := EmptyRect()
		pts := make([]Point, 0, len(seed)/2)
		for i := 0; i+1 < len(seed); i += 2 {
			pts = append(pts, Point{X: float64(seed[i]), Y: float64(seed[i+1])})
		}
		for _, p := range pts {
			r = r.Extend(p)
		}
		for _, p := range pts {
			if !r.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
