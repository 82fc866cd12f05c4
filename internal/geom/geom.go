// Package geom provides the planar geometry primitives shared by every
// Mr. Scan component: identified 2D points, axis-aligned rectangles and the
// distance kernels used for Eps-neighborhood tests.
//
// Mr. Scan operates on 2D data (the paper evaluates latitude/longitude and
// sky-survey frames); the partitioning algorithm generalizes to higher
// dimensions but, like the paper, the implementation is 2D.
package geom

import (
	"fmt"
	"math"
)

// Point is a single input datum: a unique ID, planar coordinates and an
// optional analysis weight (paper §3: "Each input point has a unique ID
// number, coordinates, and an optional weight").
type Point struct {
	ID     uint64
	X, Y   float64
	Weight float64
}

// String renders the point compactly for logs and error messages.
func (p Point) String() string {
	return fmt.Sprintf("pt(%d: %.6g,%.6g)", p.ID, p.X, p.Y)
}

// Dist2 returns the squared Euclidean distance between p and q.
// Squared distances avoid math.Sqrt in the hot Eps-neighborhood tests.
func Dist2(p, q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 {
	return math.Sqrt(Dist2(p, q))
}

// WithinEps reports whether p and q lie within eps of each other.
// Boundary points (distance exactly eps) are inside the neighborhood,
// matching the original DBSCAN definition of the Eps-neighborhood.
func WithinEps(p, q Point, eps float64) bool {
	return Dist2(p, q) <= eps*eps
}

// Noise is the label of a point in a low-density region, a member of no
// cluster (§2.1).
const Noise = -1

// Params carries the two DBSCAN parameters.
type Params struct {
	// Eps is the neighborhood radius.
	Eps float64
	// MinPts is the minimum neighborhood size for a core point. Following
	// the original formulation (and ELKI), the neighborhood of p includes
	// p itself, so p is core iff |N_eps(p)| >= MinPts counting p.
	MinPts int
}

// Validate reports whether the parameters are usable: Eps positive and
// finite, MinPts at least 1. Every entry point that takes an Eps checks it
// here, before any work.
func (p Params) Validate() error {
	if !(p.Eps > 0) || math.IsInf(p.Eps, 1) {
		return fmt.Errorf("Eps must be positive and finite, got %v", p.Eps)
	}
	if p.MinPts < 1 {
		return fmt.Errorf("MinPts must be at least 1, got %d", p.MinPts)
	}
	return nil
}

// Rect is a closed axis-aligned rectangle.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns a rectangle that contains nothing and expands correctly
// under Extend.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// RectOf returns the bounding rectangle of pts. It returns EmptyRect for an
// empty slice.
func RectOf(pts []Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Extend(p)
	}
	return r
}

// Extend grows r to include p.
func (r Rect) Extend(p Point) Rect {
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.X > r.MaxX {
		r.MaxX = p.X
	}
	if p.Y > r.MaxY {
		r.MaxY = p.Y
	}
	return r
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if s.Empty() {
		return r
	}
	if r.Empty() {
		return s
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Empty reports whether the rectangle contains no area and no points.
func (r Rect) Empty() bool {
	return r.MinX > r.MaxX || r.MinY > r.MaxY
}

// Contains reports whether p lies inside the closed rectangle.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Width returns the rectangle's x extent (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the rectangle's y extent (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.Empty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Diagonal returns the length of the rectangle's diagonal — the longest
// distance across it. The dense-box test (§3.2.3) relies on this: a box
// whose diagonal is at most Eps has every pair of its points within Eps.
func (r Rect) Diagonal() float64 {
	w, h := r.Width(), r.Height()
	return math.Sqrt(w*w + h*h)
}

// Dist2ToPoint returns the squared distance from p to the closest point of
// the rectangle (0 if p is inside). Used by KD-tree range queries to prune
// subtrees.
func (r Rect) Dist2ToPoint(p Point) float64 {
	dx := axisDist(p.X, r.MinX, r.MaxX)
	dy := axisDist(p.Y, r.MinY, r.MaxY)
	return dx*dx + dy*dy
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.Empty() || s.Empty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX &&
		r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Inflate returns r grown by d on every side.
func (r Rect) Inflate(d float64) Rect {
	if r.Empty() {
		return r
	}
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}
