package dataset

import (
	"math"
	"testing"

	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/grid"
)

func TestTwitterBasics(t *testing.T) {
	pts := Twitter(10000, 1)
	if len(pts) != 10000 {
		t.Fatalf("generated %d points, want 10000", len(pts))
	}
	seen := map[uint64]bool{}
	for i, p := range pts {
		if p.ID != uint64(i) {
			t.Fatalf("point %d has ID %d", i, p.ID)
		}
		if seen[p.ID] {
			t.Fatalf("duplicate ID %d", p.ID)
		}
		seen[p.ID] = true
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatalf("NaN coordinate at %d", i)
		}
		if p.Weight != 1 {
			t.Fatalf("weight = %v, want 1", p.Weight)
		}
	}
}

func TestTwitterDeterministic(t *testing.T) {
	a := Twitter(1000, 7)
	b := Twitter(1000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
	c := Twitter(1000, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical data")
	}
}

func TestTwitterIsHighlySkewed(t *testing.T) {
	// The whole point of the Twitter workload: extreme spatial density
	// variation. The most populous Eps-cell must hold far more than the
	// mean cell count.
	pts := Twitter(50000, 2)
	g := grid.New(0.1)
	h := g.HistogramOf(pts)
	_, maxN := h.MaxCell()
	mean := float64(h.Total()) / float64(h.Len())
	if float64(maxN) < 20*mean {
		t.Errorf("max cell %d vs mean %.1f: distribution not skewed enough", maxN, mean)
	}
}

func TestTwitterClustersAtPaperParams(t *testing.T) {
	// At Eps=0.1, MinPts=40 the city cores must form real clusters while
	// background points stay noise.
	pts := Twitter(20000, 3)
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.1, MinPts: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 5 {
		t.Errorf("NumClusters = %d, want >= 5 (major metros)", res.NumClusters)
	}
	noise := 0
	for _, l := range res.Labels {
		if l == geom.Noise {
			noise++
		}
	}
	if noise == 0 {
		t.Error("expected some noise points from the rural background")
	}
	if noise > len(pts)/2 {
		t.Errorf("noise = %d of %d: urban mixture too weak", noise, len(pts))
	}
}

func TestSDSSBasics(t *testing.T) {
	pts := SDSS(5000, 4)
	if len(pts) != 5000 {
		t.Fatalf("generated %d points, want 5000", len(pts))
	}
	opt := DefaultSDSSOptions()
	for i, p := range pts {
		if p.ID != uint64(i) {
			t.Fatalf("point %d has ID %d", i, p.ID)
		}
		// Objects may spill slightly outside the frame via their Gaussian
		// tails; detections stay within a few sigma of it.
		if p.X < -0.01 || p.X > opt.FrameSize+0.01 || p.Y < -0.01 || p.Y > opt.FrameSize+0.01 {
			t.Fatalf("point %d = (%v,%v) far outside the frame", i, p.X, p.Y)
		}
	}
}

func TestSDSSClustersAtPaperParams(t *testing.T) {
	// §5.2 parameters: Eps = 0.00015, MinPts = 5. Objects must be found
	// as clusters.
	pts := SDSS(8000, 5)
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.00015, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 50 {
		t.Errorf("NumClusters = %d, want many compact objects", res.NumClusters)
	}
}

func TestSDSSDeterministic(t *testing.T) {
	a := SDSS(2000, 11)
	b := SDSS(2000, 11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("generation not deterministic at %d", i)
		}
	}
}

func TestUniform(t *testing.T) {
	r := geom.Rect{MinX: -5, MinY: 2, MaxX: 5, MaxY: 12}
	pts := Uniform(3000, 6, r)
	for i, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("point %d = %v outside bounds", i, p)
		}
	}
	// Rough uniformity: each quadrant holds a fair share.
	quad := [4]int{}
	for _, p := range pts {
		q := 0
		if p.X > 0 {
			q |= 1
		}
		if p.Y > 7 {
			q |= 2
		}
		quad[q]++
	}
	for q, n := range quad {
		if n < 500 || n > 1000 {
			t.Errorf("quadrant %d holds %d of 3000 points", q, n)
		}
	}
}

func TestBlobs(t *testing.T) {
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	pts := Blobs(5000, 8, 0.5, 9, r)
	if len(pts) != 5000 {
		t.Fatalf("generated %d points", len(pts))
	}
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.5, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Blobs can land close enough to merge; expect at least half of them
	// and no more than requested.
	if res.NumClusters < 4 || res.NumClusters > 8 {
		t.Errorf("NumClusters = %d, want 4..8 from 8 blobs", res.NumClusters)
	}
}

func TestMoonsTwoNonConvexClusters(t *testing.T) {
	pts := Moons(2000, 13, 0.04)
	res, err := dbscan.Cluster(pts, geom.Params{Eps: 0.15, MinPts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2 interleaved moons", res.NumClusters)
	}
	// The moons interleave horizontally: a convex method (e.g. 2-means
	// on x) could not separate them; DBSCAN must put all even-index
	// (upper moon) core points in one cluster.
	upper := -1
	for i := 0; i < len(pts); i += 2 {
		if res.Labels[i] < 0 {
			continue
		}
		if upper == -1 {
			upper = res.Labels[i]
		} else if res.Labels[i] != upper {
			t.Fatalf("upper moon split between clusters %d and %d", upper, res.Labels[i])
		}
	}
	for i := 1; i < len(pts); i += 2 {
		if res.Labels[i] >= 0 && res.Labels[i] == upper {
			t.Fatal("moons merged")
		}
	}
}

func TestCityTableSane(t *testing.T) {
	if len(cities) < 100 {
		t.Fatalf("city table holds %d entries, want >= 100", len(cities))
	}
	for i, c := range cities {
		if c.lat < -90 || c.lat > 90 || c.lon < -180 || c.lon > 180 {
			t.Errorf("city %d has bad coordinates (%v,%v)", i, c.lat, c.lon)
		}
		if c.weight <= 0 {
			t.Errorf("city %d has non-positive weight %v", i, c.weight)
		}
	}
	if totalWeight <= 0 || len(prefix) != len(cities) {
		t.Error("prefix weights not initialized")
	}
}
