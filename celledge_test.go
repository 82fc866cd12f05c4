package mrscan

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dbscan"
	"repro/internal/distrib"
	"repro/internal/geom"
)

// latticeEps is the lattice step of the cell-edge checks: 0.75 and its
// multiples are exact in binary, so lattice points sit exactly Eps apart
// and exactly on cell edges.
const latticeEps = 0.75

// foundPair is an ulp below the origin and a point Eps to its right: Dist2
// rounds to Eps², so they are neighbours, yet on cells of side exactly
// Eps they fall in cells -1 and 1.
var foundPair = []geom.Point{{ID: 0, X: math.Nextafter(0, -1)}, {ID: 1, X: latticeEps}}

// latticePoints draws 2–7 points from data on a 5×3 lattice of Eps
// multiples: one byte a point, its low nibble the site (mod 15) and bit 4
// moving x down one ulp. The first byte is the count.
func latticePoints(data []byte) []geom.Point {
	if len(data) == 0 {
		return nil
	}
	n := min(2+int(data[0])%6, len(data)-1)
	pts := make([]geom.Point, n)
	for i, b := range data[1 : n+1] {
		site := int(b&0x0f) % 15
		x := float64(site%5) * latticeEps
		if b&0x10 != 0 {
			x = math.Nextafter(x, math.Inf(-1))
		}
		pts[i] = geom.Point{ID: uint64(i), X: x, Y: float64(site/5) * latticeEps}
	}
	return pts
}

// checkOracle holds labels to exact DBSCAN. The front doors return labels
// only, so the oracle's core flags are checked through what they imply:
// a core point is clustered, a point with no core within Eps is noise,
// and the core points fall into the oracle's clusters up to renaming. A
// border point takes the cluster of one of its core neighbours, or noise:
// a border point whose core neighbours its owner sees only as shadow is
// written out as noise (ROADMAP item 2, not this check's subject).
func checkOracle(pts []geom.Point, p geom.Params, labels []int) error {
	ref, err := dbscan.Cluster(pts, p)
	if err != nil {
		return err
	}
	if len(labels) != len(pts) {
		return fmt.Errorf("%d labels for %d points", len(labels), len(pts))
	}
	fwd, back := map[int]int{}, map[int]int{}
	for i, c := range ref.Labels {
		got := labels[i]
		switch {
		case ref.Core[i]:
			if got == geom.Noise {
				return fmt.Errorf("core point %d (%v) labelled noise", i, pts[i])
			}
			if g, ok := fwd[c]; ok && g != got {
				return fmt.Errorf("oracle cluster %d is split into %d and %d (point %d)", c, g, got, i)
			}
			if r, ok := back[got]; ok && r != c {
				return fmt.Errorf("oracle clusters %d and %d are merged into %d (point %d)", r, c, got, i)
			}
			fwd[c], back[got] = got, c
		case got != geom.Noise:
			ok := false
			for j, q := range pts {
				ok = ok || ref.Core[j] && labels[j] == got && geom.Dist2(pts[i], q) <= p.Eps*p.Eps
			}
			if !ok {
				return fmt.Errorf("non-core point %d (%v) labelled %d, the cluster of no core within Eps", i, pts[i], got)
			}
		}
	}
	return nil
}

// startDistrib starts a coordinator with two in-process workers over
// loopback TCP, shut down when tb ends.
func startDistrib(tb testing.TB) *distrib.Coordinator {
	tb.Helper()
	c, err := distrib.NewCoordinator()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Shutdown)
	for i := range 2 {
		go func() { _ = distrib.Worker(c.Addr(), 7000+i) }()
	}
	if err := c.AcceptWorkers(2, 30*time.Second); err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestExactEpsPairAcrossCellEdge: two points exactly Eps apart as Dist2
// computes it, on either side of a cell edge, are one cluster through
// every front door and at every leaf count. On cells of side exactly Eps
// the pair lay two cells apart and split at 2 and 4 leaves.
func TestExactEpsPairAcrossCellEdge(t *testing.T) {
	p := geom.Params{Eps: latticeEps, MinPts: 1}
	c := startDistrib(t)
	for _, leaves := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("RunPoints/leaves=%d", leaves), func(t *testing.T) {
			_, labels, err := RunPoints(foundPair, Default(p.Eps, p.MinPts, leaves))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOracle(foundPair, p, labels); err != nil {
				t.Errorf("labels %v: %v", labels, err)
			}
		})
		t.Run(fmt.Sprintf("distrib/leaves=%d", leaves), func(t *testing.T) {
			res, err := c.Run(foundPair, distrib.Options{Eps: p.Eps, MinPts: p.MinPts, Leaves: leaves, DenseBox: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkOracle(foundPair, p, res.Labels); err != nil {
				t.Errorf("labels %v: %v", res.Labels, err)
			}
		})
	}
}

// FuzzRunPointsOracle holds RunPoints and distrib.Coordinator.Run to the
// exact oracle on latticePoints inputs, where every Eps-apart pair sits
// on a cell edge or an ulp across one: MinPts 1–3, leaves 1–4, partition
// leaves 1–2, ShadowReps and DenseBox on and off. One coordinator with
// two workers serves the whole fuzz process.
func FuzzRunPointsOracle(f *testing.F) {
	f.Add([]byte{0, 0x10, 0x01}, uint8(0), uint8(1), uint8(0)) // foundPair at 2 leaves
	f.Add([]byte{0, 0x10, 0x01}, uint8(0), uint8(3), uint8(0)) // foundPair at 4 leaves
	f.Add([]byte{5, 0x10, 0x11, 0x02, 0x13, 0x14, 0x05, 0x16}, uint8(1), uint8(1), uint8(3))
	f.Add([]byte{3, 0x00, 0x11, 0x06, 0x17, 0x0b}, uint8(2), uint8(2), uint8(6))
	c := startDistrib(f)
	f.Fuzz(func(t *testing.T, data []byte, minPts, leaves, flags uint8) {
		pts := latticePoints(data)
		if len(pts) < 2 {
			return
		}
		p := geom.Params{Eps: latticeEps, MinPts: 1 + int(minPts)%3}
		cfg := Default(p.Eps, p.MinPts, 1+int(leaves)%4)
		cfg.PartitionLeaves = 1 + int(flags)&1
		cfg.ShadowReps = flags&2 != 0
		cfg.DenseBox = flags&4 != 0
		_, labels, err := RunPoints(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOracle(pts, p, labels); err != nil {
			t.Errorf("RunPoints %+v at %d leaves (partition leaves %d, shadow reps %t, dense box %t): labels %v: %v",
				pts, cfg.Leaves, cfg.PartitionLeaves, cfg.ShadowReps, cfg.DenseBox, labels, err)
		}
		res, err := c.Run(pts, distrib.Options{Eps: p.Eps, MinPts: p.MinPts, Leaves: cfg.Leaves, DenseBox: cfg.DenseBox})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkOracle(pts, p, res.Labels); err != nil {
			t.Errorf("distrib %+v at %d leaves (dense box %t): labels %v: %v", pts, cfg.Leaves, cfg.DenseBox, res.Labels, err)
		}
	})
}

// TestRunPointsRepeatedIDs: labels are matched to points by ID, so an
// input that repeats one fails with an error that names the input, not a
// fault of the pipeline.
func TestRunPointsRepeatedIDs(t *testing.T) {
	pts := []geom.Point{{ID: 3, X: 0}, {ID: 5, X: 0.1}, {ID: 3, X: 0.2}}
	_, _, err := RunPoints(pts, Default(0.5, 2, 2))
	if err == nil || !strings.Contains(err.Error(), "input point IDs are not unique") {
		t.Fatalf("RunPoints = %v, want the input IDs named as not unique", err)
	}
}
