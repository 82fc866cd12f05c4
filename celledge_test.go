package mrscan

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/dbscan"
	"repro/internal/distrib"
	"repro/internal/geom"
	"repro/internal/grid"
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

// Oracle fault kinds, in the order checkOracle looks for them: a trial
// counts under the first it shows.
const (
	faultCore         = "core"            // a core point written as noise, or a core partition that differs
	faultBorderNoise  = "border as noise" // a non-core point with a core within Eps, written as noise
	faultOtherCluster = "other"           // a non-core point in a cluster with no core within Eps of it
)

// oracleFault is a difference from exact DBSCAN, of one kind.
type oracleFault struct {
	kind string
	msg  string
}

func (f *oracleFault) Error() string { return f.kind + ": " + f.msg }

// checkOracle holds labels to exact DBSCAN. The front doors return labels
// only, so the oracle's core flags are checked through what they imply:
// a core point is clustered, and the core points fall into the oracle's
// clusters up to renaming. A non-core point takes the cluster of one of
// its core neighbours, and one with none is noise. A difference is an
// *oracleFault, the core partition's before any point's.
func checkOracle(pts []geom.Point, p geom.Params, labels []int) error {
	ref, err := dbscan.Cluster(pts, p)
	if err != nil {
		return err
	}
	if len(labels) != len(pts) {
		return fmt.Errorf("%d labels for %d points", len(labels), len(pts))
	}
	fault := func(kind, format string, args ...any) error {
		return &oracleFault{kind: kind, msg: fmt.Sprintf(format, args...)}
	}
	fwd, back := map[int]int{}, map[int]int{}
	for i, c := range ref.Labels {
		if !ref.Core[i] {
			continue
		}
		got := labels[i]
		if got == geom.Noise {
			return fault(faultCore, "core point %d (%v) labelled noise", i, pts[i])
		}
		if g, ok := fwd[c]; ok && g != got {
			return fault(faultCore, "oracle cluster %d is split into %d and %d (point %d)", c, g, got, i)
		}
		if r, ok := back[got]; ok && r != c {
			return fault(faultCore, "oracle clusters %d and %d are merged into %d (point %d)", r, c, got, i)
		}
		fwd[c], back[got] = got, c
	}
	for i, got := range labels {
		if ref.Core[i] {
			continue
		}
		coreNear, ok := false, false
		for j, q := range pts {
			if ref.Core[j] && geom.Dist2(pts[i], q) <= p.Eps*p.Eps {
				coreNear, ok = true, ok || labels[j] == got
			}
		}
		switch {
		case got == geom.Noise && coreNear:
			return fault(faultBorderNoise, "non-core point %d (%v) within Eps of a core labelled noise", i, pts[i])
		case got != geom.Noise && !ok:
			return fault(faultOtherCluster, "non-core point %d (%v) labelled %d, the cluster of no core within Eps", i, pts[i], got)
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

// borderWitness is a lattice trial whose border point only a shadow
// view's border claim labels: at MinPts 3 and 2 or 4 leaves, (1.5, 1.5)
// is within Eps of the core (0.75, 1.5) and of no other core, and its
// owner sees that core only in its shadow. latticePoints makes it from
// {4, 0x1a, 0x1a, 0x0b, 0x0c, 0x09, 0x02}.
var borderWitness = []geom.Point{
	{ID: 0, X: math.Nextafter(0, -1), Y: 1.5}, {ID: 1, X: math.Nextafter(0, -1), Y: 1.5},
	{ID: 2, X: 0.75, Y: 1.5}, {ID: 3, X: 1.5, Y: 1.5}, {ID: 4, X: 3, Y: 0.75}, {ID: 5, X: 1.5, Y: 0},
}

// latticeTrial decodes one oracle trial as FuzzRunPointsOracle draws it:
// latticePoints(data), MinPts 1–3, leaves 1–4, and flags' bits for
// partition leaves 1–2, ShadowReps and DenseBox.
func latticeTrial(data []byte, minPts, leaves, flags uint8) ([]geom.Point, geom.Params, Config) {
	p := geom.Params{Eps: latticeEps, MinPts: 1 + int(minPts)%3}
	cfg := Default(p.Eps, p.MinPts, 1+int(leaves)%4)
	cfg.PartitionLeaves = 1 + int(flags)&1
	cfg.ShadowReps = flags&2 != 0
	cfg.DenseBox = flags&4 != 0
	return latticePoints(data), p, cfg
}

// frontDoors runs pts through RunPoints at cfg and through c at cfg's
// leaves and DenseBox, and returns each front door's checkOracle verdict.
func frontDoors(tb testing.TB, c *distrib.Coordinator, pts []geom.Point, p geom.Params, cfg Config) (pipeline, dist error) {
	tb.Helper()
	_, labels, err := RunPoints(pts, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := checkOracle(pts, p, labels); err != nil {
		pipeline = fmt.Errorf("RunPoints %+v at MinPts %d, %d leaves (partition leaves %d, shadow reps %t, dense box %t): labels %v: %w",
			pts, p.MinPts, cfg.Leaves, cfg.PartitionLeaves, cfg.ShadowReps, cfg.DenseBox, labels, err)
	}
	res, err := c.Run(pts, distrib.Options{Eps: p.Eps, MinPts: p.MinPts, Leaves: cfg.Leaves, DenseBox: cfg.DenseBox})
	if err != nil {
		tb.Fatal(err)
	}
	if err := checkOracle(pts, p, res.Labels); err != nil {
		dist = fmt.Errorf("distrib %+v at MinPts %d, %d leaves (dense box %t): labels %v: %w",
			pts, p.MinPts, cfg.Leaves, cfg.DenseBox, res.Labels, err)
	}
	return pipeline, dist
}

// TestOracleWitnesses runs the lattice's witnesses through both front
// doors at 1, 2 and 4 leaves: foundPair, two points exactly Eps apart as
// Dist2 computes it, which cells of side exactly Eps put two cells apart,
// and borderWitness, whose border point needs the shadow views' border
// claims.
func TestOracleWitnesses(t *testing.T) {
	c := startDistrib(t)
	for _, w := range []struct {
		name   string
		pts    []geom.Point
		minPts int
	}{
		{"exact Eps pair across a cell edge", foundPair, 1},
		{"border core seen only in the owner's shadow", borderWitness, 3},
	} {
		p := geom.Params{Eps: latticeEps, MinPts: w.minPts}
		for _, leaves := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/leaves=%d", w.name, leaves), func(t *testing.T) {
				pipeline, dist := frontDoors(t, c, w.pts, p, Default(p.Eps, p.MinPts, leaves))
				for _, err := range []error{pipeline, dist} {
					if err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// FuzzRunPointsOracle holds RunPoints and distrib.Coordinator.Run to the
// exact oracle on latticePoints inputs, where every Eps-apart pair sits
// on a cell edge or an ulp across one: MinPts 1–3, leaves 1–4, partition
// leaves 1–2, ShadowReps and DenseBox on and off (latticeTrial). One
// coordinator with two workers serves the whole fuzz process.
func FuzzRunPointsOracle(f *testing.F) {
	f.Add([]byte{0, 0x10, 0x01}, uint8(0), uint8(1), uint8(0)) // foundPair at 2 leaves
	f.Add([]byte{0, 0x10, 0x01}, uint8(0), uint8(3), uint8(0)) // foundPair at 4 leaves
	f.Add([]byte{5, 0x10, 0x11, 0x02, 0x13, 0x14, 0x05, 0x16}, uint8(1), uint8(1), uint8(3))
	f.Add([]byte{3, 0x00, 0x11, 0x06, 0x17, 0x0b}, uint8(2), uint8(2), uint8(6))
	f.Add([]byte{4, 0x1a, 0x1a, 0x0b, 0x0c, 0x09, 0x02}, uint8(2), uint8(3), uint8(4)) // borderWitness
	c := startDistrib(f)
	f.Fuzz(func(t *testing.T, data []byte, minPts, leaves, flags uint8) {
		pts, p, cfg := latticeTrial(data, minPts, leaves, flags)
		if len(pts) < 2 {
			return
		}
		pipeline, dist := frontDoors(t, c, pts, p, cfg)
		for _, err := range []error{pipeline, dist} {
			if err != nil {
				t.Error(err)
			}
		}
	})
}

// latticeSeed and latticeTrials fix the lattice search EXPERIMENTS.md
// reports (make lattice); short mode runs latticeShortTrials of it.
const (
	latticeSeed        = 20261019
	latticeTrials      = 10_000
	latticeShortTrials = 300
)

// TestLatticeOracle is the seeded lattice search: trials drawn as
// FuzzRunPointsOracle draws its inputs, each through both front doors,
// each verdict counted by checkOracle's fault kind (a trial under its
// first). It logs one table row per front door — core, border as noise,
// other, clean — with the first witness of each kind, and fails on any
// fault.
func TestLatticeOracle(t *testing.T) {
	trials := latticeTrials
	if testing.Short() {
		trials = latticeShortTrials
	}
	c := startDistrib(t)
	rng := rand.New(rand.NewSource(latticeSeed))
	kinds := []string{faultCore, faultBorderNoise, faultOtherCluster}
	doors := []string{"RunPoints", "distrib"}
	counts := [2]map[string]int{{}, {}}
	for range trials {
		data := make([]byte, 8)
		rng.Read(data)
		pts, p, cfg := latticeTrial(data, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		pipeline, dist := frontDoors(t, c, pts, p, cfg)
		for d, err := range []error{pipeline, dist} {
			var f *oracleFault
			switch {
			case err == nil:
				counts[d]["clean"]++
			case errors.As(err, &f):
				if counts[d][f.kind]++; counts[d][f.kind] == 1 {
					t.Logf("first %s on %s: %v", f.kind, doors[d], err)
				}
			default:
				t.Fatal(err)
			}
		}
	}
	t.Logf("%d trials at seed %d", trials, latticeSeed)
	t.Logf("| front door | %s | %s | %s | clean |", kinds[0], kinds[1], kinds[2])
	for d, door := range doors {
		t.Logf("| %s | %d | %d | %d | %d |", door, counts[d][kinds[0]], counts[d][kinds[1]], counts[d][kinds[2]], counts[d]["clean"])
		if counts[d]["clean"] != trials {
			t.Errorf("%s: %d of %d trials differ from the oracle", door, trials-counts[d]["clean"], trials)
		}
	}
}

// TestOutOfRangeRefused: both batch front doors refuse a point outside
// grid.InRange — NaN, ±Inf, MaxCoord cells or more from the origin — with
// a *grid.RangeError naming it, at 1 and 2 leaves; a point an ulp inside
// the range is clustered as the oracle has it.
func TestOutOfRangeRefused(t *testing.T) {
	const eps = 0.1
	reach := grid.MaxCoord * grid.New(eps).Side()
	c := startDistrib(t)
	for _, tc := range []struct {
		name    string
		x, y    float64
		refused bool
	}{
		{"NaN x", math.NaN(), 0, true},
		{"NaN y", 0.05, math.NaN(), true},
		{"+Inf", math.Inf(1), 0, true},
		{"-Inf y", 0, math.Inf(-1), true},
		{"MaxCoord cells out", reach, 0, true},
		{"far negative y", 0, -2 * reach, true},
		{"an ulp inside", math.Nextafter(reach, 0), math.Nextafter(-reach, 0), false},
	} {
		pts := []geom.Point{{ID: 7, X: tc.x, Y: tc.y}, {ID: 8, X: 0}, {ID: 9, X: 0.05}}
		p := geom.Params{Eps: eps, MinPts: 2}
		check := func(t *testing.T, labels []int, err error) {
			t.Helper()
			var re *grid.RangeError
			switch {
			case !tc.refused && err != nil:
				t.Fatal(err)
			case !tc.refused:
				if err := checkOracle(pts, p, labels); err != nil {
					t.Errorf("labels %v: %v", labels, err)
				}
			case !errors.As(err, &re) || re.Point.ID != 7:
				t.Errorf("labels %v, err %v: want a *grid.RangeError for point 7", labels, err)
			}
		}
		for _, leaves := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/RunPoints/leaves=%d", tc.name, leaves), func(t *testing.T) {
				_, labels, err := RunPoints(pts, Default(eps, p.MinPts, leaves))
				check(t, labels, err)
			})
			t.Run(fmt.Sprintf("%s/distrib/leaves=%d", tc.name, leaves), func(t *testing.T) {
				res, err := c.Run(pts, distrib.Options{Eps: eps, MinPts: p.MinPts, Leaves: leaves, DenseBox: true})
				var labels []int
				if err == nil {
					labels = res.Labels
				}
				check(t, labels, err)
			})
		}
	}
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
