package stream

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
)

// canonicalLabels is the labeling rule the package comment states, built
// on batch DBSCAN with no grid of its own: components of core points are
// numbered by their smallest member ID, every border point takes the
// label of its nearest core (ties to the smaller ID), the rest is noise.
// pts must be in ascending ID order, as Snapshot returns them.
func canonicalLabels(t *testing.T, pts []geom.Point, eps float64, minPts int) []int {
	t.Helper()
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: eps, MinPts: minPts})
	if err != nil {
		t.Fatalf("batch oracle: %v", err)
	}
	// Ascending IDs: a component's first core is its smallest member.
	rank := map[int]int{}
	for i := range pts {
		if ref.Core[i] {
			if _, ok := rank[ref.Labels[i]]; !ok {
				rank[ref.Labels[i]] = len(rank)
			}
		}
	}
	out := make([]int, len(pts))
	for i, p := range pts {
		if ref.Core[i] {
			out[i] = rank[ref.Labels[i]]
			continue
		}
		out[i] = Noise
		best := math.Inf(1)
		for j, q := range pts { // ascending ID: strict < keeps the smaller ID on ties
			if d := geom.Dist2(p, q); ref.Core[j] && d <= eps*eps && d < best {
				best, out[i] = d, rank[ref.Labels[j]]
			}
		}
	}
	return out
}

// checkCanonical requires the engine's labels to equal canonicalLabels
// element for element.
func checkCanonical(t *testing.T, e *Engine, snap Snapshot) {
	t.Helper()
	want := canonicalLabels(t, snap.Points, e.Config().Eps, e.Config().MinPts)
	for i := range want {
		if snap.Labels[i] != want[i] {
			t.Fatalf("tick %d: %v labeled %d, canonical labeling says %d", snap.Tick, snap.Points[i], snap.Labels[i], want[i])
		}
	}
}

func labelHash(labels []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(l)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenLabels pins Snapshot().Labels to hashes recorded from the
// map-based engine this one replaced (commit 501bbaf): same window,
// same labels, without keeping the old engine around to diff against.
func TestGoldenLabels(t *testing.T) {
	golden := map[int64]map[int]uint64{
		7:  {5: 0x5ed44572c2515e35, 15: 0x6030411daf39ada6, 30: 0xb03d84ffd728598d},
		11: {5: 0xc901473e2ceceed, 15: 0x2d7aa47ab70839c3, 30: 0xedfe994c8c5b7fb9},
	}
	for seed, want := range golden {
		e := mustEngine(t, Config{Eps: 0.12, MinPts: 8, WindowTicks: 6})
		for _, b := range dataset.Firehose(30, 400, seed, dataset.DefaultFirehoseOptions()) {
			mustTick(t, e, b)
			if h, ok := want[e.TickIndex()]; ok {
				if got := labelHash(e.Snapshot().Labels); got != h {
					t.Errorf("seed %d tick %d: label hash %#x, recorded %#x", seed, e.TickIndex(), got, h)
				}
			}
		}
	}
}

// TestSteadyStateTickAllocatesNothing runs the benchmark's shape (2 000
// points a tick, 20-tick window) with a nil hub: once the slabs and
// buffers have met the stream's hotspots, a tick must allocate (almost)
// nothing — the old engine made 23 400 objects a tick.
func TestSteadyStateTickAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 40k-point window")
	}
	const window, warm, runs = 20, 40, 20
	batches := dataset.Firehose(window+warm+runs+1, 2000, 7, dataset.DefaultFirehoseOptions())
	e := mustEngine(t, Config{Eps: 0.12, MinPts: 8, WindowTicks: window})
	for _, b := range batches[:window+warm] {
		mustTick(t, e, b)
	}
	next := window + warm
	avg := testing.AllocsPerRun(runs, func() {
		if _, err := e.Tick(batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg > 16 {
		t.Fatalf("steady-state tick allocates %.0f objects, want <= 16", avg)
	}
}

// TestRecyclingKeepsSlabsBounded drifts one hotspot across the domain
// for 500 ticks: cells are created ahead of it and emptied behind it the
// whole way. Slot, cell and sub-box recycling must keep every slab at
// the size of the live window (not of the history), and no emptied cell,
// edge buffer or neighbour link may leak into the labeling — checked
// against a fresh Restore of the same window, which must agree on every
// label.
func TestRecyclingKeepsSlabsBounded(t *testing.T) {
	opt := dataset.DefaultFirehoseOptions()
	opt.Hotspots, opt.Drift, opt.Churn, opt.BackgroundFrac = 1, 0.02, 0, 0.3
	const ticks, perTick, window = 500, 60, 4
	cfg := Config{Eps: 0.12, MinPts: 5, WindowTicks: window}
	e := mustEngine(t, cfg)
	seen := map[[2]int32]bool{}
	for i, b := range dataset.Firehose(ticks, perTick, 3, opt) {
		mustTick(t, e, b)
		for _, p := range b {
			c := e.g.CellOf(p)
			seen[[2]int32{c.CX, c.CY}] = true
		}
		// A tick's arrivals are filed before its emptied cells are freed,
		// so a slab can run one tick's worth ahead of the window.
		if got, most := len(e.pts), (window+1)*perTick; got > most {
			t.Fatalf("tick %d: %d point slots for a %d-point window", i+1, got, window*perTick)
		}
		if got, most := len(e.cells), (window+1)*perTick; got > most {
			t.Fatalf("tick %d: cell slab grew to %d entries; at most %d cells can be live", i+1, got, most)
		}
		if live := len(e.cells) - len(e.freeCells); live != e.ids.n {
			t.Fatalf("tick %d: %d slab entries off the free list, %d coordinates in the table", i+1, live, e.ids.n)
		}
		if (i+1)%50 != 0 {
			continue
		}
		fresh, err := Restore(cfg, e.WindowState())
		if err != nil {
			t.Fatal(err)
		}
		a, b := e.Snapshot(), fresh.Snapshot()
		if len(a.Labels) != len(b.Labels) || a.NumClusters != b.NumClusters {
			t.Fatalf("tick %d: engine has %d points in %d clusters, a fresh restore %d in %d",
				i+1, len(a.Labels), a.NumClusters, len(b.Labels), b.NumClusters)
		}
		for j := range a.Labels {
			if a.Points[j] != b.Points[j] || a.Labels[j] != b.Labels[j] {
				t.Fatalf("tick %d: %v labeled %d, a fresh restore says %d", i+1, a.Points[j], a.Labels[j], b.Labels[j])
			}
		}
		checkCanonical(t, e, a)
	}
	if len(seen) < 4*len(e.cells) {
		t.Fatalf("the hotspot visited only %d cells against a slab of %d: the stream does not exercise recycling", len(seen), len(e.cells))
	}
}

// TestTableChurn checks the open-addressing table against a Go map
// under the engine's access pattern: a sliding set of keys, inserted and
// deleted for ever, with colliding home slots.
func TestTableChurn(t *testing.T) {
	tb, ref := newTable(), map[uint64]int32{}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 200000; step++ {
		k := uint64(rng.Intn(600)) << (8 * uint(rng.Intn(3))) // few keys, clustered hashes
		if rng.Intn(2) == 0 {
			v := int32(rng.Intn(100)) - 1
			tb.put(k, v)
			ref[k] = v
		} else {
			tb.del(k)
			delete(ref, k)
		}
		if tb.n != len(ref) {
			t.Fatalf("step %d: table holds %d keys, map %d", step, tb.n, len(ref))
		}
		probe := uint64(rng.Intn(600)) << (8 * uint(rng.Intn(3)))
		got, ok := tb.get(probe)
		want, wantOK := ref[probe]
		if ok != wantOK || ok && got != want {
			t.Fatalf("step %d: get(%d) = %d, %v; map says %d, %v", step, probe, got, ok, want, wantOK)
		}
	}
	if len(tb.vals) > 4096 {
		t.Fatalf("table grew to %d slots for at most 1800 keys: deletion leaks", len(tb.vals))
	}
}

// checkLayout verifies the flat storage's own invariants after a tick:
// every live point is filed where its slot says, sub-boxes keep their
// cores in front and know the smallest one's ID, cells agree with their
// neighbours about each other, and the coordinate table names exactly
// the live cells.
func checkLayout(t *testing.T, e *Engine) {
	t.Helper()
	live, points := 0, 0
	for id := range e.cells {
		c := &e.cells[id]
		if !c.live() {
			continue
		}
		live++
		if got, ok := e.ids.get(cellKey(c.coord)); !ok || int(got) != id {
			t.Fatalf("cell %d at %v: table says %d, %v", id, c.coord, got, ok)
		}
		n := 0
		for k := range c.subs {
			sb := &c.subs[k]
			n += len(sb.slots)
			if int(sb.ncore) > len(sb.slots) {
				t.Fatalf("cell %d sub-box %d: %d cores among %d slots", id, k, sb.ncore, len(sb.slots))
			}
			minCore := uint64(math.MaxUint64)
			for _, s := range sb.cores() {
				minCore = min(minCore, e.pts[s].ID)
			}
			if sb.minCore != minCore {
				t.Fatalf("cell %d sub-box %d records smallest core ID %d; its cores' smallest is %d", id, k, sb.minCore, minCore)
			}
			for i, s := range sb.slots {
				if int(e.cellOf[s]) != id || int(e.subOf[s]) != k || int(e.pos[s]) != i {
					t.Fatalf("slot %d sits at cell %d sub-box %d index %d but records %d/%d/%d",
						s, id, k, i, e.cellOf[s], e.subOf[s], e.pos[s])
				}
				if e.core[s] != (i < int(sb.ncore)) {
					t.Fatalf("cell %d sub-box %d: slot %d core=%v at index %d with %d cores in front", id, k, s, e.core[s], i, sb.ncore)
				}
				if sc := e.sg.CellOf(e.pts[s]); sc.CX != sb.sx || sc.CY != sb.sy || e.g.CellOf(e.pts[s]) != c.coord {
					t.Fatalf("slot %d (%v) misfiled under cell %v sub-box (%d,%d)", s, e.pts[s], c.coord, sb.sx, sb.sy)
				}
			}
		}
		if n != int(c.n) || n == 0 {
			t.Fatalf("cell %d counts %d points, lists %d (an empty cell must have been freed)", id, c.n, n)
		}
		points += n
		for i, nc := range c.coord.Neighbors() {
			want, ok := e.ids.get(cellKey(nc))
			if !ok {
				want = -1
			}
			if c.nbr[i] != want {
				t.Fatalf("cell %d neighbour %d: cached id %d, table says %d", id, i, c.nbr[i], want)
			}
			if i >= 4 && want < 0 && len(c.fwd[i-4]) > 0 {
				t.Fatalf("cell %d keeps %d edges to a neighbour that is gone", id, len(c.fwd[i-4]))
			}
		}
	}
	if live != e.ids.n || live != len(e.cells)-len(e.freeCells) || points != e.Len() {
		t.Fatalf("%d live cells (%d in table, %d off the free list), %d filed points for a window of %d",
			live, e.ids.n, len(e.cells)-len(e.freeCells), points, e.Len())
	}
}

// TestExactEpsBand pins the closed Eps-neighbourhood where no sub-box
// shortcut decides: with Eps = 3 the sub-boxes have side exactly 1, and
// points exactly 3 apart sit in sub-boxes at Chebyshev distance 3 — the
// band that takes explicit distance tests. One ulp further and they are
// strangers.
func TestExactEpsBand(t *testing.T) {
	beyond := math.Nextafter(3, 4)
	cases := []struct {
		name     string
		pts      []geom.Point
		clusters int
	}{
		{"across cells, exactly Eps", []geom.Point{{ID: 1, X: 0, Y: 0.5}, {ID: 2, X: 3, Y: 0.5}}, 1},
		{"across cells, one ulp more", []geom.Point{{ID: 1, X: 0, Y: 0.5}, {ID: 2, X: beyond, Y: 0.5}}, 0},
		{"chain of exact steps", []geom.Point{{ID: 1, X: 0, Y: 0}, {ID: 2, X: 3, Y: 0}, {ID: 3, X: 3, Y: 3}, {ID: 4, X: 6, Y: 3}}, 1},
	}
	for _, c := range cases {
		e := mustEngine(t, Config{Eps: 3, MinPts: 2, WindowTicks: 2})
		mustTick(t, e, c.pts)
		if snap := checkSnapshot(t, e); snap.NumClusters != c.clusters {
			t.Errorf("%s: %d clusters, want %d (labels %v)", c.name, snap.NumClusters, c.clusters, snap.Labels)
		}
	}
}
