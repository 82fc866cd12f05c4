package stream

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/telemetry"
)

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

func mustTick(t *testing.T, e *Engine, batch []geom.Point) TickStats {
	t.Helper()
	st, err := e.Tick(batch)
	if err != nil {
		t.Fatalf("Tick %d: %v", e.TickIndex()+1, err)
	}
	return st
}

// checkSnapshot asserts the engine's current labeling is a valid DBSCAN
// labeling of the window contents and, stronger, exactly the canonical
// one (contract_test.go).
func checkSnapshot(t *testing.T, e *Engine) Snapshot {
	t.Helper()
	snap := e.Snapshot()
	if err := EquivalentDBSCAN(snap.Points, e.Config().Eps, e.Config().MinPts, snap.Labels); err != nil {
		t.Fatalf("tick %d (window %d points): %v", snap.Tick, len(snap.Points), err)
	}
	checkCanonical(t, e, snap)
	checkLayout(t, e)
	return snap
}

// TestIncrementalMatchesBatch is the headline correctness gate: over 20
// seeded random tick sequences (arrivals, expiries, hotspot drift), the
// incremental labeling after every tick is cluster-isomorphic to batch
// DBSCAN on the current window.
func TestIncrementalMatchesBatch(t *testing.T) {
	const seeds = 20
	ticks := 18
	perTick := 60
	if testing.Short() {
		ticks = 10
		perTick = 40
	}
	for s := 0; s < seeds; s++ {
		s := s
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			t.Parallel()
			opt := dataset.DefaultFirehoseOptions()
			opt.Hotspots = 3 + s%4
			batches := dataset.Firehose(ticks, perTick, int64(1000+s), opt)
			e := mustEngine(t, Config{
				Eps:         0.12,
				MinPts:      5,
				WindowTicks: 6,
			})
			for _, b := range batches {
				mustTick(t, e, b)
				checkSnapshot(t, e)
			}
		})
	}
}

// TestFullRecomputeMatchesIncremental holds incremental repair to a
// from-scratch recompute: after every tick of two Firehose streams, an
// engine restored from the live engine's WindowState (Restore marks
// every cell dirty and rebuilds every edge buffer) must have the live
// engine's snapshot bit for bit. Every third tick that restored engine
// also becomes the follower, which then repairs incrementally from the
// recomputed state and must keep agreeing.
func TestFullRecomputeMatchesIncremental(t *testing.T) {
	cfg := Config{Eps: 0.12, MinPts: 5, WindowTicks: 5}
	for _, seed := range []int64{77, 78} {
		live, follower := mustEngine(t, cfg), mustEngine(t, cfg)
		for _, batch := range dataset.Firehose(15, 50, seed, dataset.DefaultFirehoseOptions()) {
			mustTick(t, live, batch)
			restored, err := Restore(cfg, live.WindowState())
			if err != nil {
				t.Fatalf("seed %d tick %d: Restore: %v", seed, live.TickIndex(), err)
			}
			if live.TickIndex()%3 == 0 {
				follower = restored
			} else {
				mustTick(t, follower, batch)
			}
			want := live.Snapshot()
			sameBits(t, fmt.Sprintf("seed %d restored", seed), restored.Snapshot(), want)
			sameBits(t, fmt.Sprintf("seed %d follower", seed), follower.Snapshot(), want)
		}
	}
}

// sameBits fails unless got equals want field for field, coordinates
// also compared as bit patterns.
func sameBits(t *testing.T, what string, got, want Snapshot) {
	t.Helper()
	if got.Tick != want.Tick || got.NumClusters != want.NumClusters || len(got.Points) != len(want.Points) || len(got.Labels) != len(want.Labels) {
		t.Fatalf("%s: tick %d, %d clusters, %d points, %d labels; live engine: %d, %d, %d, %d", what,
			got.Tick, got.NumClusters, len(got.Points), len(got.Labels), want.Tick, want.NumClusters, len(want.Points), len(want.Labels))
	}
	for i, p := range got.Points {
		q := want.Points[i]
		if p != q || math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) || got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: tick %d: point %d is %v labeled %d; live engine: %v labeled %d",
				what, got.Tick, i, p, got.Labels[i], q, want.Labels[i])
		}
	}
}

// TestWindowExpiresToEmpty feeds points then silence: after W empty
// ticks the window must be empty with zero clusters, and the engine
// must keep accepting points afterwards.
func TestWindowExpiresToEmpty(t *testing.T) {
	e := mustEngine(t, Config{Eps: 1, MinPts: 3, WindowTicks: 3})
	pts := []geom.Point{{ID: 1, X: 0, Y: 0}, {ID: 2, X: 0.1, Y: 0}, {ID: 3, X: 0, Y: 0.1}}
	mustTick(t, e, pts)
	if e.Len() != 3 || e.NumClusters() != 1 {
		t.Fatalf("after ingest: %d points, %d clusters; want 3, 1", e.Len(), e.NumClusters())
	}
	for i := 0; i < 3; i++ {
		mustTick(t, e, nil)
		checkSnapshot(t, e)
	}
	if e.Len() != 0 || e.NumClusters() != 0 {
		t.Fatalf("after expiry: %d points, %d clusters; want 0, 0", e.Len(), e.NumClusters())
	}
	snap := e.Snapshot()
	if len(snap.Points) != 0 || len(snap.Labels) != 0 {
		t.Fatalf("empty window snapshot has %d points, %d labels", len(snap.Points), len(snap.Labels))
	}
	// The engine keeps working after going empty (IDs may be reused
	// once their originals expired).
	mustTick(t, e, pts)
	checkSnapshot(t, e)
	if e.Len() != 3 || e.NumClusters() != 1 {
		t.Fatalf("after re-ingest: %d points, %d clusters; want 3, 1", e.Len(), e.NumClusters())
	}
}

// TestAllDuplicatesOneCell drops many coincident points (distinct IDs,
// identical coordinates) into one cell: with count >= MinPts all are
// core in one cluster; below MinPts (counting self) all are noise.
func TestAllDuplicatesOneCell(t *testing.T) {
	dup := func(n int, base uint64) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{ID: base + uint64(i), X: 0.5, Y: 0.5}
		}
		return pts
	}
	e := mustEngine(t, Config{Eps: 1, MinPts: 5, WindowTicks: 2})
	mustTick(t, e, dup(8, 0))
	snap := checkSnapshot(t, e)
	if snap.NumClusters != 1 {
		t.Fatalf("8 duplicates with MinPts=5: %d clusters, want 1", snap.NumClusters)
	}
	for i, l := range snap.Labels {
		if l != 0 {
			t.Fatalf("duplicate point %d labeled %d, want 0", i, l)
		}
	}

	e2 := mustEngine(t, Config{Eps: 1, MinPts: 5, WindowTicks: 2})
	mustTick(t, e2, dup(4, 100))
	snap2 := checkSnapshot(t, e2)
	if snap2.NumClusters != 0 {
		t.Fatalf("4 duplicates with MinPts=5: %d clusters, want 0", snap2.NumClusters)
	}
	for i, l := range snap2.Labels {
		if l != Noise {
			t.Fatalf("sub-threshold duplicate %d labeled %d, want noise", i, l)
		}
	}
}

// TestBridgeExpirySplitsCluster builds two dense blobs joined by a
// bridge; when the bridge (ingested first) expires, the cluster must
// split in two.
func TestBridgeExpirySplitsCluster(t *testing.T) {
	blob := func(cx, cy float64, base uint64) []geom.Point {
		out := make([]geom.Point, 0, 9)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				out = append(out, geom.Point{
					ID: base + uint64(3*i+j),
					X:  cx + float64(i)*0.02,
					Y:  cy + float64(j)*0.02,
				})
			}
		}
		return out
	}
	// Blobs at x=0 and x=3, bridge points every 0.08 between them: with
	// Eps=0.1 and MinPts=3 each interior bridge point is core through
	// its two chain neighbors, so the chain is the only connection.
	var bridge []geom.Point
	id := uint64(1000)
	for x := 0.05; x < 2.99; x += 0.08 {
		bridge = append(bridge, geom.Point{ID: id, X: x, Y: 0.02})
		id++
	}
	e := mustEngine(t, Config{Eps: 0.1, MinPts: 3, WindowTicks: 2})
	mustTick(t, e, bridge) // tick 1: bridge
	both := append(blob(-0.06, 0, 0), blob(3.02, 0, 100)...)
	mustTick(t, e, both) // tick 2: blobs; bridge still live
	snap := checkSnapshot(t, e)
	if snap.NumClusters != 1 {
		t.Fatalf("with bridge: %d clusters, want 1", snap.NumClusters)
	}
	mustTick(t, e, nil) // tick 3: bridge (tick 1) expires
	snap = checkSnapshot(t, e)
	if snap.NumClusters != 2 {
		t.Fatalf("after bridge expiry: %d clusters, want 2", snap.NumClusters)
	}
}

// TestCellBoundaryCrossing ingests points that straddle a grid cell
// boundary in different ticks: the cross-cell Eps links must connect
// them into one cluster, and expiry of one side must demote the rest.
func TestCellBoundaryCrossing(t *testing.T) {
	// Eps = 1, so x = 0.99 and x = 1.01 are in different cells but only
	// 0.02 apart.
	left := []geom.Point{
		{ID: 1, X: 0.97, Y: 0.5}, {ID: 2, X: 0.98, Y: 0.5}, {ID: 3, X: 0.99, Y: 0.5},
	}
	right := []geom.Point{
		{ID: 4, X: 1.01, Y: 0.5}, {ID: 5, X: 1.02, Y: 0.5}, {ID: 6, X: 1.03, Y: 0.5},
	}
	e := mustEngine(t, Config{Eps: 1, MinPts: 4, WindowTicks: 3})
	mustTick(t, e, left)
	snap := checkSnapshot(t, e)
	if snap.NumClusters != 0 {
		t.Fatalf("left half alone: %d clusters, want 0 (3 points < MinPts=4)", snap.NumClusters)
	}
	mustTick(t, e, right) // tick 2: the other side of the boundary arrives
	snap = checkSnapshot(t, e)
	if snap.NumClusters != 1 {
		t.Fatalf("both halves: %d clusters, want 1", snap.NumClusters)
	}
	for i, l := range snap.Labels {
		if l != 0 {
			t.Fatalf("point %v labeled %d, want 0", snap.Points[i], l)
		}
	}
	mustTick(t, e, nil)
	mustTick(t, e, nil) // tick 4: left (tick 1) expired
	snap = checkSnapshot(t, e)
	if len(snap.Points) != 3 || snap.NumClusters != 0 {
		t.Fatalf("after left expiry: %d points, %d clusters; want 3, 0", len(snap.Points), snap.NumClusters)
	}
}

// TestRejectedBatchLeavesWindowUntouched checks batch validation is
// atomic: a batch with a duplicate or non-finite point mutates nothing.
func TestRejectedBatchLeavesWindowUntouched(t *testing.T) {
	e := mustEngine(t, Config{Eps: 1, MinPts: 2, WindowTicks: 4})
	mustTick(t, e, []geom.Point{{ID: 1, X: 0, Y: 0}, {ID: 2, X: 0.1, Y: 0}})
	before := e.Snapshot()

	cases := [][]geom.Point{
		{{ID: 1, X: 5, Y: 5}},                      // already live
		{{ID: 9, X: 5, Y: 5}, {ID: 9, X: 6, Y: 6}}, // duplicate within batch
		{{ID: 10, X: math.NaN(), Y: 0}},            // NaN coordinate
	}
	for i, bad := range cases {
		if _, err := e.Tick(bad); err == nil {
			t.Fatalf("case %d: bad batch accepted", i)
		}
	}
	after := e.Snapshot()
	if after.Tick != before.Tick || len(after.Points) != len(before.Points) {
		t.Fatalf("rejected batches mutated the window: tick %d->%d, points %d->%d",
			before.Tick, after.Tick, len(before.Points), len(after.Points))
	}
	for i := range after.Labels {
		if after.Labels[i] != before.Labels[i] || after.Points[i] != before.Points[i] {
			t.Fatalf("rejected batches changed labeling at %d", i)
		}
	}
}

// TestOutOfRangeRefused: an arrival InRange of the engine's sub-box grid
// (SubBoxes) is clustered exactly; one outside it is refused with
// ErrOutOfRange and leaves the window as it was, and so is a saved
// window that holds one. Before the rule, x/Eps of 3·10⁹ saturated the
// int32 cell, so points 1 apart shared it, and ±10⁹ at Eps 0.1 joined
// points 2·10⁹ apart. Between 2³⁰/3 and 2³⁰ Eps cells the Eps cell fits
// but the sub-box saturates, so every sub-box of a cell is one and a
// diagonal pair more than Eps apart in one cell would be joined.
func TestOutOfRangeRefused(t *testing.T) {
	ok := []geom.Point{{ID: 1, X: 3e7}, {ID: 2, X: 3e7 + 0.05}, {ID: 3, X: 3e7 + 1}}
	g := grid.New(0.1)
	r := g.CellRect(g.CellOf(geom.Point{X: 1e8, Y: 1e8}))
	diag := []geom.Point{{ID: 4, X: r.MinX + 0.005, Y: r.MinY + 0.005}, {ID: 5, X: r.MinX + 0.085, Y: r.MinY + 0.085}}
	if g.CellOf(diag[0]) != g.CellOf(diag[1]) || !g.InRange(diag[1]) || geom.Dist2(diag[0], diag[1]) <= 0.1*0.1 {
		t.Fatalf("diagonal pair %v is not more than Eps apart in one Eps cell InRange", diag)
	}
	for _, tc := range []struct {
		name   string
		batch  []geom.Point
		labels []int // nil: refused
	}{
		{"just inside", ok, []int{0, 0, -1}},
		{"diagonal pair in one cell at 1e9 cells", diag, nil},
		{"3e8", []geom.Point{{ID: 4, X: 3e8}, {ID: 5, X: 3e8 + 0.05}, {ID: 6, X: 3e8 + 1}}, nil},
		{"±1e9", []geom.Point{{ID: 4, X: 1e9}, {ID: 5, X: 1e9 + 0.05}, {ID: 6, X: -1e9}}, nil},
		{"far y after a good point", []geom.Point{{ID: 4, X: 7}, {ID: 5, Y: -2e8}}, nil},
		{"infinite", []geom.Point{{ID: 4, X: math.Inf(1)}}, nil},
		{"NaN", []geom.Point{{ID: 4, Y: math.NaN()}}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := mustEngine(t, Config{Eps: 0.1, MinPts: 2, WindowTicks: 2})
			if tc.labels != nil {
				mustTick(t, e, tc.batch)
				if got := e.Snapshot().Labels; !slices.Equal(got, tc.labels) {
					t.Fatalf("labels %v, want %v", got, tc.labels)
				}
				return
			}
			mustTick(t, e, ok)
			before := e.Snapshot()
			if _, err := e.Tick(tc.batch); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("Tick = %v, want ErrOutOfRange", err)
			}
			after := e.Snapshot()
			if after.Tick != before.Tick || !slices.Equal(after.Points, before.Points) || !slices.Equal(after.Labels, before.Labels) {
				t.Fatalf("refused batch changed the window: %+v -> %+v", before, after)
			}
			if _, live := e.byID.get(tc.batch[0].ID); live {
				t.Fatalf("refused ID %d still claimed", tc.batch[0].ID)
			}
			ws := WindowState{Tick: 1, Ticks: []TickArrivals{{Tick: 1, Points: tc.batch}}}
			if _, err := Restore(e.Config(), ws); !errors.Is(err, ErrOutOfRange) {
				t.Fatalf("Restore = %v, want ErrOutOfRange", err)
			}
		})
	}
}

// TestWindowStateRoundTrip drains an engine mid-stream, restores it
// from the WindowState, and checks the restored labels are identical —
// then keeps ticking both and requires they stay identical.
func TestWindowStateRoundTrip(t *testing.T) {
	batches := dataset.Firehose(14, 45, 42, dataset.DefaultFirehoseOptions())
	cfg := Config{Eps: 0.12, MinPts: 5, WindowTicks: 5}
	e := mustEngine(t, cfg)
	for _, b := range batches[:8] {
		mustTick(t, e, b)
	}
	ws := e.WindowState()
	r, err := Restore(cfg, ws)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	compare := func(stage string) {
		t.Helper()
		se, sr := e.Snapshot(), r.Snapshot()
		if se.Tick != sr.Tick || len(se.Points) != len(sr.Points) {
			t.Fatalf("%s: tick %d/%d, points %d/%d", stage, se.Tick, sr.Tick, len(se.Points), len(sr.Points))
		}
		for i := range se.Points {
			if se.Points[i] != sr.Points[i] || se.Labels[i] != sr.Labels[i] {
				t.Fatalf("%s: restored engine diverges at %v: label %d vs %d",
					stage, se.Points[i], se.Labels[i], sr.Labels[i])
			}
		}
	}
	compare("immediately after restore")
	for i, b := range batches[8:] {
		mustTick(t, e, b)
		mustTick(t, r, b)
		compare(fmt.Sprintf("tick %d after restore", i+1))
	}
	checkSnapshot(t, r)
}

// TestRestoreRejectsBadState covers the WindowState validators.
func TestRestoreRejectsBadState(t *testing.T) {
	cfg := Config{Eps: 1, MinPts: 2, WindowTicks: 3}
	cases := []WindowState{
		{Tick: 5, Ticks: []TickArrivals{{Tick: 1, Points: nil}}}, // outside window
		{Tick: 5, Ticks: []TickArrivals{{Tick: 6, Points: nil}}}, // in the future
		{Tick: -1}, // negative cursor
		{Tick: 5, Ticks: []TickArrivals{{Tick: 4}, {Tick: 4}}},                                    // duplicate tick
		{Tick: 5, Ticks: []TickArrivals{{Tick: 4, Points: []geom.Point{{ID: 7}, {ID: 7, X: 1}}}}}, // duplicate ID
	}
	for i, ws := range cases {
		if _, err := Restore(cfg, ws); err == nil {
			t.Fatalf("case %d: invalid WindowState accepted", i)
		}
	}
}

// TestTickStatsLocality asserts the repair bookkeeping itself is local:
// a tick touching one cell must not recompute cells far away, the
// downstream phases run only around cores that changed, and a clean
// cell re-tests only points within Eps of the tick's events.
func TestTickStatsLocality(t *testing.T) {
	e := mustEngine(t, Config{Eps: 1, MinPts: 3, WindowTicks: 100})
	// A 20×1 strip of well-separated dense cells, and one border point
	// at x = 2.7, alone in its cell and its sub-box.
	var first []geom.Point
	id := uint64(0)
	for c := 0; c < 20; c++ {
		for k := 0; k < 5; k++ {
			first = append(first, geom.Point{ID: id, X: float64(c)*3 + float64(k)*0.05, Y: 0.5})
			id++
		}
	}
	first = append(first, geom.Point{ID: id, X: 2.7, Y: 0.5})
	id++
	mustTick(t, e, first)
	st := mustTick(t, e, []geom.Point{{ID: id, X: 0.3, Y: 0.55}})
	if st.DirtyCells != 1 {
		t.Fatalf("single arrival dirtied %d cells, want 1", st.DirtyCells)
	}
	if st.CoreCells > 9 {
		t.Fatalf("single arrival recomputed %d cells' core flags, want <= 9", st.CoreCells)
	}
	if st.FragCells > 9 || st.BorderCells > 25 {
		t.Fatalf("single arrival rebuilt %d frag cells / %d border cells; repair is not local",
			st.FragCells, st.BorderCells)
	}
	checkSnapshot(t, e)

	// A non-core arrival with no core within Eps, in a new cell between
	// the dense cell at x = 0 and the border point at x = 2.7, both 1.2
	// away: no core set changes, so no fragment is rebuilt and only the
	// new point is anchored; and the clean neighbour with a sparse
	// sub-box is beyond Eps of the tick's one event, so the only point
	// re-tested is the arrival.
	st = mustTick(t, e, []geom.Point{{ID: id + 1, X: 1.5, Y: 0.5}})
	if st.DirtyCells != 1 || st.FragCells != 0 || st.BorderCells != 1 || st.CoreCells != 1 {
		t.Fatalf("lone non-core arrival: %d dirty, %d frag, %d border, %d core-tested cells; want 1, 0, 1, 1",
			st.DirtyCells, st.FragCells, st.BorderCells, st.CoreCells)
	}
	checkSnapshot(t, e)

	// A core leaving a cell whose other points all stay core flips no
	// flag, yet its cell's fragments must be rebuilt and its whole 3×3
	// block re-anchored: a border point anchored to it becomes noise.
	e = mustEngine(t, Config{Eps: 1, MinPts: 3, WindowTicks: 2})
	mustTick(t, e, []geom.Point{{ID: 0, X: 0.95, Y: 0.5}}) // core through the four below
	mustTick(t, e, []geom.Point{
		{ID: 1, X: 0.4, Y: 0.5}, {ID: 2, X: 0.45, Y: 0.5}, {ID: 3, X: 0.5, Y: 0.5}, {ID: 4, X: 0.55, Y: 0.5},
		{ID: 5, X: 1.8, Y: 0.5}, // in cell (1,0): a border point of point 0 alone
		{ID: 6, X: 0.5, Y: 1.2}, // in cell (0,1): a core through the four
	})
	if snap := checkSnapshot(t, e); snap.Labels[5] != 0 {
		t.Fatalf("point 5 labeled %d before the expiry, want 0", snap.Labels[5])
	}
	st = mustTick(t, e, nil) // point 0 expires
	if st.DirtyCells != 1 || st.FragCells != 1 || st.BorderCells != 3 {
		t.Fatalf("core expiry: %d dirty, %d frag, %d border cells; want 1, 1, 3", st.DirtyCells, st.FragCells, st.BorderCells)
	}
	if snap := checkSnapshot(t, e); snap.Labels[4] != Noise {
		t.Fatalf("point 5 labeled %d after its only core expired, want noise", snap.Labels[4])
	}
}

// TestStreamMetrics checks the engine reports through its hub with the
// stream label.
func TestStreamMetrics(t *testing.T) {
	hub := telemetry.New(nil)
	e := mustEngine(t, Config{Eps: 1, MinPts: 2, WindowTicks: 2, Name: "t", Telemetry: hub})
	mustTick(t, e, []geom.Point{{ID: 1, X: 0, Y: 0}, {ID: 2, X: 0.1, Y: 0}})
	if got := hub.Counter("stream_ticks_total", "stream", "t").Value(); got != 1 {
		t.Fatalf("stream_ticks_total = %d, want 1", got)
	}
	if got := hub.Counter("stream_points_ingested_total", "stream", "t").Value(); got != 2 {
		t.Fatalf("stream_points_ingested_total = %d, want 2", got)
	}
	if got := hub.Gauge("stream_window_points", "stream", "t").Value(); got != 2 {
		t.Fatalf("stream_window_points = %d, want 2", got)
	}
}

// TestConfigValidation covers New's rejects.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Eps: 0, MinPts: 2, WindowTicks: 2},
		{Eps: -1, MinPts: 2, WindowTicks: 2},
		{Eps: 1, MinPts: 0, WindowTicks: 2},
		{Eps: 1, MinPts: 2, WindowTicks: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
}

// TestIncrementalFasterThanRecluster is an end-to-end sanity check of
// the design's point: at a 100k-point window, an incremental tick must
// beat a from-scratch batch recluster comfortably. The precise ratio is
// measured by BenchmarkStreamTick against BenchmarkStreamFullRecluster;
// here the median of nine ticks must be 2× faster than the median of
// nine reclusters of the same windows, each run right after its tick, so
// that a stall on a shared machine lands in one sample, not the verdict.
// Both arms run on this goroutine, locked to its thread, and are timed in
// that thread's CPU time (threadCPU), which time the scheduler gives
// other processes does not inflate.
func TestIncrementalFasterThanRecluster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	const (
		window  = 20
		perTick = 5000 // 100k-point steady-state window
		rounds  = 9
	)
	batches := dataset.Firehose(window+rounds, perTick, 9, dataset.DefaultFirehoseOptions())
	e := mustEngine(t, Config{Eps: 0.12, MinPts: 8, WindowTicks: window})
	for _, b := range batches[:window] {
		mustTick(t, e, b)
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	inc := make([]time.Duration, 0, rounds)
	full := make([]time.Duration, 0, rounds)
	for _, b := range batches[window:] {
		runtime.GC() // neither side pays for the other's garbage
		start := threadCPU()
		mustTick(t, e, b)
		inc = append(inc, threadCPU()-start)
		pts := e.Snapshot().Points
		runtime.GC()
		start = threadCPU()
		if _, err := dbscan.Cluster(pts, geom.Params{Eps: 0.12, MinPts: 8}); err != nil {
			t.Fatalf("batch recluster: %v", err)
		}
		full = append(full, threadCPU()-start)
	}
	slices.Sort(inc)
	slices.Sort(full)
	tick, recluster := inc[rounds/2], full[rounds/2]
	if tick*2 >= recluster {
		t.Fatalf("incremental tick (median %v) not 2x faster than full recluster (median %v) at %d points; ticks %v, reclusters %v",
			tick, recluster, e.Len(), inc, full)
	}
	t.Logf("window %d points: incremental tick %v vs full recluster %v, medians of %d (%.1fx)",
		e.Len(), tick, recluster, rounds, float64(recluster)/float64(tick))
}

// TestIsomorphic covers the label-isomorphism helper directly.
func TestIsomorphic(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{0, 0, 1, Noise}, []int{1, 1, 0, Noise}, true},
		{[]int{0, 0, 1}, []int{0, 1, 1}, false}, // splits a cluster
		{[]int{0, 1}, []int{0, 0}, false},       // merges clusters
		{[]int{0, Noise}, []int{0, 0}, false},   // noise mismatch
		{[]int{}, []int{}, true},
		{[]int{0}, []int{0, 1}, false}, // length mismatch
	}
	for i, c := range cases {
		if got := Isomorphic(c.a, c.b); got != c.want {
			t.Fatalf("case %d: Isomorphic(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

// TestDeterministicLabels runs the same sequence twice and requires
// bit-identical labels — the determinism the restart story relies on.
func TestDeterministicLabels(t *testing.T) {
	batches := dataset.Firehose(10, 80, 5, dataset.DefaultFirehoseOptions())
	run := func() []Snapshot {
		e := mustEngine(t, Config{Eps: 0.12, MinPts: 5, WindowTicks: 4})
		var snaps []Snapshot
		for _, b := range batches {
			mustTick(t, e, b)
			snaps = append(snaps, e.Snapshot())
		}
		return snaps
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i].Labels {
			if a[i].Labels[j] != b[i].Labels[j] {
				t.Fatalf("tick %d: nondeterministic label at %v: %d vs %d",
					a[i].Tick, a[i].Points[j], a[i].Labels[j], b[i].Labels[j])
			}
		}
	}
}

// TestRandomizedChurn stresses heavier per-tick churn than the firehose
// generator produces: uniform points in a tight box so nearly every
// cell is dirty every tick.
func TestRandomizedChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e := mustEngine(t, Config{Eps: 0.25, MinPts: 4, WindowTicks: 3})
	id := uint64(0)
	for tick := 0; tick < 12; tick++ {
		n := rng.Intn(120)
		batch := make([]geom.Point, n)
		for i := range batch {
			batch[i] = geom.Point{ID: id, X: rng.Float64() * 2, Y: rng.Float64() * 2}
			id++
		}
		mustTick(t, e, batch)
		checkSnapshot(t, e)
	}
}

// TestTickAdmittedHook: the hook runs once per accepted batch, with the
// tick's number, once the batch is past validation; a refused batch
// never reaches it.
func TestTickAdmittedHook(t *testing.T) {
	e, err := New(Config{Eps: 0.1, MinPts: 2, WindowTicks: 3})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(firstID uint64) []geom.Point {
		return []geom.Point{{ID: firstID, X: 1, Y: 1}, {ID: firstID + 1, X: 1.05, Y: 1}}
	}
	for tick := 1; tick <= 4; tick++ {
		calls := 0
		st, err := e.TickAdmitted(batch(uint64(10*tick)), func(n int) {
			calls++
			if n != tick {
				t.Fatalf("hook of tick %d called with %d", tick, n)
			}
		})
		if err != nil || calls != 1 || st.Tick != tick {
			t.Fatalf("tick %d: hook ran %d times, stats say tick %d, %v", tick, calls, st.Tick, err)
		}
	}
	if _, err := e.TickAdmitted(batch(40), func(int) { t.Fatal("hook ran for a refused batch") }); err == nil {
		t.Fatal("a batch repeating live IDs was accepted")
	}
	if e.TickIndex() != 4 {
		t.Fatalf("a refused batch moved the cursor to %d", e.TickIndex())
	}
}
