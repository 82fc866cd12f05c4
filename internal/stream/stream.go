// Package stream implements a sliding-window incremental DBSCAN engine
// over the Eps×Eps dense-box grid.
//
// The paper's headline scenario — Twitter geotags — is in production a
// firehose, not a batch file. This package maintains DBSCAN cluster
// labels over the last W ticks of arrivals: each Tick ingests a batch of
// points, expires the batch that arrived W ticks ago, and repairs the
// labeling incrementally. The grid cell is the incremental unit: a point
// arriving or expiring in cell c can only change core status inside
// c ∪ N(c) (its Moore neighborhood), so per-tick work scales with the
// number of dirtied cells, not the window size.
//
// Geometry shortcuts reuse the paper's dense-box argument (§3.2.3) at
// sub-box granularity Eps/3:
//
//   - a sub-box holding ≥ MinPts points makes every one of them core
//     (diagonal √2·Eps/3 < Eps);
//   - core points in sub-boxes within Chebyshev distance 1 are mutually
//     within Eps (a 2×2 sub-box block's diagonal is 2√2·Eps/3 < Eps),
//     yielding connectivity edges with no distance tests;
//   - sub-boxes at Chebyshev distance ≥ 5 cannot connect (minimum gap
//     4·Eps/3 > Eps); distance 2..4 needs explicit tests (at distance 4
//     the minimum gap is exactly Eps, and the Eps-neighborhood is
//     closed).
//
// Connectivity is tracked two-level, mirroring the paper's merge design:
// per-cell fragments (intra-cell core components, a dsu.DSU per rebuild)
// and a global fragment graph (dsu.Keyed over (cell, fragment) keys)
// whose inter-cell edges are cached per adjacent cell pair and
// recomputed only for pairs touching repaired cells. Component labeling
// is rebuilt from the cache every tick — O(#cells + #fragments + #edges),
// cheap next to neighborhood recomputation.
//
// Labels are a pure function of the window contents: border points
// anchor to their nearest core (ties to the smallest point ID) and
// cluster IDs are dense, ordered by each component's smallest member
// point ID. A drained engine restored from WindowState therefore
// reproduces labels exactly.
//
// Over-dense neighborhoods can optionally use subsampled ε-queries
// (Jiang, Jang & Łącki, "Faster DBSCAN via subsampled similarity
// queries"): when the 3×3 cell population reaches SubsampleThreshold,
// core tests examine each candidate with probability SubsampleRate
// (seeded, deterministic per point pair) and extrapolate. This trades
// exactness for bounded per-tick work; it is off by default.
package stream

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"repro/internal/dsu"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/telemetry"
)

// Noise is the label of points not assigned to any cluster.
const Noise = -1

// Config parameterizes a stream engine.
type Config struct {
	// Eps is the DBSCAN neighborhood radius (and the grid cell side).
	Eps float64
	// MinPts is the DBSCAN density threshold, counting the point itself.
	MinPts int
	// WindowTicks is the sliding window length W: a point ingested at
	// tick t is part of the window for snapshots t .. t+W-1.
	WindowTicks int
	// SubsampleThreshold enables subsampled ε-queries for points whose
	// 3×3 cell population is at least this value (0 disables; the engine
	// is then exact).
	SubsampleThreshold int
	// SubsampleRate is the per-candidate sampling probability in (0,1]
	// used when SubsampleThreshold triggers.
	SubsampleRate float64
	// ReanchorEvery, when positive, forces a full recompute (all cells
	// dirty, connectivity cache rebuilt) every that-many ticks, bounding
	// any drift a bug in incremental repair could accumulate.
	ReanchorEvery int
	// Seed feeds the deterministic subsampling hash.
	Seed int64
	// Name labels this engine's metrics (default "stream").
	Name string
	// Telemetry receives per-tick spans and stream_* metrics (nil is
	// inert).
	Telemetry *telemetry.Hub
}

// TickStats summarizes one Tick's work.
type TickStats struct {
	Tick              int           // 1-based tick index just completed
	Arrivals          int           // points ingested this tick
	Expired           int           // points expired this tick
	DirtyCells        int           // cells with arrivals or expiries
	CoreCells         int           // cells whose points had core flags recomputed
	FragCells         int           // cells whose fragments were rebuilt
	PairsRebuilt      int           // adjacent cell pairs with edges recomputed
	BorderCells       int           // cells whose border anchors were reassigned
	SubsampledQueries int           // core tests that took the subsampled path
	WindowPoints      int           // live points after this tick
	Clusters          int           // clusters after this tick
	Reanchored        bool          // this tick ran a full re-anchor
	Elapsed           time.Duration // wall time spent in Tick
}

// fragKey identifies one intra-cell core fragment globally.
type fragKey struct {
	C grid.Coord
	F int32
}

// pairKey identifies an unordered adjacent cell pair; A.Less(B) holds.
type pairKey struct {
	A, B grid.Coord
}

// fragEdge records Eps-connectivity between fragment FA of the pair's A
// cell and fragment FB of its B cell.
type fragEdge struct {
	FA, FB int32
}

// cell holds the live points of one Eps×Eps grid cell, bucketed by
// Eps/3 sub-box, plus its current fragment decomposition.
type cell struct {
	pts     []int32                // live slots in this cell
	buckets map[grid.Coord][]int32 // sub-box coord -> live slots
	nfrags  int32                  // fragments among this cell's cores
	fragMin []uint64               // per fragment, smallest member point ID
}

// Engine is a sliding-window incremental DBSCAN engine. It is not safe
// for concurrent use; callers serialize Tick/Snapshot externally.
type Engine struct {
	cfg Config
	g   grid.Grid // Eps cells
	sg  grid.Grid // Eps/3 sub-boxes

	tick int // completed ticks

	// Slot storage: point state indexed by slot; expired slots recycle
	// through free.
	pts    []geom.Point
	live   []bool
	core   []bool
	frag   []int32 // fragment index within the slot's cell; -1 if not core
	anchor []int32 // core slot this point labels through; -1 = noise; self for cores
	free   []int32
	byID   map[uint64]int32

	ring  [][]int32 // ring[t%W] = slots that arrived at tick t
	cells map[grid.Coord]*cell
	pairs map[pairKey][]fragEdge

	cluster   map[fragKey]int32 // fragment -> dense cluster ID, rebuilt each tick
	nclusters int

	hub *telemetry.Hub
}

// New validates cfg and returns an empty engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Eps <= 0 || math.IsNaN(cfg.Eps) || math.IsInf(cfg.Eps, 0) {
		return nil, fmt.Errorf("stream: eps must be positive and finite, got %v", cfg.Eps)
	}
	if cfg.MinPts < 1 {
		return nil, fmt.Errorf("stream: minPts must be >= 1, got %d", cfg.MinPts)
	}
	if cfg.WindowTicks < 1 {
		return nil, fmt.Errorf("stream: window must be >= 1 tick, got %d", cfg.WindowTicks)
	}
	if cfg.SubsampleThreshold > 0 && (cfg.SubsampleRate <= 0 || cfg.SubsampleRate > 1) {
		return nil, fmt.Errorf("stream: subsample rate must be in (0,1], got %v", cfg.SubsampleRate)
	}
	if cfg.ReanchorEvery < 0 {
		return nil, fmt.Errorf("stream: reanchor interval must be >= 0, got %d", cfg.ReanchorEvery)
	}
	if cfg.Name == "" {
		cfg.Name = "stream"
	}
	return &Engine{
		cfg:     cfg,
		g:       grid.New(cfg.Eps),
		sg:      grid.New(cfg.Eps / 3),
		byID:    make(map[uint64]int32),
		ring:    make([][]int32, cfg.WindowTicks),
		cells:   make(map[grid.Coord]*cell),
		pairs:   make(map[pairKey][]fragEdge),
		cluster: make(map[fragKey]int32),
		hub:     cfg.Telemetry,
	}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// TickIndex returns the number of completed ticks.
func (e *Engine) TickIndex() int { return e.tick }

// Len returns the number of live points in the window.
func (e *Engine) Len() int { return len(e.byID) }

// NumClusters returns the cluster count after the last tick.
func (e *Engine) NumClusters() int { return e.nclusters }

// Tick advances the window one step: the batch ingested WindowTicks ago
// expires, arrivals are ingested, and the labeling is repaired. The
// batch is validated before any mutation — on error the window is
// unchanged. Point IDs must be unique within the live window.
func (e *Engine) Tick(arrivals []geom.Point) (TickStats, error) {
	start := time.Now()
	batch := make(map[uint64]struct{}, len(arrivals))
	for _, p := range arrivals {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			return TickStats{}, fmt.Errorf("stream: point %d has non-finite coordinates (%v, %v)", p.ID, p.X, p.Y)
		}
		if _, dup := batch[p.ID]; dup {
			return TickStats{}, fmt.Errorf("stream: duplicate point ID %d in batch", p.ID)
		}
		if _, dup := e.byID[p.ID]; dup {
			return TickStats{}, fmt.Errorf("stream: point ID %d already live in window", p.ID)
		}
		batch[p.ID] = struct{}{}
	}

	e.tick++
	sp := e.hub.Start(nil, "stream.tick",
		telemetry.String("stream", e.cfg.Name),
		telemetry.Int("tick", e.tick),
		telemetry.Int("arrivals", len(arrivals)))

	dirty := make(map[grid.Coord]struct{})
	slot := e.tick % e.cfg.WindowTicks

	// Expire the arrivals of tick-W.
	expired := len(e.ring[slot])
	for _, s := range e.ring[slot] {
		c := e.g.CellOf(e.pts[s])
		e.removeFromCell(c, s)
		dirty[c] = struct{}{}
		delete(e.byID, e.pts[s].ID)
		e.live[s] = false
		e.core[s] = false
		e.frag[s] = -1
		e.anchor[s] = -1
		e.free = append(e.free, s)
	}
	e.ring[slot] = e.ring[slot][:0]

	// Ingest this tick's arrivals.
	for _, p := range arrivals {
		s := e.alloc()
		e.pts[s] = p
		e.live[s] = true
		e.byID[p.ID] = s
		c := e.g.CellOf(p)
		e.insertIntoCell(c, s)
		dirty[c] = struct{}{}
		e.ring[slot] = append(e.ring[slot], s)
	}

	st := TickStats{
		Tick:       e.tick,
		Arrivals:   len(arrivals),
		Expired:    expired,
		DirtyCells: len(dirty),
	}
	if e.cfg.ReanchorEvery > 0 && e.tick%e.cfg.ReanchorEvery == 0 {
		e.reanchorAll(&st)
		st.Reanchored = true
	} else {
		e.repair(dirty, &st)
	}
	st.WindowPoints = len(e.byID)
	st.Clusters = e.nclusters
	st.Elapsed = time.Since(start)

	name := e.cfg.Name
	e.hub.Counter("stream_ticks_total", "stream", name).Inc()
	e.hub.Counter("stream_points_ingested_total", "stream", name).Add(int64(len(arrivals)))
	e.hub.Counter("stream_points_expired_total", "stream", name).Add(int64(expired))
	e.hub.Counter("stream_dirty_cells_total", "stream", name).Add(int64(st.DirtyCells))
	e.hub.Counter("stream_cells_recomputed_total", "stream", name).Add(int64(st.CoreCells))
	e.hub.Counter("stream_subsampled_queries_total", "stream", name).Add(int64(st.SubsampledQueries))
	if st.Reanchored {
		e.hub.Counter("stream_reanchors_total", "stream", name).Inc()
	}
	e.hub.Gauge("stream_window_points", "stream", name).Set(int64(len(e.byID)))
	e.hub.Gauge("stream_clusters", "stream", name).Set(int64(e.nclusters))
	e.hub.Histogram("stream_tick_seconds", []float64{.0001, .001, .01, .1, 1, 10}, "stream", name).
		Observe(st.Elapsed.Seconds())
	sp.Annotate(
		telemetry.Int("dirty_cells", st.DirtyCells),
		telemetry.Int("clusters", e.nclusters),
		telemetry.Int("window_points", len(e.byID)),
		telemetry.Bool("reanchored", st.Reanchored))
	sp.End()
	return st, nil
}

// repair re-establishes the labeling invariants after the cells in
// dirty gained or lost points. The five phases and their recompute sets:
//
//  1. core flags over dirty ∪ N(dirty) — a point's core status depends
//     only on its 3×3 cell neighborhood, so flips are confined there;
//  2. fragments for `changed` = non-empty dirty cells ∪ cells with a
//     core-flag flip — intra-cell connectivity between two untouched
//     cores is distance-based and static;
//  3. inter-cell fragment edges for pairs touching changed or emptied
//     cells (a vanished cell must drop its cached edges, or phantom
//     fragments would bridge live neighbors);
//  4. border anchors over N⁺(changed ∪ emptied) — any core a border
//     point could gain, lose, or re-rank lives in an adjacent cell of
//     one of those;
//  5. global relabel from the edge cache.
func (e *Engine) repair(dirty map[grid.Coord]struct{}, st *TickStats) {
	changed := make(map[grid.Coord]struct{})
	emptied := make(map[grid.Coord]struct{})
	for c := range dirty {
		cc := e.cells[c]
		if cc == nil || len(cc.pts) == 0 {
			if cc != nil {
				delete(e.cells, c)
			}
			emptied[c] = struct{}{}
			continue
		}
		changed[c] = struct{}{}
	}

	// Phase 1: core flags.
	inspect := make(map[grid.Coord]struct{}, 3*len(dirty))
	for c := range dirty {
		inspect[c] = struct{}{}
		for _, n := range c.Neighbors() {
			inspect[n] = struct{}{}
		}
	}
	for c := range inspect {
		cc := e.cells[c]
		if cc == nil {
			continue
		}
		st.CoreCells++
		flipped := false
		for _, s := range cc.pts {
			now := e.isCore(s, st)
			if now != e.core[s] {
				e.core[s] = now
				flipped = true
			}
		}
		if flipped {
			changed[c] = struct{}{}
		}
	}

	// Phase 2: fragments.
	for c := range changed {
		if cc := e.cells[c]; cc != nil {
			e.rebuildFragments(cc)
			st.FragCells++
		}
	}

	// Phase 3: inter-cell edges.
	stale := make(map[pairKey]struct{})
	for c := range changed {
		for _, n := range c.Neighbors() {
			stale[makePair(c, n)] = struct{}{}
		}
	}
	for c := range emptied {
		for _, n := range c.Neighbors() {
			stale[makePair(c, n)] = struct{}{}
		}
	}
	for pk := range stale {
		e.rebuildPair(pk)
		st.PairsRebuilt++
	}

	// Phase 4: border anchors.
	borders := make(map[grid.Coord]struct{})
	for c := range changed {
		borders[c] = struct{}{}
		for _, n := range c.Neighbors() {
			borders[n] = struct{}{}
		}
	}
	for c := range emptied {
		for _, n := range c.Neighbors() {
			borders[n] = struct{}{}
		}
	}
	for c := range borders {
		if cc := e.cells[c]; cc != nil {
			e.reassignBorders(cc)
			st.BorderCells++
		}
	}

	// Phase 5: relabel.
	e.relabel()
}

// reanchorAll discards the connectivity cache and recomputes everything,
// bounding incremental drift (and powering Restore).
func (e *Engine) reanchorAll(st *TickStats) {
	e.pairs = make(map[pairKey][]fragEdge)
	dirty := make(map[grid.Coord]struct{}, len(e.cells))
	for c := range e.cells {
		dirty[c] = struct{}{}
	}
	e.repair(dirty, st)
}

// isCore computes the DBSCAN core predicate for slot s: at least
// MinPts-1 other points within Eps (the Eps-neighborhood is closed).
func (e *Engine) isCore(s int32, st *TickStats) bool {
	if e.cfg.MinPts <= 1 {
		return true
	}
	p := e.pts[s]
	c := e.g.CellOf(p)
	cc := e.cells[c]
	// Dense-box shortcut: an Eps/3 sub-box with >= MinPts points makes
	// all of them core without a single distance test.
	if len(cc.buckets[e.sg.CellOf(p)]) >= e.cfg.MinPts {
		return true
	}
	around := cellsAround(c)
	if e.cfg.SubsampleThreshold > 0 {
		pop := 0
		for _, n := range around {
			if nc := e.cells[n]; nc != nil {
				pop += len(nc.pts)
			}
		}
		if pop >= e.cfg.SubsampleThreshold {
			return e.isCoreSampled(s, p, around, st)
		}
	}
	eps2 := e.cfg.Eps * e.cfg.Eps
	need := e.cfg.MinPts - 1
	count := 0
	for _, n := range around {
		nc := e.cells[n]
		if nc == nil {
			continue
		}
		for _, q := range nc.pts {
			if q == s {
				continue
			}
			if geom.Dist2(p, e.pts[q]) <= eps2 {
				count++
				if count >= need {
					return true
				}
			}
		}
	}
	return false
}

// isCoreSampled is the subsampled ε-query path: each candidate is
// examined with probability SubsampleRate (deterministic per point
// pair), and the hit count is compared against the proportionally
// scaled threshold.
func (e *Engine) isCoreSampled(s int32, p geom.Point, around [9]grid.Coord, st *TickStats) bool {
	st.SubsampledQueries++
	rate := e.cfg.SubsampleRate
	need := rate * float64(e.cfg.MinPts-1)
	eps2 := e.cfg.Eps * e.cfg.Eps
	hits := 0.0
	for _, n := range around {
		nc := e.cells[n]
		if nc == nil {
			continue
		}
		for _, q := range nc.pts {
			if q == s {
				continue
			}
			if !sampled(e.cfg.Seed, p.ID, e.pts[q].ID, rate) {
				continue
			}
			if geom.Dist2(p, e.pts[q]) <= eps2 {
				hits++
				if hits >= need {
					return true
				}
			}
		}
	}
	return hits >= need
}

// rebuildFragments recomputes cc's intra-cell core components. Cores in
// one sub-box are mutually within Eps, so fragments are unions of whole
// sub-box core sets; only sub-box pairs at Chebyshev distance 2 (the
// in-cell maximum) need distance tests.
func (e *Engine) rebuildFragments(cc *cell) {
	type bucket struct {
		sb    grid.Coord
		cores []int32
	}
	var buckets []bucket
	for sb, slots := range cc.buckets {
		var cores []int32
		for _, s := range slots {
			if e.core[s] {
				cores = append(cores, s)
			}
		}
		if len(cores) > 0 {
			buckets = append(buckets, bucket{sb, cores})
		}
	}

	d := dsu.New(len(buckets))
	eps2 := e.cfg.Eps * e.cfg.Eps
	for i := 0; i < len(buckets); i++ {
		for j := i + 1; j < len(buckets); j++ {
			if chebyshev(buckets[i].sb, buckets[j].sb) <= 1 {
				d.Union(i, j)
				continue
			}
			if bucketsTouch(e.pts, buckets[i].cores, buckets[j].cores, eps2) {
				d.Union(i, j)
			}
		}
	}

	slotBucket := make(map[int32]int, len(cc.pts))
	for bi := range buckets {
		for _, s := range buckets[bi].cores {
			slotBucket[s] = bi
		}
	}
	rootFrag := make(map[int]int32, len(buckets))
	cc.nfrags = 0
	cc.fragMin = cc.fragMin[:0]
	for _, s := range cc.pts {
		if !e.core[s] {
			e.frag[s] = -1
			continue
		}
		r := d.Find(slotBucket[s])
		f, ok := rootFrag[r]
		if !ok {
			f = cc.nfrags
			cc.nfrags++
			rootFrag[r] = f
			cc.fragMin = append(cc.fragMin, e.pts[s].ID)
		} else if id := e.pts[s].ID; id < cc.fragMin[f] {
			cc.fragMin[f] = id
		}
		e.frag[s] = f
	}
}

// rebuildPair recomputes the fragment edges between an adjacent cell
// pair. Sub-box pairs at Chebyshev distance <= 1 connect for free,
// >= 5 cannot connect, and 2..4 take one early-exit distance scan; one
// hit per bucket pair suffices because a bucket's cores share a
// fragment.
func (e *Engine) rebuildPair(pk pairKey) {
	ca, cb := e.cells[pk.A], e.cells[pk.B]
	if ca == nil || cb == nil || ca.nfrags == 0 || cb.nfrags == 0 {
		delete(e.pairs, pk)
		return
	}
	bucketsA := e.coreBuckets(ca)
	bucketsB := e.coreBuckets(cb)
	eps2 := e.cfg.Eps * e.cfg.Eps
	var edges []fragEdge
	seen := make(map[fragEdge]struct{})
	for _, ba := range bucketsA {
		for _, bb := range bucketsB {
			dc := chebyshev(ba.sb, bb.sb)
			if dc >= 5 {
				continue
			}
			ed := fragEdge{FA: e.frag[ba.cores[0]], FB: e.frag[bb.cores[0]]}
			if _, dup := seen[ed]; dup {
				continue
			}
			if dc <= 1 || bucketsTouch(e.pts, ba.cores, bb.cores, eps2) {
				seen[ed] = struct{}{}
				edges = append(edges, ed)
			}
		}
	}
	if len(edges) == 0 {
		delete(e.pairs, pk)
	} else {
		e.pairs[pk] = edges
	}
}

type coreBucket struct {
	sb    grid.Coord
	cores []int32
}

func (e *Engine) coreBuckets(cc *cell) []coreBucket {
	out := make([]coreBucket, 0, len(cc.buckets))
	for sb, slots := range cc.buckets {
		var cores []int32
		for _, s := range slots {
			if e.core[s] {
				cores = append(cores, s)
			}
		}
		if len(cores) > 0 {
			out = append(out, coreBucket{sb, cores})
		}
	}
	return out
}

// reassignBorders recomputes the anchor of every point in cc: cores
// anchor to themselves; non-cores anchor to the nearest core within Eps
// (ties to the smallest point ID, keeping labels a pure function of the
// window contents), or to nothing (noise).
func (e *Engine) reassignBorders(cc *cell) {
	eps2 := e.cfg.Eps * e.cfg.Eps
	for _, s := range cc.pts {
		if e.core[s] {
			e.anchor[s] = s
			continue
		}
		p := e.pts[s]
		best := int32(-1)
		bestD := math.Inf(1)
		var bestID uint64
		for _, n := range cellsAround(e.g.CellOf(p)) {
			nc := e.cells[n]
			if nc == nil {
				continue
			}
			for _, q := range nc.pts {
				if !e.core[q] {
					continue
				}
				d := geom.Dist2(p, e.pts[q])
				if d > eps2 {
					continue
				}
				id := e.pts[q].ID
				if best < 0 || d < bestD || (d == bestD && id < bestID) {
					best, bestD, bestID = q, d, id
				}
			}
		}
		e.anchor[s] = best
	}
}

// relabel rebuilds the global cluster map from the fragment graph.
// Cluster IDs are dense and ordered by each component's smallest member
// point ID, so they are stable across restarts and re-anchors.
func (e *Engine) relabel() {
	k := dsu.NewKeyed[fragKey]()
	for c, cc := range e.cells {
		for f := int32(0); f < cc.nfrags; f++ {
			k.Add(fragKey{c, f})
		}
	}
	for pk, edges := range e.pairs {
		ca, cb := e.cells[pk.A], e.cells[pk.B]
		if ca == nil || cb == nil {
			continue
		}
		for _, ed := range edges {
			// Guard against a stale edge outliving a fragment rebuild.
			if ed.FA >= ca.nfrags || ed.FB >= cb.nfrags {
				continue
			}
			k.Union(fragKey{pk.A, ed.FA}, fragKey{pk.B, ed.FB})
		}
	}
	compMin := make(map[fragKey]uint64)
	for c, cc := range e.cells {
		for f := int32(0); f < cc.nfrags; f++ {
			r := k.Find(fragKey{c, f})
			if m, ok := compMin[r]; !ok || cc.fragMin[f] < m {
				compMin[r] = cc.fragMin[f]
			}
		}
	}
	type comp struct {
		root fragKey
		min  uint64
	}
	comps := make([]comp, 0, len(compMin))
	for r, m := range compMin {
		comps = append(comps, comp{r, m})
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].min < comps[j].min })
	id := make(map[fragKey]int32, len(comps))
	for i, cp := range comps {
		id[cp.root] = int32(i)
	}
	e.cluster = make(map[fragKey]int32)
	for c, cc := range e.cells {
		for f := int32(0); f < cc.nfrags; f++ {
			fk := fragKey{c, f}
			e.cluster[fk] = id[k.Find(fk)]
		}
	}
	e.nclusters = len(comps)
}

// labelOf resolves slot s's cluster label through its anchor.
func (e *Engine) labelOf(s int32) int {
	a := e.anchor[s]
	if a < 0 {
		return Noise
	}
	fk := fragKey{e.g.CellOf(e.pts[a]), e.frag[a]}
	if cl, ok := e.cluster[fk]; ok {
		return int(cl)
	}
	return Noise
}

// Snapshot is a consistent view of the window after a tick: points in
// ascending ID order with their labels (Noise = -1).
type Snapshot struct {
	Tick        int
	Points      []geom.Point
	Labels      []int
	NumClusters int
}

// Snapshot materializes the current window labeling. O(window size).
func (e *Engine) Snapshot() Snapshot {
	slots := make([]int32, 0, len(e.byID))
	for _, s := range e.byID {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return e.pts[slots[i]].ID < e.pts[slots[j]].ID })
	snap := Snapshot{
		Tick:        e.tick,
		Points:      make([]geom.Point, len(slots)),
		Labels:      make([]int, len(slots)),
		NumClusters: e.nclusters,
	}
	for i, s := range slots {
		snap.Points[i] = e.pts[s]
		snap.Labels[i] = e.labelOf(s)
	}
	return snap
}

// WindowState is the durable form of an engine's window: the arrival
// batches still inside it, keyed by tick, plus the tick cursor. It gob-
// encodes cleanly for checkpoint.Store.
type WindowState struct {
	Tick  int
	Ticks []TickArrivals
}

// TickArrivals records the points that arrived at one tick.
type TickArrivals struct {
	Tick   int
	Points []geom.Point
}

// WindowState captures the engine's durable state. Labels are not
// saved: they are a pure function of the window contents, so Restore
// recomputes them and lands on an identical labeling.
func (e *Engine) WindowState() WindowState {
	ws := WindowState{Tick: e.tick}
	lo := e.tick - e.cfg.WindowTicks + 1
	if lo < 1 {
		lo = 1
	}
	for t := lo; t <= e.tick; t++ {
		slots := e.ring[t%e.cfg.WindowTicks]
		if len(slots) == 0 {
			continue
		}
		pts := make([]geom.Point, len(slots))
		for i, s := range slots {
			pts[i] = e.pts[s]
		}
		ws.Ticks = append(ws.Ticks, TickArrivals{Tick: t, Points: pts})
	}
	return ws
}

// Restore rebuilds an engine from a saved WindowState and re-anchors
// it. The restored engine's labels equal the saving engine's exactly.
func Restore(cfg Config, ws WindowState) (*Engine, error) {
	e, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if ws.Tick < 0 {
		return nil, fmt.Errorf("stream: restore: negative tick %d", ws.Tick)
	}
	seenTick := make(map[int]struct{}, len(ws.Ticks))
	for _, ta := range ws.Ticks {
		if ta.Tick < 1 || ta.Tick > ws.Tick || ta.Tick <= ws.Tick-e.cfg.WindowTicks {
			return nil, fmt.Errorf("stream: restore: tick %d outside window ending at %d", ta.Tick, ws.Tick)
		}
		if _, dup := seenTick[ta.Tick]; dup {
			return nil, fmt.Errorf("stream: restore: tick %d recorded twice", ta.Tick)
		}
		seenTick[ta.Tick] = struct{}{}
		slot := ta.Tick % e.cfg.WindowTicks
		for _, p := range ta.Points {
			if _, dup := e.byID[p.ID]; dup {
				return nil, fmt.Errorf("stream: restore: point ID %d recorded twice", p.ID)
			}
			s := e.alloc()
			e.pts[s] = p
			e.live[s] = true
			e.byID[p.ID] = s
			e.insertIntoCell(e.g.CellOf(p), s)
			e.ring[slot] = append(e.ring[slot], s)
		}
	}
	e.tick = ws.Tick
	var st TickStats
	e.reanchorAll(&st)
	return e, nil
}

// --- slot and cell plumbing ---

func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	e.pts = append(e.pts, geom.Point{})
	e.live = append(e.live, false)
	e.core = append(e.core, false)
	e.frag = append(e.frag, -1)
	e.anchor = append(e.anchor, -1)
	return int32(len(e.pts) - 1)
}

func (e *Engine) insertIntoCell(c grid.Coord, s int32) {
	cc := e.cells[c]
	if cc == nil {
		cc = &cell{buckets: make(map[grid.Coord][]int32)}
		e.cells[c] = cc
	}
	cc.pts = append(cc.pts, s)
	sb := e.sg.CellOf(e.pts[s])
	cc.buckets[sb] = append(cc.buckets[sb], s)
}

// removeFromCell detaches s; an emptied cell stays in the map until the
// next repair classifies it (so its pair edges are invalidated there).
func (e *Engine) removeFromCell(c grid.Coord, s int32) {
	cc := e.cells[c]
	cc.pts = removeSlot(cc.pts, s)
	sb := e.sg.CellOf(e.pts[s])
	b := removeSlot(cc.buckets[sb], s)
	if len(b) == 0 {
		delete(cc.buckets, sb)
	} else {
		cc.buckets[sb] = b
	}
}

func removeSlot(s []int32, v int32) []int32 {
	for i, x := range s {
		if x == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// --- geometry helpers ---

func cellsAround(c grid.Coord) [9]grid.Coord {
	n := c.Neighbors()
	var out [9]grid.Coord
	out[0] = c
	copy(out[1:], n[:])
	return out
}

func chebyshev(a, b grid.Coord) int32 {
	dx := a.CX - b.CX
	if dx < 0 {
		dx = -dx
	}
	dy := a.CY - b.CY
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}

func makePair(a, b grid.Coord) pairKey {
	if b.Less(a) {
		a, b = b, a
	}
	return pairKey{a, b}
}

// bucketsTouch reports whether any cross pair is within eps2, with
// early exit on the first hit.
func bucketsTouch(pts []geom.Point, as, bs []int32, eps2 float64) bool {
	for _, a := range as {
		for _, b := range bs {
			if geom.Dist2(pts[a], pts[b]) <= eps2 {
				return true
			}
		}
	}
	return false
}

// sampled is the deterministic per-pair coin for subsampled ε-queries:
// a splitmix64-style hash of (seed, p, q) compared against rate.
func sampled(seed int64, a, b uint64, rate float64) bool {
	if rate >= 1 {
		return true
	}
	x := uint64(seed)
	x ^= a * 0x9E3779B97F4A7C15
	x ^= bits.RotateLeft64(b*0xBF58476D1CE4E5B9, 31)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < rate
}
