// Package stream implements a sliding-window incremental DBSCAN engine
// over the Eps dense-box grid (grid.New).
//
// The paper's headline scenario — Twitter geotags — is in production a
// firehose, not a batch file. This package maintains DBSCAN cluster
// labels over the last W ticks of arrivals: each Tick ingests a batch of
// points, expires the batch that arrived W ticks ago, and repairs the
// labeling incrementally. The grid cell is the incremental unit: a point
// arriving or expiring in cell c can only change core status inside
// c ∪ N(c) (its Moore neighborhood), so per-tick work scales with what
// the tick changed, not the window size. Within that neighbourhood the
// repair narrows further (Engine.repair has the five phases and their
// recompute sets): a clean cell re-tests only the points within Eps of
// one of the tick's arrivals or expiries, and fragments, pair edges and
// border anchors are recomputed only around cells whose core set changed.
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
//     4 sides > Eps); distance 2..4 needs explicit tests (at distance 4
//     the minimum gap is 3 sides, a hair over Eps at SubBoxes' slack
//     side: DESIGN.md "Cell geometries").
//
// Connectivity is tracked two-level, mirroring the paper's merge design:
// per-cell fragments (intra-cell core components; the cores of one
// sub-box always share a fragment) and a global fragment graph whose
// inter-cell edges are cached per adjacent cell pair and recomputed only
// for pairs touching repaired cells. Component labeling is rebuilt from
// the cache every tick — O(#cells + #fragments + #edges), cheap next to
// neighborhood recomputation.
//
// Storage is flat — the sorted-cell-array layout of grid DBSCAN (Wang,
// Gu & Shun) made incremental: cells live in a slab indexed by a dense
// id and recycle through a free list; one open-addressing table maps a
// coordinate to its id and is consulted only when a point arrives or a
// cell is created; every cell caches its eight neighbours' ids, so the
// repair walks 3×3 blocks by array index. A point slot records its cell
// and sub-box. A pair's edges sit in a buffer on its lower cell (four
// forward neighbours per cell) that is truncated and refilled. The
// per-tick work sets are generation-stamped marks plus reused lists, and
// a tick's arrivals and expiries are chained per cell through per-slot
// links, so a steady-state tick allocates nothing.
//
// Labels are a pure function of the window contents: border points
// anchor to their nearest core (ties to the smallest point ID) and
// cluster IDs are dense, ordered by each component's smallest member
// point ID. A drained engine restored from WindowState therefore
// reproduces labels exactly.
package stream

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
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
	// Name labels this engine's metrics (default "stream").
	Name string
	// Telemetry receives per-tick spans and stream_* metrics (nil is
	// inert).
	Telemetry *telemetry.Hub
}

// TickStats summarizes one Tick's work.
type TickStats struct {
	Tick       int // 1-based tick index just completed
	Arrivals   int // points ingested this tick
	Expired    int // points expired this tick
	DirtyCells int // cells with arrivals or expiries
	// CoreCells counts the cells in which some point's core flag was
	// re-tested: a dirty cell's points, and the points of a clean
	// neighbour that lie within Eps of one of the tick's events.
	CoreCells int
	// FragCells counts the cells whose core set changed — a departing
	// point was core, or a flag flipped — and whose fragments were
	// therefore rebuilt.
	FragCells int
	// PairsRebuilt counts the adjacent cell pairs whose edges were
	// recomputed: pairs touching a cell whose core set changed, where both
	// cells hold a fragment. A pair with an absent or core-less side only
	// has its buffer truncated and is not counted.
	PairsRebuilt int
	// BorderCells counts the cells whose non-core points were re-anchored:
	// the 3×3 blocks around FragCells' cells and the neighbours of emptied
	// cells that held cores, plus every other non-empty dirty cell (its
	// own points only).
	BorderCells  int
	WindowPoints int           // live points after this tick
	Clusters     int           // clusters after this tick
	Elapsed      time.Duration // wall time spent in Tick
}

// fragEdge records Eps-connectivity between fragment FA of a pair's
// lower cell and fragment FB of its upper cell.
type fragEdge struct {
	FA, FB int32
}

// subBox is one Eps/3 sub-box of a cell. The two grids are computed
// independently (x/Eps and x/(Eps/3), each rounded), so a point an ulp
// from a cell border may report a sub-box coordinate one outside the
// cell's own 3×3 — a cell therefore keeps a short list keyed by the
// absolute sub-box coordinate, nine entries in practice and never more
// than 5×5. Every shortcut above is stated on sub-box coordinates alone
// and has a ≥ 5 % margin (2√2/3 ≈ 0.943 against 1), so which cell such a
// point is filed under never matters to them.
type subBox struct {
	sx, sy  int32
	frag    int32   // fragment of this sub-box's cores; -1 when it has none
	ncore   int32   // slots[:ncore] are the cores, as of the cell's last fragment rebuild
	minCore uint64  // smallest core point ID; math.MaxUint64 when none, or when remove took it
	slots   []int32 // live points, cores first; from Engine.slotBufs
}

func (sb *subBox) cores() []int32 { return sb.slots[:sb.ncore] }

// Per-tick work-set membership, valid while cell.gen == Engine.gen.
const (
	markDirty    uint8 = 1 << iota // gained or lost a point this tick
	markInspect                    // core flags to recompute
	markCoreLost                   // a departing point was core
	markBorder                     // border anchors to reassign
	markPair                       // markPair<<k: forward pair k already rebuilt
)

// cell holds the live points of one Eps grid cell, bucketed by
// sub-box, its fragment decomposition and the edges to the four
// neighbours that sort after it.
type cell struct {
	coord grid.Coord
	n     int32 // live points; 0 also while the cell sits on the free list
	marks uint8 // beside n: phase 1 reads both of every neighbour
	gen   uint64
	// nbr caches the slab ids of the Moore neighbours in
	// Coord.Neighbors order, -1 where no cell exists. The neighbour at
	// index i holds this cell at index 7-i.
	nbr [8]int32

	nfrags   int32
	fragBase int32 // global id of fragment 0, assigned by relabel

	subs []subBox // emptied sub-boxes stay listed until the cell is freed

	// fwd[k] holds the fragment edges of the pair (this cell, nbr[4+k]):
	// each unordered pair is stored once, on its lower cell. The buffers
	// come from Engine.edgeBufs.
	fwd [4][]fragEdge

	// arrived and expired head the cell's chains of this tick's events
	// (Engine.nextArrived, Engine.nextExpired), -1 when empty; valid while
	// the cell is marked dirty.
	arrived, expired int32
}

// live reports whether the slab entry holds a cell rather than sitting
// on the free list: a cell is created for a point, so it lists at least
// one sub-box until freeCell clears them.
func (c *cell) live() bool { return len(c.subs) > 0 }

// Engine is a sliding-window incremental DBSCAN engine. It is not safe
// for concurrent use; callers serialize Tick/Snapshot externally.
type Engine struct {
	cfg  Config
	g    grid.Grid // Eps cells
	sg   grid.Grid // Eps/3 sub-boxes (SubBoxes)
	eps2 float64

	tick int // completed ticks

	// Slot storage: point state indexed by slot; expired slots recycle
	// through free.
	pts    []geom.Point
	cellOf []int32 // slab id of the slot's cell
	subOf  []int32 // index of the slot's sub-box in its cell's subs
	pos    []int32 // index of the slot in its sub-box's slots
	core   []bool
	anchor []int32 // core slot this point labels through; -1 = noise; self for cores
	free   []int32
	byID   *table // live point ID -> slot

	// The tick's events, chained per cell through the slots they touched:
	// an arrival's slot holds its point; an expiry's slot may be refilled
	// by an arrival of the same tick, so gone keeps the expired point.
	nextArrived, nextExpired []int32
	gone                     []geom.Point

	ring [][]int32 // ring[t%W] = slots that arrived at tick t

	// Cell slab: freed ids recycle through freeCells; ids maps a packed
	// coordinate to its slab id. A slab entry's subs is cut, once, from
	// subArena; the buffers hanging off a cell come from the two pools.
	cells     []cell
	freeCells []int32
	ids       *table
	subArena  []subBox
	slotBufs  pool[int32]
	edgeBufs  pool[fragEdge]

	// Per-tick work sets: marks on the cells plus these reused lists.
	gen                             uint64
	dirty, inspect, changed, border []int32
	cand, far                       []*subBox // a block's sub-boxes; those in reach of one of them
	near                            []int32   // a block's dirty cells

	// relabel's output and scratch: label[cell.fragBase+f] is the dense
	// cluster ID of a cell's fragment f.
	label     []int32
	compMin   []uint64
	roots     []int32
	uf        dsu.DSU // over global fragment ids in relabel, over sub-boxes in rebuildFragments
	nclusters int

	hub *telemetry.Hub
	m   metrics
}

// metrics are the engine's hub handles, resolved once (nil-safe on a nil
// hub) so a tick does no registry lookups.
type metrics struct {
	ticks, ingested, expired, dirtyCells, recomputed *telemetry.Counter
	windowPoints, clusters                           *telemetry.Gauge
	tickSeconds                                      *telemetry.Histogram
}

// ErrOutOfRange refuses an arrival or a restored point outside the range
// of the engine's sub-box grid (SubBoxes, grid.InRange), where far-apart
// points would share a sub-box.
var ErrOutOfRange = errors.New("stream: coordinate out of range")

// SubBoxes returns the grid of the engine's Eps/3 sub-boxes. Its range
// (grid.InRange) is the engine's, and it implies the Eps grid's.
func SubBoxes(eps float64) grid.Grid { return grid.New(eps / 3) }

// claimed is the byID value of a batch's IDs between validation and
// ingest.
const claimed = -1

// New validates cfg and returns an empty engine.
func New(cfg Config) (*Engine, error) {
	if err := (geom.Params{Eps: cfg.Eps, MinPts: cfg.MinPts}).Validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	if cfg.WindowTicks < 1 {
		return nil, fmt.Errorf("stream: window must be >= 1 tick, got %d", cfg.WindowTicks)
	}
	if cfg.Name == "" {
		cfg.Name = "stream"
	}
	hub, name := cfg.Telemetry, cfg.Name
	return &Engine{
		cfg:  cfg,
		g:    grid.New(cfg.Eps),
		sg:   SubBoxes(cfg.Eps),
		eps2: cfg.Eps * cfg.Eps,
		byID: newTable(),
		ring: make([][]int32, cfg.WindowTicks),
		ids:  newTable(),
		gen:  1,
		hub:  hub,
		m: metrics{
			ticks:        hub.Counter("stream_ticks_total", "stream", name),
			ingested:     hub.Counter("stream_points_ingested_total", "stream", name),
			expired:      hub.Counter("stream_points_expired_total", "stream", name),
			dirtyCells:   hub.Counter("stream_dirty_cells_total", "stream", name),
			recomputed:   hub.Counter("stream_cells_recomputed_total", "stream", name),
			windowPoints: hub.Gauge("stream_window_points", "stream", name),
			clusters:     hub.Gauge("stream_clusters", "stream", name),
			tickSeconds:  hub.Histogram("stream_tick_seconds", []float64{.0001, .001, .01, .1, 1, 10}, "stream", name),
		},
	}, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// TickIndex returns the number of completed ticks.
func (e *Engine) TickIndex() int { return e.tick }

// Len returns the number of live points in the window.
func (e *Engine) Len() int { return e.byID.n }

// NumClusters returns the cluster count after the last tick.
func (e *Engine) NumClusters() int { return e.nclusters }

// Tick advances the window one step: the batch ingested WindowTicks ago
// expires, arrivals are ingested, and the labeling is repaired. The
// batch is validated before any mutation — on error the window is
// unchanged. Point IDs must be unique within the live window.
func (e *Engine) Tick(arrivals []geom.Point) (TickStats, error) {
	return e.TickAdmitted(arrivals, nil)
}

// TickAdmitted is Tick for a caller that persists what it feeds the
// engine: admitted, when not nil, is called with the tick's number once
// the batch has passed validation and before the window changes. Nothing
// can refuse the batch after that, so the caller may make the arrivals
// durable while the engine repairs the window.
func (e *Engine) TickAdmitted(arrivals []geom.Point, admitted func(tick int)) (TickStats, error) {
	start := time.Now()
	if err := e.claim(arrivals); err != nil {
		return TickStats{}, err
	}

	e.tick++
	if admitted != nil {
		admitted(e.tick)
	}
	var sp *telemetry.Span
	if e.hub != nil {
		sp = e.hub.Start(nil, "stream.tick",
			telemetry.String("stream", e.cfg.Name),
			telemetry.Int("tick", e.tick),
			telemetry.Int("arrivals", len(arrivals)))
	}

	e.gen++
	e.dirty = e.dirty[:0]
	slot := e.tick % e.cfg.WindowTicks

	// Expire the arrivals of tick-W, then ingest this tick's.
	expired := len(e.ring[slot])
	for _, s := range e.ring[slot] {
		e.remove(s)
	}
	e.ring[slot] = e.ring[slot][:0]
	for _, p := range arrivals {
		s := e.insert(p)
		c := e.touch(e.cellOf[s])
		e.nextArrived[s], c.arrived = c.arrived, s
		e.ring[slot] = append(e.ring[slot], s)
	}

	st := TickStats{
		Tick:       e.tick,
		Arrivals:   len(arrivals),
		Expired:    expired,
		DirtyCells: len(e.dirty),
	}
	e.repair(&st)
	st.WindowPoints = e.Len()
	st.Clusters = e.nclusters
	st.Elapsed = time.Since(start)

	e.m.ticks.Inc()
	e.m.ingested.Add(int64(len(arrivals)))
	e.m.expired.Add(int64(expired))
	e.m.dirtyCells.Add(int64(st.DirtyCells))
	e.m.recomputed.Add(int64(st.CoreCells))
	e.m.windowPoints.Set(int64(st.WindowPoints))
	e.m.clusters.Set(int64(e.nclusters))
	e.m.tickSeconds.Observe(st.Elapsed.Seconds())
	if sp != nil {
		sp.Annotate(
			telemetry.Int("dirty_cells", st.DirtyCells),
			telemetry.Int("clusters", e.nclusters),
			telemetry.Int("window_points", st.WindowPoints))
		sp.End()
	}
	return st, nil
}

// claim validates a batch and reserves its IDs in byID (insert fills in
// the slots). On error every reservation is undone.
func (e *Engine) claim(arrivals []geom.Point) error {
	for i, p := range arrivals {
		var err error
		if !e.sg.InRange(p) {
			err = fmt.Errorf("%w: point %d at (%v, %v) is not finite or beyond %d sub-boxes of side %v from the origin",
				ErrOutOfRange, p.ID, p.X, p.Y, grid.MaxCoord, e.sg.Side())
		} else if s, live := e.byID.get(p.ID); !live {
			e.byID.put(p.ID, claimed)
			continue
		} else if s == claimed {
			err = fmt.Errorf("stream: duplicate point ID %d in batch", p.ID)
		} else {
			err = fmt.Errorf("stream: point ID %d already live in window", p.ID)
		}
		for _, q := range arrivals[:i] {
			e.byID.del(q.ID)
		}
		return err
	}
	return nil
}

// mark adds cell id to the work set bit names and reports whether it was
// newly added.
func (e *Engine) mark(id int32, bit uint8) bool {
	c := &e.cells[id]
	if c.gen != e.gen {
		c.gen, c.marks = e.gen, 0
	}
	if c.marks&bit != 0 {
		return false
	}
	c.marks |= bit
	return true
}

// has reports whether cell id is in the work set bit names.
func (e *Engine) has(id int32, bit uint8) bool {
	c := &e.cells[id]
	return c.gen == e.gen && c.marks&bit != 0
}

// touch adds cell id to the dirty set, its event chains emptied the first
// time in a tick, and returns it.
func (e *Engine) touch(id int32) *cell {
	c := &e.cells[id]
	if e.mark(id, markDirty) {
		e.dirty = append(e.dirty, id)
		c.arrived, c.expired = -1, -1
	}
	return c
}

// repair re-establishes the labeling invariants after the cells in
// e.dirty gained or lost points. The five phases and their recompute
// sets:
//
//  1. core flags over dirty ∪ N(dirty) — a point's core status depends
//     only on its Eps-neighbourhood, which lies in its 3×3 cell block. A
//     dirty cell re-tests its points; a clean one re-tests only the
//     points within Eps of one of the tick's events (its neighbours'
//     arrivals and expiries), since no other point's neighbourhood moved;
//  2. fragments for `changed` = cells whose core set changed: a departing
//     point was core, or phase 1 flipped a flag — fragments are
//     components of cores, so gaining or losing non-core points leaves
//     them as they were;
//  3. inter-cell fragment edges for pairs touching changed cells (an
//     emptied cell's edges went with it when it was freed, or phantom
//     fragments would bridge live neighbours);
//  4. border anchors over N⁺(changed) ∪ N(emptied cells that held
//     cores) — any core a border point could gain, lose or re-rank lives
//     in an adjacent cell of one of those — plus each other non-empty
//     dirty cell, whose own new points need an anchor;
//  5. global relabel from the edge cache.
//
// An emptied cell is freed between phases 1 and 2: until then its
// expiries stay visible to its neighbours' event filter, and after it
// no later phase can meet it through a neighbour id.
func (e *Engine) repair(st *TickStats) {
	e.inspect, e.changed, e.border = e.inspect[:0], e.changed[:0], e.border[:0]
	for _, id := range e.dirty {
		if e.mark(id, markInspect) {
			e.inspect = append(e.inspect, id)
		}
		for _, n := range e.cells[id].nbr {
			if n >= 0 && e.mark(n, markInspect) {
				e.inspect = append(e.inspect, n)
			}
		}
	}

	// Phase 1: core flags.
	for _, id := range e.inspect {
		if e.cells[id].n == 0 {
			continue
		}
		tested, flipped := e.recomputeCores(id)
		if tested > 0 {
			st.CoreCells++
		}
		if flipped || e.has(id, markCoreLost) {
			e.changed = append(e.changed, id)
		}
	}

	// Emptied cells leave; one that held cores takes its neighbours'
	// anchors with it. Every other dirty cell re-anchors its own points.
	for _, id := range e.dirty {
		c := &e.cells[id]
		if c.n > 0 {
			if e.mark(id, markBorder) {
				e.border = append(e.border, id)
			}
			continue
		}
		if e.has(id, markCoreLost) {
			for _, n := range c.nbr {
				if n >= 0 && e.mark(n, markBorder) {
					e.border = append(e.border, n)
				}
			}
		}
		e.freeCell(id)
	}

	// Phase 2: fragments.
	for _, id := range e.changed {
		e.rebuildFragments(&e.cells[id])
	}
	st.FragCells = len(e.changed)

	// Phase 3: inter-cell edges, each pair once.
	for _, id := range e.changed {
		for dir, n := range e.cells[id].nbr {
			if n < 0 {
				continue
			}
			lo, k := id, dir-4
			if dir < 4 {
				lo, k = n, 3-dir
			}
			if e.mark(lo, markPair<<k) && e.rebuildPair(lo, k) {
				st.PairsRebuilt++
			}
		}
	}

	// Phase 4: border anchors.
	for _, id := range e.changed {
		if e.mark(id, markBorder) {
			e.border = append(e.border, id)
		}
		for _, n := range e.cells[id].nbr {
			if n >= 0 && e.mark(n, markBorder) {
				e.border = append(e.border, n)
			}
		}
	}
	for _, id := range e.border {
		if e.cells[id].n == 0 {
			continue
		}
		e.reassignBorders(id)
		st.BorderCells++
	}

	// Phase 5: relabel.
	e.relabel()
}

// reanchorAll recomputes everything — every cell dirty, so every point is
// re-tested and every cell holding a core is rebuilt with all its pairs.
// Restore builds its labeling this way: its points were filed non-core.
func (e *Engine) reanchorAll(st *TickStats) {
	e.gen++
	e.dirty = e.dirty[:0]
	for id := range e.cells {
		if e.cells[id].live() {
			e.touch(int32(id))
		}
	}
	e.repair(st)
}

// block returns cell id and its neighbours, -1 where none exists.
func (e *Engine) block(id int32) [9]int32 {
	var b [9]int32
	b[0] = id
	copy(b[1:], e.cells[id].nbr[:])
	return b
}

// blockSubs lists in e.cand the sub-boxes of a 3×3 block that hold a
// point (or, with coresOnly, a core).
func (e *Engine) blockSubs(around *[9]int32, coresOnly bool) {
	e.cand = e.cand[:0]
	for _, n := range around {
		if n < 0 || coresOnly && e.cells[n].nfrags == 0 {
			continue
		}
		subs := e.cells[n].subs
		for i := range subs {
			if sb := &subs[i]; coresOnly && sb.ncore > 0 || !coresOnly && len(sb.slots) > 0 {
				e.cand = append(e.cand, sb)
			}
		}
	}
}

// recomputeCores re-tests the DBSCAN core predicate — at least MinPts
// points, itself included, within Eps (the Eps-neighborhood is closed) —
// in cell id. It returns how many points it re-tested and whether any
// flag flipped.
//
// A dirty cell re-tests its points. A clean cell's points keep their
// neighbourhoods unless one of the tick's events lies within Eps, so only
// those are re-tested: a sub-box of MinPts or more points is core before
// and after, and one with no such point is skipped whole.
//
// Whole sub-boxes are decided first: every point of the sub-boxes within
// Chebyshev distance 1 is within Eps of every point of this one, so
// MinPts of them make all of its points core without a distance test —
// its known cores, slots[:ncore], stay as they are — and fewer still
// count towards each point's total; only the sub-boxes at distance 2..4
// are scanned.
func (e *Engine) recomputeCores(id int32) (tested int, flipped bool) {
	minPts := e.cfg.MinPts
	dirty := e.has(id, markDirty)
	c := &e.cells[id]
	if !dirty && !slices.ContainsFunc(c.subs, func(sb subBox) bool { return len(sb.slots) < minPts }) {
		return 0, false // every sub-box is core by count, before and after
	}
	around := e.block(id)
	pop := 0
	e.near = e.near[:0]
	for _, n := range around {
		if n < 0 {
			continue
		}
		pop += int(e.cells[n].n)
		if !dirty && e.has(n, markDirty) {
			e.near = append(e.near, n)
		}
	}
	listed := false // e.cand is built for the first sub-box that needs it
	for i := range c.subs {
		sb := &c.subs[i]
		slots := sb.slots
		first := 0 // in a clean cell, the first point an event reaches
		if !dirty {
			if len(slots) >= minPts {
				continue
			}
			for first < len(slots) && !e.touched(slots[first]) {
				first++
			}
			if first == len(slots) {
				continue
			}
		}
		near := len(slots)
		if near < minPts && pop >= minPts {
			if !listed {
				e.blockSubs(&around, false)
				listed = true
			}
			near = 0
			e.far = e.far[:0]
			for _, t := range e.cand {
				if d := chebyshev(sb, t); d <= 1 {
					near += len(t.slots)
				} else if d <= 4 {
					e.far = append(e.far, t)
				}
			}
		}
		from := first
		if near >= minPts {
			from = max(from, int(sb.ncore))
		}
		for j := from; j < len(slots); j++ {
			s := slots[j]
			if !dirty && j != first && !e.touched(s) {
				continue
			}
			tested++
			now := near >= minPts
			if !now && pop >= minPts { // else the whole block is too sparse
				now = e.isCore(s, minPts-near)
			}
			if now != e.core[s] {
				e.core[s] = now
				flipped = true
			}
		}
	}
	return tested, flipped
}

// touched reports whether an event of one of the cells in e.near lies
// within Eps of slot s.
func (e *Engine) touched(s int32) bool {
	p := e.pts[s]
	for _, id := range e.near {
		c := &e.cells[id]
		for q := c.arrived; q >= 0; q = e.nextArrived[q] {
			if geom.Dist2(p, e.pts[q]) <= e.eps2 {
				return true
			}
		}
		for q := c.expired; q >= 0; q = e.nextExpired[q] {
			if geom.Dist2(p, e.gone[q]) <= e.eps2 {
				return true
			}
		}
	}
	return false
}

// isCore reports whether slot s has need (>= 1) Eps-neighbours among
// the points of e.far.
func (e *Engine) isCore(s int32, need int) bool {
	p := e.pts[s]
	for _, t := range e.far {
		for _, q := range t.slots {
			if geom.Dist2(p, e.pts[q]) <= e.eps2 {
				if need--; need == 0 {
					return true
				}
			}
		}
	}
	return false
}

// rebuildFragments partitions each of c's sub-boxes cores-first and
// recomputes the intra-cell core components. Cores in one sub-box are
// mutually within Eps, so fragments are unions of whole sub-box core
// sets; sub-boxes at Chebyshev distance <= 1 join for free and only the
// rest (distance 2, the in-cell maximum, when the grids align) take a
// distance scan, and only while still apart.
//
// A sub-box's smallest core ID is kept up to date from its changes: the
// IDs read are those of new cores and of lost ones, and all of them only
// when the smallest was lost (remove marks that with math.MaxUint64).
func (e *Engine) rebuildFragments(c *cell) {
	subs := c.subs
	for i := range subs {
		sb := &subs[i]
		known := sb.ncore // slots[:known] were the cores
		rescan := sb.minCore == math.MaxUint64
		sb.ncore, sb.frag = 0, -1
		for j, s := range sb.slots { // a swap below only moves visited slots
			if !e.core[s] {
				rescan = rescan || int32(j) < known && e.pts[s].ID == sb.minCore
				continue
			}
			if int32(j) >= known && !rescan {
				sb.minCore = min(sb.minCore, e.pts[s].ID)
			}
			if nc := sb.ncore; int(nc) != j {
				q := sb.slots[nc]
				sb.slots[nc], sb.slots[j] = s, q
				e.pos[s], e.pos[q] = nc, int32(j)
			}
			sb.ncore++
		}
		if rescan {
			sb.minCore = math.MaxUint64
			for _, s := range sb.cores() {
				sb.minCore = min(sb.minCore, e.pts[s].ID)
			}
		}
	}
	e.uf.Reset(len(subs))
	for pass := 0; pass < 2; pass++ {
		for i := range subs {
			for j := i + 1; j < len(subs); j++ {
				if subs[i].ncore == 0 || subs[j].ncore == 0 {
					continue
				}
				near := chebyshev(&subs[i], &subs[j]) <= 1
				if pass == 0 && near ||
					pass == 1 && !near && !e.uf.Same(i, j) && e.bucketsTouch(subs[i].cores(), subs[j].cores()) {
					e.uf.Union(i, j)
				}
			}
		}
	}

	// Number the fragments by sub-box order; a fragment's root sub-box
	// carries its number while the others are assigned.
	c.nfrags = 0
	for i := range subs {
		if subs[i].ncore == 0 {
			continue
		}
		root := &subs[e.uf.Find(i)]
		if root.frag < 0 {
			root.frag = c.nfrags
			c.nfrags++
		}
		subs[i].frag = root.frag
	}
}

// rebuildPair refills the edge buffer of the pair (lo, its forward
// neighbour k) and reports whether there was anything to compute: a
// side without fragments leaves the buffer empty. Sub-box pairs at
// Chebyshev distance <= 1 connect for free, >= 5 cannot connect, and
// 2..4 take one early-exit distance scan — after the free ones, and only
// for a fragment pair not yet linked; one hit per sub-box pair suffices
// because a sub-box's cores share a fragment.
func (e *Engine) rebuildPair(lo int32, k int) bool {
	a := &e.cells[lo]
	b := &e.cells[a.nbr[4+k]]
	a.fwd[k] = a.fwd[k][:0]
	if a.nfrags == 0 || b.nfrags == 0 {
		return false
	}
	edges := a.fwd[k]
	all := int(a.nfrags) * int(b.nfrags)
	for pass := 0; pass < 2 && len(edges) < all; pass++ {
		for i := range a.subs {
			sa := &a.subs[i]
			if sa.frag < 0 {
				continue
			}
			for j := range b.subs {
				sb := &b.subs[j]
				if sb.frag < 0 {
					continue
				}
				ed := fragEdge{FA: sa.frag, FB: sb.frag}
				dc := chebyshev(sa, sb)
				if pass == 0 && dc <= 1 && !slices.Contains(edges, ed) ||
					pass == 1 && dc >= 2 && dc <= 4 && !slices.Contains(edges, ed) && e.bucketsTouch(sa.cores(), sb.cores()) {
					edges = e.edgeBufs.push(edges, ed)
				}
			}
		}
	}
	a.fwd[k] = edges
	return true
}

// reassignBorders recomputes the anchor of every point in cell id: cores
// anchor to themselves; non-cores anchor to the nearest core within Eps
// (ties to the smallest point ID, keeping labels a pure function of the
// window contents), or to nothing (noise). Only sub-boxes within
// Chebyshev distance 4 can hold such a core.
func (e *Engine) reassignBorders(id int32) {
	around := e.block(id)
	listed := false // e.cand is built for the first sub-box with a non-core
	c := &e.cells[id]
	for i := range c.subs {
		sb := &c.subs[i]
		for _, s := range sb.cores() {
			e.anchor[s] = s
		}
		if int(sb.ncore) == len(sb.slots) {
			continue
		}
		if !listed {
			e.blockSubs(&around, true)
			listed = true
		}
		e.far = e.far[:0]
		for _, t := range e.cand {
			if chebyshev(sb, t) <= 4 {
				e.far = append(e.far, t)
			}
		}
		for _, s := range sb.slots[sb.ncore:] {
			best := int32(-1)
			if len(e.far) > 0 {
				p := e.pts[s]
				bestD := math.Inf(1)
				var bestID uint64
				for _, t := range e.far {
					for _, q := range t.cores() {
						d := geom.Dist2(p, e.pts[q])
						if d > e.eps2 {
							continue
						}
						qid := e.pts[q].ID
						if best < 0 || d < bestD || (d == bestD && qid < bestID) {
							best, bestD, bestID = q, d, qid
						}
					}
				}
			}
			e.anchor[s] = best
		}
	}
}

// relabel rebuilds the fragment → cluster table from the edge buffers.
// Cluster IDs are dense and ordered by each component's smallest member
// point ID, so they are stable across restarts.
func (e *Engine) relabel() {
	total := int32(0)
	for id := range e.cells {
		c := &e.cells[id]
		c.fragBase = total
		total += c.nfrags
	}
	e.uf.Reset(int(total))
	for id := range e.cells {
		c := &e.cells[id]
		for k := range c.fwd {
			for _, ed := range c.fwd[k] {
				e.uf.Union(int(c.fragBase+ed.FA), int(e.cells[c.nbr[4+k]].fragBase+ed.FB))
			}
		}
	}
	e.compMin = slices.Grow(e.compMin[:0], int(total))[:total]
	for i := range e.compMin {
		e.compMin[i] = math.MaxUint64
	}
	for id := range e.cells {
		c := &e.cells[id]
		for i := range c.subs {
			if sb := &c.subs[i]; sb.frag >= 0 {
				r := e.uf.Find(int(c.fragBase + sb.frag))
				e.compMin[r] = min(e.compMin[r], sb.minCore)
			}
		}
	}
	e.roots = e.roots[:0]
	for g := int32(0); g < total; g++ {
		if e.uf.Find(int(g)) == int(g) {
			e.roots = append(e.roots, g)
		}
	}
	slices.SortFunc(e.roots, func(a, b int32) int { return cmp.Compare(e.compMin[a], e.compMin[b]) })
	e.label = slices.Grow(e.label[:0], int(total))[:total]
	for rank, r := range e.roots {
		e.label[r] = int32(rank)
	}
	for g := range e.label {
		e.label[g] = e.label[e.uf.Find(g)]
	}
	e.nclusters = len(e.roots)
}

// labelOf resolves slot s's cluster label through its anchor.
func (e *Engine) labelOf(s int32) int {
	a := e.anchor[s]
	if a < 0 {
		return Noise
	}
	c := &e.cells[e.cellOf[a]]
	return int(e.label[c.fragBase+c.subs[e.subOf[a]].frag])
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
	slots := make([]int32, 0, e.Len())
	for _, batch := range e.ring {
		slots = append(slots, batch...)
	}
	slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(e.pts[a].ID, e.pts[b].ID) })
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
	n := 0
	for _, ta := range ws.Ticks {
		n += len(ta.Points)
	}
	e.reserve(n)
	seen := make([]bool, e.cfg.WindowTicks) // in-window ticks have distinct ring slots
	for _, ta := range ws.Ticks {
		if ta.Tick < 1 || ta.Tick > ws.Tick || ta.Tick <= ws.Tick-e.cfg.WindowTicks {
			return nil, fmt.Errorf("stream: restore: tick %d outside window ending at %d", ta.Tick, ws.Tick)
		}
		slot := ta.Tick % e.cfg.WindowTicks
		if seen[slot] {
			return nil, fmt.Errorf("stream: restore: tick %d recorded twice", ta.Tick)
		}
		seen[slot] = true
		for _, p := range ta.Points {
			if _, dup := e.byID.get(p.ID); dup {
				return nil, fmt.Errorf("stream: restore: point ID %d recorded twice", p.ID)
			}
			if !e.sg.InRange(p) {
				return nil, fmt.Errorf("%w: restore: point %d at (%v, %v)", ErrOutOfRange, p.ID, p.X, p.Y)
			}
			e.ring[slot] = append(e.ring[slot], e.insert(p))
		}
	}
	e.tick = ws.Tick
	var st TickStats
	e.reanchorAll(&st)
	return e, nil
}

// --- slot and cell plumbing ---

// reserve makes room in the slot slabs for n more slots, so that filing
// a restored window copies none of them.
func (e *Engine) reserve(n int) {
	e.pts = slices.Grow(e.pts, n)
	e.cellOf = slices.Grow(e.cellOf, n)
	e.subOf = slices.Grow(e.subOf, n)
	e.pos = slices.Grow(e.pos, n)
	e.core = slices.Grow(e.core, n)
	e.anchor = slices.Grow(e.anchor, n)
	e.nextArrived = slices.Grow(e.nextArrived, n)
	e.nextExpired = slices.Grow(e.nextExpired, n)
	e.gone = slices.Grow(e.gone, n)
}

// insert files p under a slot in its cell and sub-box and returns the
// slot.
func (e *Engine) insert(p geom.Point) int32 {
	var s int32
	if n := len(e.free); n > 0 {
		s, e.free = e.free[n-1], e.free[:n-1]
	} else {
		s = int32(len(e.pts))
		e.pts = append(e.pts, geom.Point{})
		e.cellOf = append(e.cellOf, 0)
		e.subOf = append(e.subOf, 0)
		e.pos = append(e.pos, 0)
		e.core = append(e.core, false)
		e.anchor = append(e.anchor, 0)
		e.nextArrived = append(e.nextArrived, 0)
		e.nextExpired = append(e.nextExpired, 0)
		e.gone = append(e.gone, geom.Point{})
	}
	e.pts[s], e.core[s], e.anchor[s] = p, false, -1
	e.byID.put(p.ID, s)

	co := e.g.CellOf(p)
	id, ok := e.ids.get(cellKey(co))
	if !ok {
		id = e.newCell(co)
	}
	c := &e.cells[id]
	c.n++
	sc := e.sg.CellOf(p)
	k := 0
	for k < len(c.subs) && (c.subs[k].sx != sc.CX || c.subs[k].sy != sc.CY) {
		k++
	}
	if k == len(c.subs) {
		c.subs = append(c.subs, subBox{sx: sc.CX, sy: sc.CY, frag: -1, minCore: math.MaxUint64})
	}
	sb := &c.subs[k]
	e.cellOf[s], e.subOf[s], e.pos[s] = id, int32(k), int32(len(sb.slots))
	sb.slots = e.slotBufs.push(sb.slots, s)
	return s
}

// remove detaches slot s from its cell, recording the expiry as an event
// and, when s was a core, the loss on the cell; an emptied cell stays in
// the slab until the next repair classifies it.
func (e *Engine) remove(s int32) {
	id := e.cellOf[s]
	c := e.touch(id)
	e.gone[s], e.nextExpired[s], c.expired = e.pts[s], c.expired, s
	c.n--
	// Fill s's place with the last core if s is one, then that place (or
	// s's) with the last slot: the cores stay in front.
	sb := &c.subs[e.subOf[s]]
	hole := e.pos[s]
	if hole < sb.ncore {
		e.mark(id, markCoreLost)
		if e.pts[s].ID == sb.minCore {
			sb.minCore = math.MaxUint64
		}
		sb.ncore--
		hole = e.move(sb, sb.ncore, hole)
	}
	last := int32(len(sb.slots) - 1)
	if hole != last {
		e.move(sb, last, hole)
	}
	sb.slots = sb.slots[:last]
	if last == 0 { // the tick's arrivals may reuse the buffer
		e.slotBufs.put(sb.slots)
		sb.slots = nil
	}
	e.byID.del(e.pts[s].ID)
	e.free = append(e.free, s)
}

// move copies the slot at index from of sb.slots to index to and returns
// from, the place it vacated.
func (e *Engine) move(sb *subBox, from, to int32) int32 {
	q := sb.slots[from]
	sb.slots[to], e.pos[q] = q, to
	return from
}

// newCell takes a slab entry for coordinate co and links it with the
// neighbours that exist.
func (e *Engine) newCell(co grid.Coord) int32 {
	var id int32
	if n := len(e.freeCells); n > 0 {
		id, e.freeCells = e.freeCells[n-1], e.freeCells[:n-1]
	} else {
		id = int32(len(e.cells))
		if len(e.subArena) < subsPerCell {
			e.subArena = make([]subBox, 128*subsPerCell)
		}
		e.cells = append(e.cells, cell{subs: e.subArena[:0:subsPerCell]})
		e.subArena = e.subArena[subsPerCell:]
	}
	c := &e.cells[id]
	c.coord = co
	for i, nc := range co.Neighbors() {
		n, ok := e.ids.get(cellKey(nc))
		if !ok {
			n = -1
		} else {
			e.cells[n].nbr[7-i] = id
		}
		c.nbr[i] = n
	}
	e.ids.put(cellKey(co), id)
	return id
}

// subsPerCell is the sub-box capacity a slab entry starts with: the 3×3
// of aligned grids (a misaligned point makes append grow it).
const subsPerCell = 9

// freeCell unlinks an emptied cell from its neighbours — dropping the
// pair edges on both sides — and returns its buffers to the pools and
// its entry to the free list.
func (e *Engine) freeCell(id int32) {
	c := &e.cells[id]
	for i, n := range c.nbr {
		if n < 0 {
			continue
		}
		e.cells[n].nbr[7-i] = -1
		if i < 4 { // n is the pair's lower cell; this one is its forward neighbour 3-i
			e.cells[n].fwd[3-i] = e.cells[n].fwd[3-i][:0]
		}
	}
	for k := range c.fwd {
		e.edgeBufs.put(c.fwd[k])
		c.fwd[k] = nil
	}
	for i := range c.subs {
		e.slotBufs.put(c.subs[i].slots)
	}
	c.subs, c.nfrags = c.subs[:0], 0
	e.ids.del(cellKey(c.coord))
	e.freeCells = append(e.freeCells, id)
}

// --- geometry helpers ---

// cellKey packs a coordinate into a table key.
func cellKey(c grid.Coord) uint64 { return uint64(uint32(c.CX))<<32 | uint64(uint32(c.CY)) }

func chebyshev(a, b *subBox) int32 {
	dx := a.sx - b.sx
	if dx < 0 {
		dx = -dx
	}
	dy := a.sy - b.sy
	if dy < 0 {
		dy = -dy
	}
	return max(dx, dy)
}

// bucketsTouch reports whether any cross pair is within Eps, with early
// exit on the first hit.
func (e *Engine) bucketsTouch(as, bs []int32) bool {
	for _, a := range as {
		for _, b := range bs {
			if geom.Dist2(e.pts[a], e.pts[b]) <= e.eps2 {
				return true
			}
		}
	}
	return false
}
