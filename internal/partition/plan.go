// Package partition implements Mr. Scan's partition phase (paper §3.1):
// dividing the Eps grid (grid.New) into one partition per clustering
// process such that (1) partitions merge to a correct global DBSCAN
// result, (2) partitions have roughly equal computational cost, measured
// in points, and (3) the work distributes across many partitioner
// processes.
//
// Correctness comes from shadow regions: each partition is extended by
// every neighboring region it does not own, so every partition point's
// Eps-neighborhood is complete within the partition (§3.1.1).
//
// Balance comes from the forming algorithm (§3.1.2): ownership units are
// consumed in iteration order (first along y, then along x) into
// partitions capped at an equal share of the points, with a
// running-difference correction, and a backward rebalancing pass that
// shrinks oversized partitions to within 1.075× of the final target.
//
// Ownership units are whole grid cells by default; extremely dense cells
// can be subdivided into quadrant tiles (see Unit), implementing the
// paper's §5.1.2 fix for the strong-scaling limit.
//
// The root forms the plan serially, so the planner is written to be linear
// in units: the cell histogram arrives sorted (the leaves sort their
// cells, the reduction merges sorted runs), the non-empty units live in a
// table in that order (unitTable), a partition is an index range of it,
// and shadows are found from the range's boundary columns only (see
// planner.scanShadow).
package partition

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
)

// RebalanceThreshold is the paper's 1.075 × final-target cutoff: "The
// threshold is set to 1.075 × finaltargetsize because it worked well in
// practice on our datasets."
const RebalanceThreshold = 1.075

// Spec describes one partition: the units it owns (in iteration order)
// and its shadow units.
type Spec struct {
	// Units are the owned units, contiguous in iteration order.
	Units []Unit
	// PointCount is the number of points in owned units.
	PointCount int64
	// Shadow are the non-empty units owned by other partitions that lie
	// in the 3×3 cell neighborhood of this partition's units, in iteration
	// order.
	Shadow []Unit
	// ShadowCount is the number of points in shadow units.
	ShadowCount int64
}

// Total returns the partition's size including its shadow region — the
// quantity the rebalancing pass thresholds.
func (s *Spec) Total() int64 { return s.PointCount + s.ShadowCount }

// Plan is a complete partitioning of the grid. It is immutable once
// returned and safe for concurrent readers (every leaf Splits against the
// same plan).
type Plan struct {
	Grid  grid.Grid
	Specs []*Spec
	// MinPts is the minimum partition size constraint the plan was formed
	// under.
	MinPts int

	tab *unitTable
	// depth is the subdivision depth of every split cell (absent = 0).
	depth map[grid.Coord]uint8
	// owner[x] is the partition owning unit x of tab.
	owner []int32
	// The shadow index Split reads: slot slotOff[i]+k stands for
	// Specs[i].Shadow[k], and unit x lies in the shadow slots
	// shadowSlots[shadowStart[x]:shadowStart[x+1]], ascending.
	slotOff     []int
	shadowStart []int32
	shadowSlots []int32
}

// PlanOptions configures MakePlanUnits.
type PlanOptions struct {
	NumPartitions int
	MinPts        int
	Rebalance     bool
}

// MakePlan forms nParts partitions from a plain cell histogram (no hot
// cell subdivision). minPts is DBSCAN's MinPts: the profitability
// constraint requires every partition to hold at least MinPts points
// where possible (§3.1.2). rebalance enables the backward rebalancing
// pass.
func MakePlan(g grid.Grid, h *grid.Histogram, nParts, minPts int, rebalance bool) (*Plan, error) {
	units, counts := make([]Unit, h.Len()), make([]int64, h.Len())
	for i := range units {
		var c grid.Coord
		c, counts[i] = h.At(i)
		units[i] = CellUnit(c)
	}
	plan, _, err := makePlan(g, newUnitTable(units, counts), nil, PlanOptions{
		NumPartitions: nParts,
		MinPts:        minPts,
		Rebalance:     rebalance,
	})
	return plan, err
}

// MakePlanUnits forms partitions from a unit histogram, which may carry
// subdivided hot cells.
func MakePlanUnits(g grid.Grid, uh *UnitHistogram, opt PlanOptions) (*Plan, error) {
	entries := make([]unitCount, 0, len(uh.Counts))
	for u, n := range uh.Counts {
		if n > 0 {
			entries = append(entries, unitCount{u, n})
		}
	}
	plan, _, err := makePlan(g, unitTableOf(entries), uh.Depth, opt)
	return plan, err
}

// planStats counts the planner's work for the complexity tests.
type planStats struct {
	// moves is the number of units the rebalancing pass moved;
	// rebalanceProbes the number of table units it examined to repair
	// shadows after them.
	moves, rebalanceProbes int
}

// makePlan runs the forming and rebalancing passes over the unit table.
func makePlan(g grid.Grid, t *unitTable, depth map[grid.Coord]uint8, opt PlanOptions) (*Plan, planStats, error) {
	if opt.NumPartitions < 1 {
		return nil, planStats{}, fmt.Errorf("partition: need at least 1 partition, got %d", opt.NumPartitions)
	}
	if opt.MinPts < 1 {
		return nil, planStats{}, fmt.Errorf("partition: MinPts must be positive, got %d", opt.MinPts)
	}
	pl := &planner{
		t:       t,
		minPts:  int64(opt.MinPts),
		bounds:  make([]int, 1, opt.NumPartitions+1),
		owned:   make([]int64, opt.NumPartitions),
		shadow:  make([][]int32, opt.NumPartitions),
		shadowN: make([]int64, opt.NumPartitions),
	}
	pl.form()
	for i := range pl.shadow {
		pl.scanShadow(i)
	}
	var stats planStats
	if opt.Rebalance {
		pl.probes = 0
		stats.moves = pl.rebalance()
		stats.rebalanceProbes = pl.probes
	}
	p := pl.plan(g, depth)
	// The plan gates the correctness of everything downstream (§3.1.1);
	// a structural check here is cheap relative to the data volume.
	if err := p.Validate(); err != nil {
		return nil, stats, err
	}
	return p, stats, nil
}

// planner is the working state of one makePlan call: partitions as index
// ranges of the table, and their shadows as index lists.
type planner struct {
	t      *unitTable
	minPts int64
	// bounds[i], bounds[i+1] delimit partition i.
	bounds []int
	// owned[i] and shadowN[i] are partition i's owned and shadow point
	// counts; shadow[i] its shadow units' indices, ascending.
	owned   []int64
	shadow  [][]int32
	shadowN []int64
	// probes counts the table units scanShadow examined.
	probes int
}

// form is the forming pass (§3.1.2). Partitions are built sequentially in
// unit iteration order. A partition closes when the next unit would push
// it past the current effective target — unless it is still empty, below
// MinPts, or the final partition. The running difference from the ideal
// target shrinks subsequent targets so early oversized partitions are
// paid for ("we form partitions proportionately smaller until the
// difference is neutral or negative again"). When there are fewer units
// than partitions the trailing ones stay empty (their leaves will be idle
// in the cluster phase).
func (pl *planner) form() {
	nParts := len(pl.owned)
	var total int64
	for _, n := range pl.t.counts {
		total += n
	}
	target := float64(total) / float64(nParts)
	runningDiff := 0.0
	effTarget := clampTarget(target, runningDiff, pl.minPts)
	cur := 0 // the partition being filled; it starts at bounds[cur]
	var curCount int64
	for k, n := range pl.t.counts {
		wouldExceed := float64(curCount+n) > effTarget
		canClose := k > pl.bounds[cur] && curCount >= pl.minPts && cur < nParts-1
		if wouldExceed && canClose {
			runningDiff += float64(curCount) - target
			pl.owned[cur] = curCount
			pl.bounds = append(pl.bounds, k)
			cur++
			curCount = 0
			effTarget = clampTarget(target, runningDiff, pl.minPts)
		}
		curCount += n
	}
	pl.owned[cur] = curCount
	for len(pl.bounds) < nParts+1 {
		pl.bounds = append(pl.bounds, len(pl.t.units))
	}
}

func clampTarget(target, runningDiff float64, minPts int64) float64 {
	eff := target
	if runningDiff > 0 {
		eff = target - runningDiff
	}
	if eff < float64(minPts) {
		eff = float64(minPts)
	}
	return eff
}

// scanShadow rebuilds partition i's shadow: every unit outside its range
// whose cell is in the 3×3 neighborhood of a cell holding one of its
// units — including sibling tiles of a split cell.
//
// The range is contiguous in x-major order, so every column strictly
// between its first and last is owned whole, and a cell two or more
// columns inside has all nine neighbors owned. Shadow units can therefore
// only sit in the column of the first unit and the one before it (below
// the range), and in the column of the last unit and the one after it
// (above the range): the scan examines those and nothing else, whatever
// the partition's size. Walking candidates in table order yields the
// shadow already sorted.
func (pl *planner) scanShadow(i int) {
	t, lo, hi := pl.t, pl.bounds[i], pl.bounds[i+1]
	sh := pl.shadow[i][:0]
	if lo < hi {
		from := lo
		for minX := t.units[lo].Cell.CX - 1; from > 0 && t.units[from-1].Cell.CX >= minX; {
			from--
		}
		sh = pl.scanRun(sh, from, lo, lo, hi)
		to := hi
		for maxX := t.units[hi-1].Cell.CX + 1; to < len(t.units) && t.units[to].Cell.CX <= maxX; {
			to++
		}
		sh = pl.scanRun(sh, hi, to, lo, hi)
	}
	pl.shadow[i] = sh
	pl.shadowN[i] = 0
	for _, x := range sh {
		pl.shadowN[i] += t.counts[x]
	}
}

// scanRun appends to sh the units of [from, to) whose cell touches the
// range [lo, hi), one cell (all its tiles) at a time.
func (pl *planner) scanRun(sh []int32, from, to, lo, hi int) []int32 {
	t := pl.t
	pl.probes += to - from
	for k := from; k < to; {
		c := t.units[k].Cell
		end := k + 1
		for end < to && t.units[end].Cell == c {
			end++
		}
		if t.touches(c, lo, hi) {
			for ; k < end; k++ {
				sh = append(sh, int32(k))
			}
		}
		k = end
	}
	return sh
}

// touches reports whether c or one of its eight neighbors holds a unit of
// the range [lo, hi).
func (t *unitTable) touches(c grid.Coord, lo, hi int) bool {
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			nb := grid.Coord{CX: c.CX + dx, CY: c.CY + dy}
			f := t.firstOf(nb)
			if f < 0 || f >= hi {
				continue
			}
			// A cell's units are adjacent: starting below lo it reaches
			// into the range exactly when the unit at lo is still its own.
			if f >= lo || t.units[lo].Cell == nb {
				return true
			}
		}
	}
	return false
}

// rebalance is the rebalancing pass (§3.1.2, Figure 2c): walking backward
// from the last partition, it moves leading units to the previous
// partition until the partition (including shadow) fits under
// RebalanceThreshold × the final target — "the mean of the point counts of
// all the partitions including shadow regions". A move shifts one bound;
// the two partitions beside it rescan their boundary columns. It returns
// the number of units moved.
func (pl *planner) rebalance() int {
	var sum int64
	for i := range pl.owned {
		sum += pl.owned[i] + pl.shadowN[i]
	}
	threshold := RebalanceThreshold * float64(sum) / float64(len(pl.owned))
	moves := 0
	for i := len(pl.owned) - 1; i >= 1; i-- {
		for float64(pl.owned[i]+pl.shadowN[i]) > threshold && pl.bounds[i+1]-pl.bounds[i] > 1 {
			head := pl.t.counts[pl.bounds[i]]
			// Keep the MinPts minimum partition size.
			if pl.owned[i]-head < pl.minPts {
				break
			}
			pl.bounds[i]++
			pl.owned[i] -= head
			pl.owned[i-1] += head
			moves++
			pl.scanShadow(i)
			pl.scanShadow(i - 1)
		}
	}
	return moves
}

// plan freezes the planner's ranges into a Plan: the Specs, the per-unit
// owner, and the unit → shadowing-partition index every Split reads.
func (pl *planner) plan(g grid.Grid, depth map[grid.Coord]uint8) *Plan {
	t := pl.t
	nParts := len(pl.owned)
	p := &Plan{
		Grid:        g,
		Specs:       make([]*Spec, nParts),
		MinPts:      int(pl.minPts),
		tab:         t,
		depth:       depth,
		owner:       make([]int32, len(t.units)),
		slotOff:     make([]int, nParts+1),
		shadowStart: make([]int32, len(t.units)+1),
	}
	for i, sh := range pl.shadow {
		p.slotOff[i+1] = p.slotOff[i] + len(sh)
		for _, x := range sh {
			p.shadowStart[x+1]++
		}
	}
	for x := range t.units {
		p.shadowStart[x+1] += p.shadowStart[x]
	}
	specs := make([]Spec, nParts)
	shadowUnits := make([]Unit, p.slotOff[nParts])
	p.shadowSlots = make([]int32, p.slotOff[nParts])
	fill := make([]int32, len(t.units))
	for i := range specs {
		s := &specs[i]
		p.Specs[i] = s
		s.PointCount, s.ShadowCount = pl.owned[i], pl.shadowN[i]
		if lo, hi := pl.bounds[i], pl.bounds[i+1]; lo < hi {
			s.Units = t.units[lo:hi:hi]
			for x := lo; x < hi; x++ {
				p.owner[x] = int32(i)
			}
		}
		if lo, hi := p.slotOff[i], p.slotOff[i+1]; lo < hi {
			s.Shadow = shadowUnits[lo:hi:hi]
		}
		// Partitions ascend, so every unit's slot list comes out ascending.
		for k, x := range pl.shadow[i] {
			s.Shadow[k] = t.units[x]
			p.shadowSlots[p.shadowStart[x]+fill[x]] = int32(p.slotOff[i] + k)
			fill[x]++
		}
	}
	return p
}

// NumPartitions returns the number of partitions in the plan.
func (p *Plan) NumPartitions() int { return len(p.Specs) }

// UnitOwner returns the partition owning unit u; ok is false for a unit
// the plan's histogram held no points in.
func (p *Plan) UnitOwner(u Unit) (owner int, ok bool) {
	x := p.tab.indexOf(u)
	if x < 0 {
		return 0, false
	}
	return int(p.owner[x]), true
}

// unitIndexOf returns the table index of the unit pt falls in, or -1.
func (p *Plan) unitIndexOf(pt geom.Point) int {
	c := p.Grid.CellOf(pt)
	if d := p.depth[c]; d > 0 {
		return p.tab.indexOf(UnitOf(p.Grid, pt, d))
	}
	return p.tab.indexOf(CellUnit(c))
}

// unitsOf returns the table index of each point's unit. With a rank
// (grid.RankedHistogramOf's for pts, h its histogram) it resolves each
// run's cell once (runUnits) and writes the indices over rank; only a
// point of a split cell's tiles, or of a cell the table lacks, is looked
// up by itself, as every point is when rank is nil.
func (p *Plan) unitsOf(pts []geom.Point, h *grid.Histogram, rank []int32) ([]int32, error) {
	unitOf := rank
	var runUnit []int32
	if rank == nil {
		unitOf = make([]int32, len(pts))
	} else {
		runUnit = p.runUnits(h)
	}
	for i, pt := range pts {
		x := -1
		if runUnit != nil {
			x = int(runUnit[rank[i]])
		}
		if x < 0 {
			if x = p.unitIndexOf(pt); x < 0 {
				return nil, fmt.Errorf("partition: point %v in cell %v owned by no partition (stale plan?)", pt, p.Grid.CellOf(pt))
			}
		}
		unitOf[i] = int32(x)
	}
	return unitOf, nil
}

// runUnits maps each run of h to the table index of its cell's
// whole-cell unit, -1 when the cell is split into tiles or absent. Both
// ascend by cell key, so it is one merge walk, galloping over the table
// (a shard's cells are a sparse subset of it when many leaves share the
// input).
func (p *Plan) runUnits(h *grid.Histogram) []int32 {
	units := p.tab.units
	out := make([]int32, h.Len())
	x := 0
	for r := range out {
		c, _ := h.At(r)
		x = gallop(units, x, c.Key())
		out[r] = -1
		if x < len(units) && units[x].Cell == c && units[x].Depth == 0 {
			out[r] = int32(x)
		}
	}
	return out
}

// gallop returns the first index from x on whose unit's cell key is at
// least k: it doubles a step until it passes k, then bisects the last
// step.
func gallop(units []Unit, x int, k uint64) int {
	lo, hi, step := x, x, 1 // every unit before lo is below k
	for hi < len(units) && units[hi].Cell.Key() < k {
		lo, hi, step = hi+1, hi+step, 2*step
	}
	hi = min(hi, len(units))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if units[m].Cell.Key() < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// MaxTotal returns the largest partition size including shadows.
func (p *Plan) MaxTotal() int64 {
	var max int64
	for _, s := range p.Specs {
		if s.Total() > max {
			max = s.Total()
		}
	}
	return max
}

// MeanTotal returns the mean partition size including shadows.
func (p *Plan) MeanTotal() float64 {
	var sum int64
	for _, s := range p.Specs {
		sum += s.Total()
	}
	return float64(sum) / float64(len(p.Specs))
}

// MaxOwned returns the largest partition size excluding shadows — the
// quantity hot-cell splitting reduces.
func (p *Plan) MaxOwned() int64 {
	var max int64
	for _, s := range p.Specs {
		if s.PointCount > max {
			max = s.PointCount
		}
	}
	return max
}

// SplitCells returns the number of cells subdivided into tiles.
func (p *Plan) SplitCells() int { return len(p.depth) }

// Validate checks the plan's structural invariants: the partitions' unit
// runs tile the sorted table (so every non-empty unit is owned exactly
// once and runs are contiguous in iteration order), shadows are sorted
// table units outside the owning run, and both counts agree with the
// histogram.
func (p *Plan) Validate() error {
	t := p.tab
	lo := 0
	for i, s := range p.Specs {
		hi := lo + len(s.Units)
		if hi > len(t.units) {
			return fmt.Errorf("partition: spec %d's run [%d,%d) passes the end of the %d non-empty units", i, lo, hi, len(t.units))
		}
		var count int64
		for k, u := range s.Units {
			if u != t.units[lo+k] {
				return fmt.Errorf("partition: spec %d unit %d is %v, iteration order has %v", i, k, u, t.units[lo+k])
			}
			count += t.counts[lo+k]
		}
		if count != s.PointCount {
			return fmt.Errorf("partition: spec %d counts %d points, units hold %d", i, s.PointCount, count)
		}
		var shadowCount int64
		prev := -1
		for _, u := range s.Shadow {
			x := t.indexOf(u)
			switch {
			case x < 0:
				return fmt.Errorf("partition: spec %d shadows empty unit %v", i, u)
			case x >= lo && x < hi:
				return fmt.Errorf("partition: spec %d shadows its own unit %v", i, u)
			case x <= prev:
				return fmt.Errorf("partition: spec %d shadow unit %v out of order", i, u)
			}
			prev = x
			shadowCount += t.counts[x]
		}
		if shadowCount != s.ShadowCount {
			return fmt.Errorf("partition: spec %d shadow counts %d, units hold %d", i, s.ShadowCount, shadowCount)
		}
		lo = hi
	}
	if lo != len(t.units) {
		return fmt.Errorf("partition: the specs own %d of the %d non-empty units", lo, len(t.units))
	}
	return nil
}
