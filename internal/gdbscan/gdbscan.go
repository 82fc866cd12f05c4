// Package gdbscan implements Mr. Scan's GPGPU DBSCAN (paper §3.2): an
// extension of the CUDA-DClust algorithm with two key modifications —
// limiting host↔GPGPU interaction to a single round trip (§3.2.2) and the
// dense box optimization (§3.2.3).
//
// The algorithm runs on a gpusim.Device:
//
//  1. A region KD-tree is built on the host straight into flat arrays
//     (CUDA-DClust's modified KD-tree whose leaves are point regions).
//     With DenseBox on, regions are subdivided down to Eps cells: leaves
//     whose diagonal is ≤ Eps, so their points are mutually within Eps.
//  2. Pass one classifies core points by cell counts. A bounds kernel,
//     one thread per leaf, traverses the tree with the leaf's rectangle
//     and sums the subtree counts of the nodes wholly within Eps of the
//     whole leaf (a lower bound on every member's neighborhood) and the
//     counts of the leaves within Eps of any of it (an upper bound):
//     lower ≥ MinPts makes every member core and upper < MinPts none,
//     with no per-point work — the paper's §3.2.3 test ("an Eps cell
//     holding ≥ MinPts points") is the special case of a leaf bounding
//     itself. Only the points of the remaining cells are counted, one
//     thread each, over the cell's list of straddling leaves, stopping
//     as soon as MinPts is reached.
//  3. Dense boxes: every Eps cell whose points are all core is a box —
//     one cluster, pre-assigned one ID, none of its points expanded.
//  4. Pass two expands the remaining core points: each GPGPU block claims
//     a seed and grows a cluster over core points; when two blocks touch
//     the same core point, or a block reaches any member of a box, the
//     collision is recorded in a per-block collision list (Figure 4).
//     Adjacent boxes are found by traversing the tree with a box's
//     rectangle and linked by an early-exit point-pair test.
//  5. Collisions are rectified with union-find on the host, then a final
//     pass joins every non-core point to the adjacent cluster whose first
//     core point comes first in (Point.ID, index) order — the cluster
//     sequential DBSCAN visiting points in that order would give it — so
//     labels are a function of the input alone.
//
// Input is copied to the device once and results retrieved once. The
// CUDA-DClust compatibility mode (ModeCUDADClust) instead charges two
// synchronous transfers per expansion round and disables both the early
// classification exit and dense boxes (cells included), reproducing the
// cost profile the paper optimizes away.
//
// A leaf node processes its partitions back-to-back on one device, so
// Cluster supports an optional Workspace: host-side scratch (the KD-tree
// and its flattened arrays, coordinate columns, cell verdicts and
// straddling lists, per-block queues and traversal stacks) is built into
// caller-provided backing arrays, and device buffers are leased from the
// device's pool (gpusim.AllocPooled), making repeated calls
// allocation-free on the classify/expand hot path.
package gdbscan

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/dbscan"
	"repro/internal/dsu"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/kdtree"
)

// Mode selects the host-interaction strategy.
type Mode int

const (
	// ModeMrScan is the paper's algorithm: one host→device copy of the
	// input, bulk kernel issue, one device→host copy of the result.
	ModeMrScan Mode = iota
	// ModeCUDADClust reproduces the baseline's 2×(points/blocks)
	// synchronous copies and full (no early exit) neighbor counts.
	ModeCUDADClust
)

// String names the mode for experiment output.
func (m Mode) String() string {
	switch m {
	case ModeMrScan:
		return "mrscan"
	case ModeCUDADClust:
		return "cuda-dclust"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a clustering run.
type Options struct {
	Params dbscan.Params
	// DenseBox enables the §3.2.3 optimization: the KD-tree is subdivided
	// to Eps cells and every all-core cell is a dense box. Off, the tree
	// keeps LeafSize-point leaves and every core point is expanded.
	// Ignored (off) in ModeCUDADClust.
	DenseBox bool
	// Mode selects Mr. Scan or the CUDA-DClust cost profile.
	Mode Mode
	// Blocks is the number of GPGPU blocks used for expansion; each block
	// expands one seed at a time (default 64, CUDA-DClust's configuration).
	Blocks int
	// ThreadsPerBlock is the width of the data-parallel passes
	// (classification, border attach; default 256).
	ThreadsPerBlock int
	// LeafSize is the KD-tree region capacity (default kdtree default):
	// the most points one leaf — and so one dense box — holds.
	LeafSize int
	// Workspace, when non-nil, provides reusable host-side scratch for
	// this call, eliminating per-partition allocation when one caller
	// clusters many partitions in sequence. A nil Workspace allocates
	// fresh scratch (identical results, more garbage). A Workspace must
	// not be shared by concurrent Cluster calls.
	Workspace *Workspace
}

func (o *Options) setDefaults() {
	if o.Blocks <= 0 {
		o.Blocks = 64
	}
	if o.ThreadsPerBlock <= 0 {
		o.ThreadsPerBlock = 256
	}
	if o.LeafSize <= 0 {
		o.LeafSize = kdtree.DefaultLeafSize
	}
	if o.Mode == ModeCUDADClust {
		o.DenseBox = false
	}
}

// Stats reports algorithm-level counters for a run.
type Stats struct {
	// DenseBoxes is the number of KD leaves eliminated as dense boxes
	// (all-core Eps cells, whether proven by a cell bound or point by
	// point); DenseBoxPoints is the number of points they removed from
	// expansion (the paper's p in O((n-p) log n)).
	DenseBoxes     int
	DenseBoxPoints int
	// CellCorePoints and CellNonCorePoints count the points whose core
	// flag a cell bound settled — every member of the leaf core, or none
	// — without a neighborhood count of their own. Zero in
	// ModeCUDADClust, which counts every neighborhood in full.
	CellCorePoints    int
	CellNonCorePoints int
	// SeedRounds is the number of expansion kernels: seeds / Blocks.
	SeedRounds int
	// Collisions is the number of cluster-ID unions rectified on the
	// host: block↔block and block↔box contacts recorded by the expansion
	// kernels plus box↔box links.
	Collisions int
	// BorderAttached is the number of non-core points the border pass
	// joined to a cluster.
	BorderAttached  int
	CorePoints      int
	DeviceH2DBytes  int64
	DeviceD2HBytes  int64
	DeviceTransfers int64
	// RoundTransferBytes records, per expansion round of ModeCUDADClust,
	// the modeled bytes of the round's two synchronous copies (state out
	// + seeds in, §3.2.2) — 2 × 64 × blocks active in that round. Nil in
	// ModeMrScan, whose expansion moves no per-round bytes.
	RoundTransferBytes []int64
}

// Result is the clustering output. Labels are local (per-leaf) cluster IDs
// 0..NumClusters-1 or dbscan.Noise.
type Result struct {
	Labels      []int32
	Core        []bool
	NumClusters int
	Stats       Stats
}

// collision records two cluster IDs that touched the same core point
// (Figure 4); the pair is unioned on the host afterwards.
type collision struct{ a, b int32 }

// collSeenSlots is the size of the per-block direct-mapped cache that
// suppresses duplicate collision records. Two expanding clusters meet
// along a whole frontier of shared points; recording the same ID pair
// once per contact wastes list space and host-side union-find time.
const collSeenSlots = 128

// blockScratch is the per-block working state of the expansion kernel.
// Each block is executed by exactly one goroutine per launch, so blocks
// use their own scratch without locks.
type blockScratch struct {
	queue      []int32
	stack      []int32
	collisions []collision
	// seen is the duplicate-collision filter: seen[hash(pair)] == pair.
	seen [collSeenSlots]uint64
}

// collisionSlot returns the pair's key and its slot in the seen filter.
func collisionSlot(a, b int32) (key uint64, slot uint64) {
	key = uint64(uint32(a))<<32 | uint64(uint32(b))
	return key, (key * 0x9E3779B97F4A7C15) >> (64 - 7)
}

// collide records that clusters a and b are one cluster, unless the seen
// filter shows the pair was just recorded.
func (bs *blockScratch) collide(a, b int32) {
	key, slot := collisionSlot(a, b)
	if bs.seen[slot] != key {
		bs.seen[slot] = key
		bs.collisions = append(bs.collisions, collision{a, b})
	}
}

// Workspace holds every reusable host-side array of a Cluster call. The
// zero value is ready to use; pass the same Workspace to successive
// calls (one partition after another on the same leaf) to stop them
// re-allocating the KD-tree, coordinate columns, and per-block expansion
// state. Not safe for concurrent use.
type Workspace struct {
	kd      kdtree.Workspace
	labels  []int32
	leafBox []int32
	seeds   []int32
	lead    []int32
	compact []int32
	near    []int32
	blocks  []blockScratch
	// Cell-count classification: per node, the bounds kernel's verdict on
	// the leaf; the leaves it left undecided; per bounds-kernel block, the
	// straddling lists of its undecided leaves, back to back.
	cells     []cellBound
	undecided []int32
	straddle  [][]int32
	// hasCore marks the tree nodes with a core point beneath them.
	hasCore []bool
	// boxPairs counts the box pairs the last call's linking pass
	// examined: the clock-free cost the tests' linearity guard bounds.
	boxPairs int
	// leafScans counts the leaf scans of the last call's classify kernel
	// (one member against one straddling leaf, point by point): the
	// clock-free cost of classification.
	leafScans atomic.Int64
}

// grow resizes s to n elements, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite or clear.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// fill resizes s to n elements, all set to v.
func fill(s []int32, n int, v int32) []int32 {
	s = grow(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// clustering is the state of one Cluster call, shared by its passes.
type clustering struct {
	dev   *gpusim.Device
	opt   Options
	ws    *Workspace
	pts   []geom.Point
	flat  *kdtree.Flat
	stats Stats

	xs, ys []float64
	eps2   float64
	// labels holds raw cluster IDs (-1: none yet): boxes take 0..nBoxes-1,
	// the expansion seed ws.seeds[si] takes nBoxes+si. merges records which
	// IDs are one cluster; compactLabels renumbers the clusters densely.
	labels []int32
	core   []bool
	// leafBox maps a tree node to the ID of the dense box it is, or -1.
	leafBox []int32
	nBoxes  int32
	merges  *dsu.DSU
}

// Cluster runs the GPGPU DBSCAN over pts on dev.
func Cluster(dev *gpusim.Device, pts []geom.Point, opt Options) (*Result, error) {
	if err := opt.Params.Validate(); err != nil {
		return nil, err
	}
	opt.setDefaults()
	n := len(pts)
	if n == 0 {
		return &Result{Labels: []int32{}, Core: []bool{}}, nil
	}
	c := newClustering(dev, pts, opt)
	flat := c.flat

	// Device allocation: point coords, flattened tree, flags and labels.
	// Buffers are leased from the device pool: the second partition on a
	// leaf reuses the first's allocations (pool hit) instead of paying
	// another cudaMalloc.
	const f64, i32 = 8, 4
	treeBytes := int64(len(flat.Bounds))*f64 + int64(len(flat.Left)+len(flat.Right)+len(flat.Start)+len(flat.Count)+len(flat.Order))*i32
	inBuf, err := dev.AllocPooled("gdbscan/input", int64(n)*2*f64+treeBytes)
	if err != nil {
		return nil, fmt.Errorf("gdbscan: %w", err)
	}
	defer inBuf.Release()
	outBuf, err := dev.AllocPooled("gdbscan/state", int64(n)*(i32+1))
	if err != nil {
		return nil, fmt.Errorf("gdbscan: %w", err)
	}
	defer outBuf.Release()

	startStats := dev.Stats()

	// Single input copy (both modes copy the raw input once; §3.2.2).
	if err := dev.CopyToDevice(inBuf, inBuf.Size()); err != nil {
		return nil, err
	}

	if err := c.classify(); err != nil {
		return nil, err
	}
	if opt.DenseBox {
		c.promoteBoxes()
	}
	if err := c.expand(outBuf); err != nil {
		return nil, err
	}
	c.linkBoxes()
	if err := c.attachBorders(); err != nil {
		return nil, err
	}

	// Single result copy back (labels + core flags).
	if err := dev.CopyFromDevice(outBuf, outBuf.Size()); err != nil {
		return nil, err
	}
	out, numClusters := c.compactLabels()

	endStats := dev.Stats()
	c.stats.DeviceH2DBytes = endStats.H2DBytes - startStats.H2DBytes
	c.stats.DeviceD2HBytes = endStats.D2HBytes - startStats.D2HBytes
	c.stats.DeviceTransfers = (endStats.H2DTransfers + endStats.D2HTransfers) -
		(startStats.H2DTransfers + startStats.D2HTransfers)

	return &Result{
		Labels:      out,
		Core:        c.core,
		NumClusters: numClusters,
		Stats:       c.stats,
	}, nil
}

// newClustering builds the host-side state of a run over a non-empty pts:
// the KD-tree and the cleared per-point and per-node arrays. opt has its
// defaults set.
func newClustering(dev *gpusim.Device, pts []geom.Point, opt Options) *clustering {
	ws := opt.Workspace
	if ws == nil {
		ws = &Workspace{}
	}
	eps := opt.Params.Eps
	c := &clustering{dev: dev, opt: opt, ws: ws, pts: pts, eps2: eps * eps}
	// Host-side index construction (CUDA-DClust builds the KD-tree on the
	// CPU and ships the flattened arrays) — into the workspace's backing
	// arrays, so per-partition builds reuse allocations.
	var tree *kdtree.Tree
	if opt.DenseBox {
		tree, c.flat = ws.kd.BuildCells(pts, opt.LeafSize, eps)
	} else {
		tree, c.flat = ws.kd.Build(pts, opt.LeafSize)
	}
	c.xs, c.ys = tree.Coords()
	ws.labels = fill(ws.labels, len(pts), -1)
	c.labels = ws.labels
	c.core = make([]bool, len(pts)) // returned to the caller; never pooled
	ws.leafBox = fill(ws.leafBox, len(c.flat.Left), -1)
	c.leafBox = ws.leafBox
	return c
}

// leafPoints returns the point indices of leaf node ni.
func (c *clustering) leafPoints(ni int) []int32 {
	s := c.flat.Start[ni]
	return c.flat.Order[s : s+c.flat.Count[ni]]
}

// cellBound is the bounds kernel's verdict on one leaf.
type cellBound struct {
	// lo is the number of points within Eps of every point of the leaf,
	// itself included: the summed counts of the nodes whose rectangles lie
	// wholly within Eps of the leaf's. lo ≥ MinPts makes every member
	// core; noneCore says the leaves within reach hold < MinPts points.
	lo int32
	// at, n locate the straddling leaves of an undecided leaf — within
	// Eps of some of it but not wholly within Eps of all of it — in its
	// block's list: the only points its members still have to test.
	at, n int32
}

const noneCore = -1

// classify is pass one. Mr. Scan mode decides coreness per cell from
// subtree counts and counts neighbors only for the points of the cells
// the bounds leave undecided, with early exit at MinPts ("expansion
// during this phase stops as soon as MinPts is reached"). The CUDA-DClust
// profile counts every point's whole neighborhood.
func (c *clustering) classify() error {
	pass := c.classifyCells
	if c.opt.Mode == ModeCUDADClust {
		pass = c.classifyFull
	}
	err := pass()
	c.stats.CorePoints = countTrue(c.core)
	return err
}

// classifyCells runs the bounds kernel and then the classify kernel over
// the leaves it left undecided: one block per leaf, so its members share
// the leaf's list; as in the expansion kernel a block is one thread here.
func (c *clustering) classifyCells() error {
	c.ws.leafScans.Store(0)
	if err := c.boundCells(); err != nil || len(c.ws.undecided) == 0 {
		return err
	}
	undecided := c.ws.undecided
	lc := gpusim.LaunchConfig{Blocks: len(undecided), ThreadsPerBlock: 1}
	return c.dev.Launch("gdbscan/classify", lc, func(ctx gpusim.KernelCtx) {
		c.classifyCell(undecided[ctx.Block])
	})
}

// boundCells runs the bounds kernel, one thread per leaf (boundCell), and
// lists the leaves it left undecided for the classify kernel.
func (c *clustering) boundCells() error {
	ws, left, nodes := c.ws, c.flat.Left, len(c.flat.Left)
	lc := gpusim.GridFor(nodes, c.opt.ThreadsPerBlock)
	ws.cells = grow(ws.cells, nodes)
	for len(ws.straddle) < lc.Blocks {
		ws.straddle = append(ws.straddle, nil)
	}
	for b := range ws.straddle {
		ws.straddle[b] = ws.straddle[b][:0]
	}
	err := c.dev.Launch("gdbscan/cell-bounds", lc, func(ctx gpusim.KernelCtx) {
		// A block's threads run one after another, so they share the
		// block's list without locks.
		if ni := ctx.GlobalID(); ni < nodes && left[ni] < 0 {
			ws.straddle[ctx.Block] = c.boundCell(int32(ni), ws.straddle[ctx.Block])
		}
	})
	ws.undecided = ws.undecided[:0]
	minPts := c.opt.Params.MinPts
	for ni, cell := range ws.cells {
		switch {
		case left[ni] >= 0:
		case int(cell.lo) >= minPts:
			c.stats.CellCorePoints += int(c.flat.Count[ni])
		case cell.lo == noneCore:
			c.stats.CellNonCorePoints += int(c.flat.Count[ni])
		default:
			ws.undecided = append(ws.undecided, int32(ni))
		}
	}
	return err
}

// boundCell is the bounds kernel body for leaf a: the verdict on it lands
// in ws.cells[a] and, when every member is core, in their core flags.
// Only an undecided leaf keeps the straddling leaves it appended to list.
func (c *clustering) boundCell(a int32, list []int32) []int32 {
	at, minPts := len(list), c.opt.Params.MinPts
	lo, hi, list := c.cellBounds(a, list)
	cell := cellBound{lo: int32(lo), at: int32(at)}
	switch {
	case lo >= minPts:
		for _, pi := range c.leafPoints(int(a)) {
			c.core[pi] = true
		}
		list = list[:at]
	case hi < minPts:
		cell.lo = noneCore
		list = list[:at]
	default:
		// A member's nearest points are its own leaf's: scanned first,
		// they end most counts soonest (at MinPts 1, all in one scan).
		if own := slices.Index(list[at:], a); own > 0 {
			list[at], list[at+own] = a, list[at]
		}
		cell.n = int32(len(list) - at)
	}
	c.ws.cells[a] = cell
	return list
}

// straddling returns the list boundCell left for undecided leaf a, in the
// buffer of the bounds-kernel block that thread a belongs to.
func (c *clustering) straddling(a int32) []int32 {
	cell := c.ws.cells[a]
	return c.ws.straddle[int(a)/c.opt.ThreadsPerBlock][cell.at : cell.at+cell.n]
}

// cellBounds traverses the tree with leaf a's rectangle and brackets the
// neighborhood size |N_Eps(p)| (p included) of every member p between lo
// and hi. A node whose rectangle is wholly within Eps of a's — the
// farthest corner pair passes the neighbor test — holds only neighbors of
// every member: its subtree count goes to both bounds with no descent. A
// leaf merely within Eps of a's rectangle goes to hi and onto list: one
// of a's straddling leaves, the only points a member has left to test.
// Both tests use the neighbor test's arithmetic on rectangle sides that
// bound the points' coordinates, and rounding is monotone, so they agree
// with the per-point test bit for bit. The traversal stops once lo
// reaches MinPts (hi and list are then incomplete, and not needed).
func (c *clustering) cellBounds(a int32, list []int32) (lo, hi int, _ []int32) {
	bounds, left, right, counts := c.flat.Bounds, c.flat.Left, c.flat.Right, c.flat.Count
	minPts, eps2 := c.opt.Params.MinPts, c.eps2
	ra := bounds[4*a : 4*a+4 : 4*a+4]
	var buf [64]int32
	stack := append(buf[:0], 0)
	for len(stack) > 0 && lo < minPts {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		rb := bounds[4*ni : 4*ni+4 : 4*ni+4]
		dx := max(0, rb[0]-ra[2], ra[0]-rb[2])
		dy := max(0, rb[1]-ra[3], ra[1]-rb[3])
		if dx*dx+dy*dy > eps2 {
			continue
		}
		fx := max(ra[2]-rb[0], rb[2]-ra[0])
		fy := max(ra[3]-rb[1], rb[3]-ra[1])
		switch {
		case fx*fx+fy*fy <= eps2:
			lo += int(counts[ni])
			hi += int(counts[ni])
		case left[ni] >= 0:
			stack = append(stack, left[ni], right[ni])
		default:
			hi += int(counts[ni])
			list = append(list, ni)
		}
	}
	return lo, hi, list
}

// classifyCell is the classify kernel body for undecided leaf a: every
// member starts at the leaf's lower bound and walks its straddling leaves
// — out of the member's reach: skipped; wholly inside its disc: counted
// whole; else scanned — until it has MinPts neighbors. Counts include the
// point itself (dbscan.Params): its own leaf is part of lo or on the list.
func (c *clustering) classifyCell(a int32) {
	xs, ys, eps2, minPts := c.xs, c.ys, c.eps2, c.opt.Params.MinPts
	bounds, starts, counts, order := c.flat.Bounds, c.flat.Start, c.flat.Count, c.flat.Order
	lo, list := int(c.ws.cells[a].lo), c.straddling(a)
	scans := int64(0)
	for _, pi := range c.leafPoints(int(a)) {
		cx, cy := xs[pi], ys[pi]
		count := lo
		for _, li := range list {
			b := bounds[4*li : 4*li+4 : 4*li+4]
			if rectDist2(b, cx, cy) > eps2 {
				continue
			}
			if rectFar2(b, cx, cy) <= eps2 {
				count += int(counts[li])
			} else {
				scans++
				for _, nb := range order[starts[li] : starts[li]+counts[li]] {
					dx, dy := cx-xs[nb], cy-ys[nb]
					if dx*dx+dy*dy <= eps2 {
						if count++; count >= minPts {
							break
						}
					}
				}
			}
			if count >= minPts {
				c.core[pi] = true
				break
			}
		}
	}
	c.ws.leafScans.Add(scans)
}

// classifyFull is the CUDA-DClust profile's pass one (the §3.2.2 ablation
// arm): one thread per point counts its whole Eps-neighborhood.
func (c *clustering) classifyFull() error {
	n, core, flat, xs, ys := len(c.pts), c.core, c.flat, c.xs, c.ys
	eps := c.opt.Params.Eps
	// minNeighbors excludes the point itself (the DBSCAN neighborhood
	// includes the point, see dbscan.Params).
	minNeighbors := c.opt.Params.MinPts - 1
	return c.dev.Launch("gdbscan/classify", gpusim.GridFor(n, c.opt.ThreadsPerBlock), func(ctx gpusim.KernelCtx) {
		i := ctx.GlobalID()
		if i < n && flat.CountRange(xs, ys, xs[i], ys[i], eps, int32(i), 0) >= minNeighbors {
			core[i] = true
		}
	})
}

// promoteBoxes turns every Eps cell whose points are all core into a
// dense box (§3.2.3 carried to its conclusion): its points are mutually
// within Eps and all core, hence one cluster, so they take one
// pre-assigned cluster ID and none is expanded.
func (c *clustering) promoteBoxes() {
	for ni, left := range c.flat.Left {
		if left >= 0 || c.flat.Diag2(ni) > c.eps2 {
			continue
		}
		members := c.leafPoints(ni)
		allCore := true
		for _, pi := range members {
			if !c.core[pi] {
				allCore = false
				break
			}
		}
		if !allCore {
			continue
		}
		for _, pi := range members {
			c.labels[pi] = c.nBoxes
		}
		c.leafBox[ni] = c.nBoxes
		c.nBoxes++
		c.stats.DenseBoxPoints += len(members)
	}
	c.stats.DenseBoxes = int(c.nBoxes)
}

// expand is pass two. Seeds in index order; each block claims one seed
// per round. In Mr. Scan mode only core points outside dense boxes are
// seeds (found by pass one); the CUDA-DClust profile seeds every point.
func (c *clustering) expand(outBuf *gpusim.Buffer) error {
	opt, ws, dev := &c.opt, c.ws, c.dev
	seeds := ws.seeds[:0]
	for i, l := range c.labels {
		if l < 0 && (c.core[i] || opt.Mode == ModeCUDADClust) {
			seeds = append(seeds, int32(i))
		}
	}
	ws.seeds = seeds
	c.merges = dsu.New(int(c.nBoxes) + len(seeds))

	// Per-block scratch: expansion queue, KD traversal stack, collision
	// list and duplicate filter. Each block is executed by exactly one
	// goroutine per launch (and kernels in a stream run in order), so
	// blocks may use their scratch without locks. In Mr. Scan mode the
	// collision buffers are drained once after the bulk-issued kernels
	// synchronize; the CUDA-DClust profile drains per round between its
	// synchronous copies.
	ws.blocks = grow(ws.blocks, opt.Blocks)
	for b := range ws.blocks {
		ws.blocks[b].collisions = ws.blocks[b].collisions[:0]
		ws.blocks[b].seen = [collSeenSlots]uint64{}
	}

	// §3.2.2: Mr. Scan issues every expansion kernel in bulk on a stream
	// — "all kernel invocations needed to cluster the dataset to be
	// issued in bulk without any intervening memory copies" — and
	// synchronizes once. The baseline profile launches synchronously
	// with two copies per round.
	var stream *gpusim.Stream
	if opt.Mode == ModeMrScan {
		stream = dev.NewStream()
	}
	for base := 0; base < len(seeds); base += opt.Blocks {
		blocksThisRound := min(len(seeds)-base, opt.Blocks)
		c.stats.SeedRounds++
		kernel := func(ctx gpusim.KernelCtx) { c.expandSeed(ctx.Block, base+ctx.Block) }
		lc := gpusim.LaunchConfig{Blocks: blocksThisRound, ThreadsPerBlock: 1}
		if stream != nil {
			stream.LaunchAsync("gdbscan/expand", lc, kernel)
			continue
		}
		if err := dev.Launch("gdbscan/expand", lc, kernel); err != nil {
			return err
		}
		c.drainCollisions()
		// The baseline copies block state out and new seeds in after
		// every iteration (§3.2.2: "at least two memory operations
		// between the host and GPGPU after every DBSCAN iteration").
		// Only the blocks active this round move state — the final
		// partial round is cheaper, and the ablation's modeled bytes
		// must match 2×(points/blocks) exactly.
		stateBytes := min(int64(blocksThisRound)*64, outBuf.Size())
		if err := dev.CopyFromDevice(outBuf, stateBytes); err != nil {
			return err
		}
		if err := dev.CopyToDevice(outBuf, stateBytes); err != nil {
			return err
		}
		c.stats.RoundTransferBytes = append(c.stats.RoundTransferBytes, 2*stateBytes)
	}
	if stream != nil {
		if err := stream.Synchronize(); err != nil {
			return err
		}
		c.drainCollisions()
	}
	return nil
}

// drainCollisions unions the cluster pairs the blocks recorded.
func (c *clustering) drainCollisions() {
	for b := range c.ws.blocks {
		bs := &c.ws.blocks[b]
		for _, col := range bs.collisions {
			if c.merges.Union(int(col.a), int(col.b)) {
				c.stats.Collisions++
			}
		}
		bs.collisions = bs.collisions[:0]
	}
}

// expandSeed is the expansion kernel body of one block: claim seed si and
// grow its cluster over the core points density-reachable from it. Only
// core points are claimed; non-core neighbors are left to attachBorders.
func (c *clustering) expandSeed(block, si int) {
	labels, core := c.labels, c.core
	seed := c.ws.seeds[si]
	if !core[seed] {
		return // CUDA-DClust profile: seed turned out non-core
	}
	// Claim the seed. If another cluster already owns it, this seed
	// never starts a cluster (it was absorbed).
	myID := c.nBoxes + int32(si)
	if !atomic.CompareAndSwapInt32(&labels[seed], -1, myID) {
		return
	}
	bs := &c.ws.blocks[block]
	xs, ys, eps2, leafBox := c.xs, c.ys, c.eps2, c.leafBox
	bounds, left, right := c.flat.Bounds, c.flat.Left, c.flat.Right
	starts, counts, order := c.flat.Start, c.flat.Count, c.flat.Order
	q := append(bs.queue[:0], seed)
	stack := bs.stack
	for len(q) > 0 {
		p := q[len(q)-1]
		q = q[:len(q)-1]
		cx, cy := xs[p], ys[p]
		// Inlined KD range traversal (kdtree.Flat.Range) with the
		// block's reusable stack: the expansion visits every neighbor of
		// every expanded point, so per-visit callback indirection is the
		// kernel's hottest cost.
		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rectDist2(bounds[4*ni:4*ni+4:4*ni+4], cx, cy) > eps2 {
				continue
			}
			if left[ni] >= 0 {
				stack = append(stack, left[ni], right[ni])
				continue
			}
			members := order[starts[ni] : starts[ni]+counts[ni]]
			if box := leafBox[ni]; box >= 0 {
				// A dense box is one cluster: the first member within
				// Eps settles the collision and the rest of the leaf is
				// skipped — as is the whole leaf once the pair is known.
				if key, slot := collisionSlot(myID, box); bs.seen[slot] == key {
					continue
				}
				for _, nb := range members {
					ddx := cx - xs[nb]
					ddy := cy - ys[nb]
					if ddx*ddx+ddy*ddy <= eps2 {
						bs.collide(myID, box)
						break
					}
				}
				continue
			}
			for _, nb := range members {
				if nb == p || !core[nb] {
					continue
				}
				ddx := cx - xs[nb]
				ddy := cy - ys[nb]
				if ddx*ddx+ddy*ddy > eps2 {
					continue
				}
				// Most neighbor visits land on points this block already
				// claimed (a cluster's points see each other from many
				// range queries), so check with a plain atomic load
				// before paying for a CAS.
				other := atomic.LoadInt32(&labels[nb])
				if other == myID {
					continue
				}
				if other < 0 && atomic.CompareAndSwapInt32(&labels[nb], -1, myID) {
					q = append(q, nb)
				} else if other = atomic.LoadInt32(&labels[nb]); other != myID {
					// Figure 4: two blocks share a core point — the
					// clusters are the same cluster.
					bs.collide(myID, other)
				}
			}
		}
	}
	bs.queue = q[:0]
	bs.stack = stack[:0]
}

// linkBoxes unions dense boxes that are directly density-reachable: two
// boxes with no expanded point between them are never joined by
// expansion. Candidate pairs come from traversing the tree with each
// box's rectangle (every leaf rectangle within Eps of it); a pair not
// already connected is decided by boxesTouch.
func (c *clustering) linkBoxes() {
	c.ws.boxPairs = 0
	if c.nBoxes < 2 {
		return
	}
	bounds, left, right := c.flat.Bounds, c.flat.Left, c.flat.Right
	var buf [64]int32
	for a, boxA := range c.leafBox {
		if boxA < 0 {
			continue
		}
		ra := bounds[4*a : 4*a+4]
		stack := append(buf[:0], 0)
		for len(stack) > 0 {
			ni := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			rb := bounds[4*ni : 4*ni+4]
			dx := max(0, rb[0]-ra[2], ra[0]-rb[2])
			dy := max(0, rb[1]-ra[3], ra[1]-rb[3])
			if dx*dx+dy*dy > c.eps2 {
				continue
			}
			if left[ni] >= 0 {
				stack = append(stack, left[ni], right[ni])
				continue
			}
			// Each unordered pair is examined once, from its lower node.
			boxB := c.leafBox[ni]
			if boxB < 0 || ni <= a {
				continue
			}
			c.ws.boxPairs++
			if !c.merges.Same(int(boxA), int(boxB)) && c.boxesTouch(a, ni) {
				c.merges.Union(int(boxA), int(boxB))
				c.stats.Collisions++
			}
		}
	}
}

// boxesTouch reports whether leaves a and b hold a point pair within Eps.
// Only members within Eps of the other leaf's rectangle can be part of
// such a pair, and the first pair found ends the test.
func (c *clustering) boxesTouch(a, b int) bool {
	xs, ys := c.xs, c.ys
	ra, rb := c.flat.Bounds[4*a:4*a+4], c.flat.Bounds[4*b:4*b+4]
	near := c.ws.near[:0]
	for _, i := range c.leafPoints(a) {
		if rectDist2(rb, xs[i], ys[i]) <= c.eps2 {
			near = append(near, i)
		}
	}
	c.ws.near = near
	if len(near) == 0 {
		return false
	}
	for _, j := range c.leafPoints(b) {
		if rectDist2(ra, xs[j], ys[j]) > c.eps2 {
			continue
		}
		for _, i := range near {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= c.eps2 {
				return true
			}
		}
	}
	return false
}

// rectDist2 returns the squared distance from (x, y) to the rectangle
// b = [MinX, MinY, MaxX, MaxY] (0 inside it).
func rectDist2(b []float64, x, y float64) float64 {
	var dx, dy float64
	if x < b[0] {
		dx = b[0] - x
	} else if x > b[2] {
		dx = x - b[2]
	}
	if y < b[1] {
		dy = b[1] - y
	} else if y > b[3] {
		dy = y - b[3]
	}
	return dx*dx + dy*dy
}

// rectFar2 returns the squared distance from (x, y) to the farthest point
// of the rectangle b: ≤ Eps² means every point of b passes the neighbor
// test against (x, y).
func rectFar2(b []float64, x, y float64) float64 {
	fx := max(x-b[0], b[2]-x)
	fy := max(y-b[1], b[3]-y)
	return fx*fx + fy*fy
}

// attachBorders resolves the recorded collisions and then runs the border
// kernel: one thread per non-core point joins it to the adjacent cluster
// (one with a core point within Eps) whose lead — its first core point in
// (Point.ID, index) order — comes first. Sequential DBSCAN visiting
// points in that order starts each cluster at its lead and lets the
// earliest-started cluster keep a contested border point, so this is its
// labelling, whatever the block scheduling or tree shape was. Subtrees
// without a core point (markCoreNodes) are skipped before their rectangle
// is tested.
func (c *clustering) attachBorders() error {
	pts, labels, core, merges := c.pts, c.labels, c.core, c.merges
	before := func(a, b int32) bool {
		return pts[a].ID < pts[b].ID || (pts[a].ID == pts[b].ID && a < b)
	}
	// lead[id] is the lead of the merged cluster that raw ID id belongs
	// to: found per union-find root first, then copied to every ID.
	lead := fill(c.ws.lead, merges.Len(), -1)
	c.ws.lead = lead
	for i, l := range labels {
		if l < 0 || !core[i] {
			continue
		}
		if root := merges.Find(int(l)); lead[root] < 0 || before(int32(i), lead[root]) {
			lead[root] = int32(i)
		}
	}
	for id := range lead {
		lead[id] = lead[merges.Find(id)]
	}

	n, xs, ys, eps2, leafBox := len(pts), c.xs, c.ys, c.eps2, c.leafBox
	bounds, left, right := c.flat.Bounds, c.flat.Left, c.flat.Right
	hasCore := c.markCoreNodes()
	return c.dev.Launch("gdbscan/border", gpusim.GridFor(n, c.opt.ThreadsPerBlock), func(ctx gpusim.KernelCtx) {
		i := ctx.GlobalID()
		if i >= n || core[i] {
			return
		}
		cx, cy := xs[i], ys[i]
		best := int32(-1)
		var buf [64]int32
		stack := append(buf[:0], 0)
		for len(stack) > 0 {
			ni := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if !hasCore[ni] || rectDist2(bounds[4*ni:4*ni+4:4*ni+4], cx, cy) > eps2 {
				continue
			}
			if left[ni] >= 0 {
				stack = append(stack, left[ni], right[ni])
				continue
			}
			box := leafBox[ni]
			if box >= 0 && lead[box] == best {
				continue // a box is one cluster, and it is already chosen
			}
			for _, nb := range c.leafPoints(ni) {
				if !core[nb] {
					continue
				}
				cand := lead[labels[nb]]
				if cand == best {
					continue
				}
				dx, dy := cx-xs[nb], cy-ys[nb]
				if dx*dx+dy*dy > eps2 {
					continue
				}
				if best < 0 || before(cand, best) {
					best = cand
				}
				if box >= 0 {
					break // every other member is in the same cluster
				}
			}
		}
		if best >= 0 {
			labels[i] = labels[best]
		}
	})
}

// markCoreNodes fills and returns ws.hasCore: whether a node has a core
// point beneath it. Nodes are in pre-order, children after their parent,
// so one reverse sweep sees both children before the parent.
func (c *clustering) markCoreNodes() []bool {
	left, right := c.flat.Left, c.flat.Right
	hasCore := grow(c.ws.hasCore, len(left))
	c.ws.hasCore = hasCore
	for ni := len(left) - 1; ni >= 0; ni-- {
		if left[ni] >= 0 {
			hasCore[ni] = hasCore[left[ni]] || hasCore[right[ni]]
			continue
		}
		hasCore[ni] = false
		for _, pi := range c.leafPoints(ni) {
			if c.core[pi] {
				hasCore[ni] = true
				break
			}
		}
	}
	return hasCore
}

// compactLabels is the end of collision rectification on the CPU ("when
// all points have been classified, the CPU merges clusters that have
// collided and the final clusters are revealed"): sparse raw IDs become
// dense cluster IDs 0..k-1, numbered in order of first appearance.
func (c *clustering) compactLabels() (out []int32, numClusters int) {
	n := len(c.pts)
	// A merged cluster is identified by its lead point.
	compact := fill(c.ws.compact, n, -1)
	c.ws.compact = compact
	out = make([]int32, n)
	next := int32(0)
	for i, l := range c.labels {
		if l < 0 {
			out[i] = dbscan.Noise
			continue
		}
		lead := c.ws.lead[l]
		if compact[lead] < 0 {
			compact[lead] = next
			next++
		}
		out[i] = compact[lead]
		if !c.core[i] {
			c.stats.BorderAttached++
		}
	}
	return out, int(next)
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
