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
//  2. The bounds kernel is the only tree search: for every leaf it walks
//     the tree once with the leaf's rectangle and records the leaf's
//     neighbour list — every leaf within Eps of it, each flagged
//     whole when it lies wholly within Eps of all of it. The whole
//     entries' counts are a lower bound on every member's neighborhood,
//     all entries' counts an upper bound. In Mr. Scan mode pass one
//     classifies core points from them: lower ≥ MinPts makes every member
//     core and upper < MinPts none, with no per-point work — the paper's
//     §3.2.3 test ("an Eps cell holding ≥ MinPts points") is the special
//     case of a leaf bounding itself. Only the points of the remaining
//     cells are counted, one thread each, over the list's non-whole
//     entries, stopping as soon as MinPts is reached.
//  3. Dense boxes: every Eps cell whose points are all core is a box —
//     one cluster, pre-assigned one ID, none of its points expanded.
//  4. Pass two expands the remaining core points: each GPGPU block claims
//     a seed and grows a cluster over core points, each expanded point
//     reading its own leaf's neighbour list; when two blocks touch the
//     same core point, or a block reaches any member of a box, the
//     collision is recorded in a per-block collision list (Figure 4).
//     Adjacent boxes are the box entries of a box's list, linked at once
//     when whole and otherwise by an early-exit point-pair test.
//  5. Collisions are rectified with union-find on the host, then a final
//     pass joins every non-core point, over its leaf's list, to the
//     adjacent cluster whose first core point comes first in (Point.ID,
//     index) order — the cluster sequential DBSCAN visiting points in
//     that order would give it — so labels are a function of the input
//     alone.
//
// Input is copied to the device once and results retrieved once. The
// CUDA-DClust compatibility mode (ModeCUDADClust) instead charges two
// synchronous transfers per expansion round and disables both the early
// classification exit (its pass one counts every neighborhood in full;
// the bounds kernel only lists) and dense boxes (cells included),
// reproducing the cost profile the paper optimizes away.
//
// A leaf node processes its partitions back-to-back on one device, so
// Cluster supports an optional Workspace: host-side scratch (the KD-tree
// and its flattened arrays, coordinate columns, neighbour lists,
// per-block queues) is built into caller-provided backing arrays, and
// device buffers are leased from the device's pool (gpusim.AllocPooled),
// making repeated calls allocation-free on the classify/expand hot path.
package gdbscan

import (
	"fmt"
	"slices"
	"sync/atomic"

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
	Params geom.Params
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
// 0..NumClusters-1 or geom.Noise.
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
	queue      []queued
	collisions []collision
	// seen is the duplicate-collision filter: seen[hash(pair)] == pair.
	seen [collSeenSlots]uint64
}

// queued is an entry of a block's expansion queue: a claimed core point
// and the leaf that holds it, whose neighbour list the point reads.
type queued struct{ p, leaf int32 }

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
	// The bounds kernel's output: per node, where the leaf's neighbour
	// list is; per bounds-kernel block, the lists of its leaves, back to
	// back; the leaves whose bounds left them undecided.
	lists     []leafList
	nbrs      [][]int32
	undecided []int32
	// cores counts each leaf's core points.
	cores []int32
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
	// labels holds raw cluster IDs: boxes take 0..nBoxes-1, the expansion
	// seed ws.seeds[si] takes nBoxes+si. merges records which IDs are one
	// cluster; compactLabels renumbers the clusters densely. A point no
	// cluster holds yet is labelled ^leaf (negative), the complement of
	// its leaf's node index: the kernels that reach it read that leaf's
	// neighbour list without a per-point table.
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
		return nil, fmt.Errorf("gdbscan: %w", err)
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
	ws.labels = grow(ws.labels, len(pts))
	c.labels = ws.labels
	for ni, left := range c.flat.Left {
		if left < 0 {
			for _, pi := range c.leafPoints(ni) {
				c.labels[pi] = ^int32(ni)
			}
		}
	}
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

// leafList locates one leaf's neighbour list in its block's buffer. Its
// first straddle entries are the leaves within Eps of some of the leaf but
// not wholly within Eps of all of it — the only points a member of an
// undecided leaf still has to test — and the rest are whole.
type leafList struct{ at, n, straddle int32 }

// classify is pass one. Both modes run the bounds kernel for its
// neighbour lists. Mr. Scan mode then decides coreness per cell from its
// bounds and counts neighbors only for the points of the cells the bounds
// leave undecided, with early exit at MinPts ("expansion during this
// phase stops as soon as MinPts is reached"). The CUDA-DClust profile
// counts every point's whole neighborhood.
func (c *clustering) classify() error {
	c.ws.leafScans.Store(0)
	err := c.boundCells()
	if err == nil {
		if c.opt.Mode == ModeCUDADClust {
			err = c.classifyFull()
		} else {
			err = c.classifyCells()
		}
	}
	c.stats.CorePoints = countTrue(c.core)
	return err
}

// classifyCells runs the classify kernel over the leaves the bounds kernel
// left undecided: one block per leaf, so its members share the leaf's
// list; as in the expansion kernel a block is one thread here.
func (c *clustering) classifyCells() error {
	undecided := c.ws.undecided
	if len(undecided) == 0 {
		return nil
	}
	lc := gpusim.LaunchConfig{Blocks: len(undecided), ThreadsPerBlock: 1}
	return c.dev.Launch("gdbscan/classify", lc, func(ctx gpusim.KernelCtx) {
		ctx.Ops(c.classifyCell(undecided[ctx.Block]))
	})
}

// stagedEntries is the bounds kernel's per-block staging buffer, in
// entries (16 KiB of stack): three times the most a block of either batch
// workload's partitions lists (≈ 1 400). A denser block spills to the
// heap, with the same result.
const stagedEntries = 4096

// boundCells runs the bounds kernel (boundCell on every leaf) and in Mr.
// Scan mode lists the leaves it left undecided for the classify kernel.
// Block b owns nodes [b·ThreadsPerBlock, (b+1)·ThreadsPerBlock); as in the
// classify and expansion kernels a block is one thread here, so it stages
// its leaves' lists in one stack buffer and copies them out at once: the
// block's list in the Workspace is allocated at its exact size, with none
// of the garbage growing it entry by entry would leave.
func (c *clustering) boundCells() error {
	ws, left, nodes, tpb := c.ws, c.flat.Left, len(c.flat.Left), c.opt.ThreadsPerBlock
	lc := gpusim.LaunchConfig{Blocks: gpusim.GridFor(nodes, tpb).Blocks, ThreadsPerBlock: 1}
	ws.lists = grow(ws.lists, nodes)
	for len(ws.nbrs) < lc.Blocks {
		ws.nbrs = append(ws.nbrs, nil)
	}
	err := c.dev.Launch("gdbscan/cell-bounds", lc, func(ctx gpusim.KernelCtx) {
		var stage [stagedEntries]int32
		buf, ops := stage[:0], 0
		for ni := ctx.Block * tpb; ni < min(nodes, (ctx.Block+1)*tpb); ni++ {
			if left[ni] < 0 {
				var tests int
				buf, tests = c.boundCell(int32(ni), buf)
				ops += tests
			}
		}
		ws.nbrs[ctx.Block] = append(ws.nbrs[ctx.Block][:0], buf...)
		ctx.Ops(ops)
	})
	// After a failed launch ws.lists may still hold a previous partition's.
	if err != nil {
		return err
	}
	ws.undecided = ws.undecided[:0]
	if c.opt.Mode == ModeCUDADClust {
		return nil
	}
	minPts := c.opt.Params.MinPts
	for ni, l := range left {
		if l >= 0 {
			continue
		}
		switch lo, hi := c.bounds(c.neighbours(int32(ni))); {
		case lo >= minPts:
			c.stats.CellCorePoints += int(c.flat.Count[ni])
		case hi < minPts:
			c.stats.CellNonCorePoints += int(c.flat.Count[ni])
		default:
			ws.undecided = append(ws.undecided, int32(ni))
		}
	}
	return nil
}

// boundCell is the bounds kernel body for leaf a: it appends a's
// neighbour list to buf and, in Mr. Scan mode, marks every member core
// when the list's lower bound reaches MinPts. It returns the buffer and
// the rectangle tests the list took.
func (c *clustering) boundCell(a int32, buf []int32) (_ []int32, tests int) {
	at := len(buf)
	straddle, tests, buf := c.listNeighbours(a, buf)
	c.ws.lists[a] = leafList{at: int32(at), n: int32(len(buf) - at), straddle: int32(straddle)}
	if c.opt.Mode == ModeCUDADClust {
		return buf, tests
	}
	switch lo, hi := c.bounds(buf[at:], straddle); {
	case lo >= c.opt.Params.MinPts:
		for _, pi := range c.leafPoints(int(a)) {
			c.core[pi] = true
		}
	case hi >= c.opt.Params.MinPts:
		// Undecided. A member's nearest points are its own leaf's:
		// scanned first, they end most counts soonest (at MinPts 1, all
		// in one scan).
		if own := slices.Index(buf[at:at+straddle], a); own > 0 {
			buf[at], buf[at+own] = a, buf[at]
		}
	}
	return buf, tests
}

// neighbours returns leaf a's neighbour list, in the buffer of the
// bounds-kernel block that owns node a: its entries before straddle are
// not wholly within Eps of a, the rest are.
func (c *clustering) neighbours(a int32) (list []int32, straddle int) {
	l := c.ws.lists[a]
	return c.ws.nbrs[int(a)/c.opt.ThreadsPerBlock][l.at : l.at+l.n], int(l.straddle)
}

// bounds brackets the neighborhood size |N_Eps(p)| (p included) of every
// member p of the leaf whose neighbour list this is: lo sums the counts of
// the whole entries, whose points neighbour every member, and hi the
// counts of all of them, beyond which no member has a neighbor.
func (c *clustering) bounds(list []int32, straddle int) (lo, hi int) {
	for k, li := range list {
		n := int(c.flat.Count[li])
		hi += n
		if k >= straddle {
			lo += n
		}
	}
	return lo, hi
}

// listNeighbours walks the tree once with leaf a's rectangle, down to the
// leaves, and appends to list every leaf whose rectangle is within Eps of
// a's: a's neighbour list, straddling entries first. tests counts the
// nodes whose rectangle it tested. A leaf whose
// rectangle is wholly within Eps of a's — the farthest corner pair passes
// the neighbor test — is whole: every one of its points neighbours every
// member of a. Any other leaf within Eps straddles. Both tests use the
// neighbor test's arithmetic on rectangle sides that bound the points'
// coordinates, and rounding is monotone, so they agree with the per-point
// test bit for bit.
//
// The walk starts at the deepest ancestor of a that encloses a's Eps
// neighbourhood (enclosing) rather than at the root: the list is the
// same, and the levels above it are passed without a rectangle test.
func (c *clustering) listNeighbours(a int32, list []int32) (straddle, tests int, _ []int32) {
	bounds, left, right := c.flat.Bounds, c.flat.Left, c.flat.Right
	eps2, at := c.eps2, len(list)
	ra := bounds[4*a : 4*a+4 : 4*a+4]
	var buf [64]int32
	stack := append(buf[:0], c.enclosing(a))
	for len(stack) > 0 {
		ni := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tests++
		rb := bounds[4*ni : 4*ni+4 : 4*ni+4]
		dx := max(0, rb[0]-ra[2], ra[0]-rb[2])
		dy := max(0, rb[1]-ra[3], ra[1]-rb[3])
		if dx*dx+dy*dy > eps2 {
			continue
		}
		if left[ni] >= 0 {
			stack = append(stack, left[ni], right[ni])
			continue
		}
		list = append(list, ni)
		fx := max(ra[2]-rb[0], rb[2]-ra[0])
		fy := max(ra[3]-rb[1], rb[3]-ra[1])
		if fx*fx+fy*fy <= eps2 {
			continue
		}
		// Swap the straddling leaf ahead of the whole ones.
		s := at + straddle
		list[s], list[len(list)-1] = ni, list[s]
		straddle++
	}
	return straddle, tests, list
}

// enclosing returns the deepest proper ancestor of leaf a whose rectangle
// reaches more than Eps past a's on all four sides, or the root. No leaf
// outside its subtree is within Eps of a: sibling rectangles are strictly
// apart on their parent's split axis, so such a leaf lies beyond one side
// of the ancestor, and its gap to a — computed with the neighbor test's
// monotone arithmetic — is at least that side's margin. Nodes are in
// pre-order, so the path down to a needs no rectangle: a lies under the
// right child exactly when its index is at least the right child's.
func (c *clustering) enclosing(a int32) int32 {
	bounds, left, right := c.flat.Bounds, c.flat.Left, c.flat.Right
	ra := bounds[4*a : 4*a+4 : 4*a+4]
	top := int32(0)
	for top != a {
		child := left[top]
		if a >= right[top] {
			child = right[top]
		}
		// Negated, so that a NaN margin does not enclose.
		rb := bounds[4*child : 4*child+4 : 4*child+4]
		if m := min(ra[0]-rb[0], ra[1]-rb[1], rb[2]-ra[2], rb[3]-ra[3]); !(m*m > c.eps2) {
			break
		}
		top = child
	}
	return top
}

// classifyCell is the classify kernel body for undecided leaf a: every
// member starts at the leaf's lower bound and walks the straddle entries
// of its list — out of the member's reach: skipped; wholly inside its
// disc: counted whole; else scanned — until it has MinPts neighbors.
// Counts include the point itself (geom.Params): its own leaf is part
// of lo or on the list. It returns its work: one op per straddling entry
// a member tests and one per point of each leaf it scans.
func (c *clustering) classifyCell(a int32) (ops int) {
	xs, ys, eps2, minPts := c.xs, c.ys, c.eps2, c.opt.Params.MinPts
	bounds, starts, counts, order := c.flat.Bounds, c.flat.Start, c.flat.Count, c.flat.Order
	list, straddle := c.neighbours(a)
	lo, _ := c.bounds(list, straddle)
	list = list[:straddle]
	scans := int64(0)
	for _, pi := range c.leafPoints(int(a)) {
		cx, cy := xs[pi], ys[pi]
		count := lo
		for _, li := range list {
			ops++
			b := bounds[4*li : 4*li+4 : 4*li+4]
			if rectDist2(b, cx, cy) > eps2 {
				continue
			}
			if rectFar2(b, cx, cy) <= eps2 {
				count += int(counts[li])
			} else {
				scans++
				ops += int(counts[li])
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
	return ops
}

// classifyFull is the CUDA-DClust profile's pass one (the §3.2.2 ablation
// arm): one thread per point counts its whole Eps-neighborhood. Its work
// is counted as the members of its leaf's neighbour list, the points a
// full count has to test.
func (c *clustering) classifyFull() error {
	n, core, flat, xs, ys, labels := len(c.pts), c.core, c.flat, c.xs, c.ys, c.labels
	eps := c.opt.Params.Eps
	// minNeighbors excludes the point itself (the DBSCAN neighborhood
	// includes the point, see geom.Params).
	minNeighbors := c.opt.Params.MinPts - 1
	return c.dev.Launch("gdbscan/classify", gpusim.GridFor(n, c.opt.ThreadsPerBlock), func(ctx gpusim.KernelCtx) {
		if i := ctx.GlobalID(); i < n {
			core[i] = flat.CountRange(xs, ys, xs[i], ys[i], eps, int32(i), 0) >= minNeighbors
			_, members := c.bounds(c.neighbours(^labels[i]))
			ctx.Ops(members)
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

	// Per-block scratch: expansion queue, collision list and duplicate
	// filter. Each block is executed by exactly one goroutine per launch
	// (and kernels in a stream run in order), so blocks may use their
	// scratch without locks. In Mr. Scan mode the collision buffers are
	// drained once after the bulk-issued kernels synchronize; the
	// CUDA-DClust profile drains per round between its synchronous copies.
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
		kernel := func(ctx gpusim.KernelCtx) { ctx.Ops(c.expandSeed(ctx.Block, base+ctx.Block)) }
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
// An expanded point reads its own leaf's neighbour list: a whole entry's
// members are its neighbors with no distance test, a straddling leaf is
// tested by rectangle and then point by point.
//
// It returns the block's work: one op per list entry of every point it
// expanded and one per member of each entry it visits that is no dense
// box. Each core point outside a box is expanded once, whichever block
// claims it, so a launch's total is the same under any schedule.
func (c *clustering) expandSeed(block, si int) (ops int) {
	labels, core := c.labels, c.core
	seed := c.ws.seeds[si]
	if !core[seed] {
		return 0 // CUDA-DClust profile: seed turned out non-core
	}
	// Claim the seed. If another cluster already owns it, this seed
	// never starts a cluster (it was absorbed).
	myID := c.nBoxes + int32(si)
	unclaimed := atomic.LoadInt32(&labels[seed])
	if unclaimed >= 0 || !atomic.CompareAndSwapInt32(&labels[seed], unclaimed, myID) {
		return 0
	}
	bs := &c.ws.blocks[block]
	xs, ys, eps2, leafBox := c.xs, c.ys, c.eps2, c.leafBox
	bounds, starts, counts, order := c.flat.Bounds, c.flat.Start, c.flat.Count, c.flat.Order
	q := append(bs.queue[:0], queued{seed, ^unclaimed})
	for len(q) > 0 {
		e := q[len(q)-1]
		q = q[:len(q)-1]
		p, cx, cy := e.p, xs[e.p], ys[e.p]
		list, straddle := c.neighbours(e.leaf)
		ops += len(list)
		for k, li := range list {
			whole := k >= straddle
			if !whole && rectDist2(bounds[4*li:4*li+4:4*li+4], cx, cy) > eps2 {
				continue
			}
			members := order[starts[li] : starts[li]+counts[li]]
			if box := leafBox[li]; box >= 0 {
				// A dense box is one cluster: the first member within Eps
				// settles the collision, and a pair already recorded
				// skips the leaf.
				if key, slot := collisionSlot(myID, box); bs.seen[slot] != key && (whole || c.reaches(members, cx, cy)) {
					bs.collide(myID, box)
				}
				continue
			}
			ops += len(members)
			for _, nb := range members {
				if nb == p || !core[nb] {
					continue
				}
				if !whole {
					ddx, ddy := cx-xs[nb], cy-ys[nb]
					if ddx*ddx+ddy*ddy > eps2 {
						continue
					}
				}
				// Most neighbor visits land on points this block already
				// claimed (a cluster's points see each other from many
				// expanded points), so check with a plain atomic load
				// before paying for a CAS.
				other := atomic.LoadInt32(&labels[nb])
				if other == myID {
					continue
				}
				if other < 0 && atomic.CompareAndSwapInt32(&labels[nb], other, myID) {
					q = append(q, queued{nb, li})
				} else if other = atomic.LoadInt32(&labels[nb]); other != myID {
					// Figure 4: two blocks share a core point — the
					// clusters are the same cluster.
					bs.collide(myID, other)
				}
			}
		}
	}
	bs.queue = q[:0]
	return ops
}

// reaches reports whether a point of members is within Eps of (cx, cy).
func (c *clustering) reaches(members []int32, cx, cy float64) bool {
	for _, nb := range members {
		dx, dy := cx-c.xs[nb], cy-c.ys[nb]
		if dx*dx+dy*dy <= c.eps2 {
			return true
		}
	}
	return false
}

// linkBoxes unions dense boxes that are directly density-reachable: two
// boxes with no expanded point between them are never joined by
// expansion. Candidate pairs are the box entries of each box's neighbour
// list; a pair not already connected is linked at once when the entry is
// whole and otherwise decided by boxesTouch.
func (c *clustering) linkBoxes() {
	c.ws.boxPairs = 0
	if c.nBoxes < 2 {
		return
	}
	for a, boxA := range c.leafBox {
		if boxA < 0 {
			continue
		}
		list, straddle := c.neighbours(int32(a))
		for k, b := range list {
			// Each unordered pair is examined once, from its lower node.
			boxB := c.leafBox[b]
			if boxB < 0 || int(b) <= a {
				continue
			}
			c.ws.boxPairs++
			if !c.merges.Same(int(boxA), int(boxB)) && (k >= straddle || c.boxesTouch(a, int(b))) {
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
// labelling, whatever the block scheduling or tree shape was. A thread
// walks its leaf's neighbour list and skips the leaves without a core
// point (countCores) before their rectangle is tested. Its work is one
// op per list entry and one per core member of each entry it scans that
// is no dense box.
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
	bounds := c.flat.Bounds
	cores := c.countCores()
	return c.dev.Launch("gdbscan/border", gpusim.GridFor(n, c.opt.ThreadsPerBlock), func(ctx gpusim.KernelCtx) {
		i := ctx.GlobalID()
		if i >= n || core[i] {
			return
		}
		// A non-core point is never claimed: its label names its leaf.
		cx, cy := xs[i], ys[i]
		best := int32(-1)
		list, straddle := c.neighbours(^labels[i])
		ops := len(list)
		for k, li := range list {
			whole := k >= straddle
			if cores[li] == 0 || !whole && rectDist2(bounds[4*li:4*li+4:4*li+4], cx, cy) > eps2 {
				continue
			}
			box := leafBox[li]
			if box >= 0 && lead[box] == best {
				continue // a box is one cluster, and it is already chosen
			}
			if box < 0 {
				ops += int(cores[li])
			}
			for _, nb := range c.leafPoints(int(li)) {
				if !core[nb] {
					continue
				}
				cand := lead[labels[nb]]
				if cand == best {
					continue
				}
				if !whole {
					dx, dy := cx-xs[nb], cy-ys[nb]
					if dx*dx+dy*dy > eps2 {
						continue
					}
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
		ctx.Ops(ops)
	})
}

// countCores fills and returns ws.cores: each leaf's core points
// (internal nodes' entries stay 0; nothing reads them).
func (c *clustering) countCores() []int32 {
	cores := fill(c.ws.cores, len(c.flat.Left), 0)
	c.ws.cores = cores
	for ni, left := range c.flat.Left {
		if left >= 0 {
			continue
		}
		for _, pi := range c.leafPoints(ni) {
			if c.core[pi] {
				cores[ni]++
			}
		}
	}
	return cores
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
			out[i] = geom.Noise
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
