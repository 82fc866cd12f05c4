package gdbscan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/dsu"
	"repro/internal/geom"
)

// clusterByTreeWalks is Cluster with the kernels the neighbour lists
// replaced, kept as their differential oracle: core flags from the
// per-point loop (classifyPerPoint), then an expansion, a box-link pass
// and a border pass that each walk the tree from the root — once per
// expanded point, per box and per non-core point. It runs on the host,
// one seed after another; labels do not depend on the order.
func clusterByTreeWalks(pts []geom.Point, opt Options) *Result {
	opt.setDefaults()
	if len(pts) == 0 {
		return &Result{Labels: []int32{}, Core: []bool{}}
	}
	c := newClustering(testDevice(), pts, opt)
	c.core = classifyPerPoint(c)
	c.stats.CorePoints = countTrue(c.core)
	if opt.DenseBox {
		c.promoteBoxes()
	}
	var seeds []int32
	for i, l := range c.labels {
		if l < 0 && (c.core[i] || opt.Mode == ModeCUDADClust) {
			seeds = append(seeds, int32(i))
		}
	}
	c.ws.seeds = seeds
	c.stats.SeedRounds = (len(seeds) + opt.Blocks - 1) / opt.Blocks
	c.merges = dsu.New(int(c.nBoxes) + len(seeds))
	for si := range seeds {
		c.expandSeedByTreeWalk(si)
	}
	c.linkBoxesByTreeWalk()
	c.attachBordersByTreeWalk()
	out, numClusters := c.compactLabels()
	return &Result{Labels: out, Core: c.core, NumClusters: numClusters, Stats: c.stats}
}

// expandSeedByTreeWalk is the expansion kernel body as it was: every
// expanded point traverses the tree from the root with its Eps disc.
func (c *clustering) expandSeedByTreeWalk(si int) {
	labels, core := c.labels, c.core
	seed := c.ws.seeds[si]
	if !core[seed] || labels[seed] >= 0 {
		return
	}
	myID := c.nBoxes + int32(si)
	labels[seed] = myID
	xs, ys, eps2, leafBox := c.xs, c.ys, c.eps2, c.leafBox
	bounds, left, right := c.flat.Bounds, c.flat.Left, c.flat.Right
	q := []int32{seed}
	for len(q) > 0 {
		p := q[len(q)-1]
		q = q[:len(q)-1]
		cx, cy := xs[p], ys[p]
		stack := []int32{0}
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rectDist2(bounds[4*ni:4*ni+4], cx, cy) > eps2 {
				continue
			}
			if left[ni] >= 0 {
				stack = append(stack, left[ni], right[ni])
				continue
			}
			members := c.leafPoints(int(ni))
			if box := leafBox[ni]; box >= 0 {
				if c.reaches(members, cx, cy) {
					c.unionRaw(myID, box)
				}
				continue
			}
			for _, nb := range members {
				if nb == p || !core[nb] {
					continue
				}
				dx, dy := cx-xs[nb], cy-ys[nb]
				if dx*dx+dy*dy > eps2 {
					continue
				}
				if labels[nb] < 0 {
					labels[nb] = myID
					q = append(q, nb)
				} else {
					c.unionRaw(myID, labels[nb])
				}
			}
		}
	}
}

// unionRaw records that raw cluster IDs a and b are one cluster.
func (c *clustering) unionRaw(a, b int32) {
	if c.merges.Union(int(a), int(b)) {
		c.stats.Collisions++
	}
}

// linkBoxesByTreeWalk is the box-link pass as it was: each box traverses
// the tree with its rectangle for the boxes within Eps of it.
func (c *clustering) linkBoxesByTreeWalk() {
	bounds, left, right := c.flat.Bounds, c.flat.Left, c.flat.Right
	for a, boxA := range c.leafBox {
		if boxA < 0 {
			continue
		}
		ra := bounds[4*a : 4*a+4]
		stack := []int32{0}
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
			if boxB := c.leafBox[ni]; boxB >= 0 && ni > a && c.boxesTouch(a, ni) {
				c.unionRaw(boxA, boxB)
			}
		}
	}
}

// attachBordersByTreeWalk is the border pass as it was: every non-core
// point traverses the tree from the root, skipping subtrees without a
// core point, and joins the adjacent cluster whose lead comes first.
func (c *clustering) attachBordersByTreeWalk() {
	pts, labels, core, merges := c.pts, c.labels, c.core, c.merges
	before := func(a, b int32) bool {
		return pts[a].ID < pts[b].ID || (pts[a].ID == pts[b].ID && a < b)
	}
	lead := fill(c.ws.lead, merges.Len(), -1)
	c.ws.lead = lead
	for i, l := range labels {
		if l >= 0 && core[i] {
			if root := merges.Find(int(l)); lead[root] < 0 || before(int32(i), lead[root]) {
				lead[root] = int32(i)
			}
		}
	}
	for id := range lead {
		lead[id] = lead[merges.Find(id)]
	}
	left, right := c.flat.Left, c.flat.Right
	// hasCore[ni]: a core point beneath node ni. Children follow their
	// parent in pre-order, so one reverse sweep sees both first.
	hasCore := make([]bool, len(left))
	for ni := len(left) - 1; ni >= 0; ni-- {
		if left[ni] >= 0 {
			hasCore[ni] = hasCore[left[ni]] || hasCore[right[ni]]
		} else {
			hasCore[ni] = slices.ContainsFunc(c.leafPoints(ni), func(pi int32) bool { return core[pi] })
		}
	}
	for i := range pts {
		if core[i] {
			continue
		}
		cx, cy := c.xs[i], c.ys[i]
		best := int32(-1)
		stack := []int32{0}
		for len(stack) > 0 {
			ni := int(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
			if !hasCore[ni] || rectDist2(c.flat.Bounds[4*ni:4*ni+4], cx, cy) > c.eps2 {
				continue
			}
			if left[ni] >= 0 {
				stack = append(stack, left[ni], right[ni])
				continue
			}
			for _, nb := range c.leafPoints(ni) {
				dx, dy := cx-c.xs[nb], cy-c.ys[nb]
				if !core[nb] || dx*dx+dy*dy > c.eps2 {
					continue
				}
				if cand := lead[labels[nb]]; best < 0 || before(cand, best) {
					best = cand
				}
			}
		}
		if best >= 0 {
			labels[i] = labels[best]
		}
	}
}

// checkAgainstTreeWalks holds Cluster to the oracle: byte-identical
// labels and core flags, and the same Stats but for Collisions (which
// depends on block scheduling) and the device's transfer counters.
func checkAgainstTreeWalks(t *testing.T, name string, pts []geom.Point, opt Options) {
	t.Helper()
	got, err := Cluster(testDevice(), pts, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := clusterByTreeWalks(pts, opt)
	if !slices.Equal(got.Labels, want.Labels) || !slices.Equal(got.Core, want.Core) || got.NumClusters != want.NumClusters {
		t.Fatalf("%s: labels or core flags differ from the tree walks' (%d vs %d clusters)", name, got.NumClusters, want.NumClusters)
	}
	g, w := got.Stats, want.Stats
	if g.DenseBoxes != w.DenseBoxes || g.DenseBoxPoints != w.DenseBoxPoints || g.SeedRounds != w.SeedRounds ||
		g.BorderAttached != w.BorderAttached || g.CorePoints != w.CorePoints {
		t.Errorf("%s: stats %+v, the tree walks' %+v", name, g, w)
	}
}

// TestNeighbourListsMatchTreeWalks: the list-reading expansion, box-link
// and border kernels return the labels and core flags of the tree walks
// they replaced, byte for byte, over the property grid (every knob,
// both modes) and the structured inputs in both modes with DenseBox on
// and off. Run it under -race: the kernels' blocks run concurrently.
func TestNeighbourListsMatchTreeWalks(t *testing.T) {
	f := func(seed int64, nRaw uint16, minRaw, blocksRaw, leafRaw uint8, dense, cuda bool) bool {
		pts := clumpsAndScatter(rand.New(rand.NewSource(seed)), int(nRaw)%400+10)
		opt := Options{
			Params:   geom.Params{Eps: 0.1, MinPts: int(minRaw)%12 + 1},
			DenseBox: dense,
			Blocks:   int(blocksRaw)%16 + 1,
			LeafSize: int(leafRaw)%48 + 4,
		}
		if cuda {
			opt.Mode = ModeCUDADClust
		}
		checkAgainstTreeWalks(t, fmt.Sprintf("seed %d n %d %+v", seed, len(pts), opt), pts, opt)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
	for _, in := range append(boundsInputs(), contractInputs()...) {
		for _, mode := range []Mode{ModeMrScan, ModeCUDADClust} {
			for _, dense := range []bool{true, false} {
				opt := Options{Params: in.params, Mode: mode, DenseBox: dense}
				checkAgainstTreeWalks(t, fmt.Sprintf("%s/%s/densebox=%v", in.name, mode, dense), in.pts, opt)
			}
		}
	}
}

// TestNeighbourListsStayLocal is the clock-free guard on the lists'
// size: on a uniform-density strip a leaf has a bounded number of leaves
// within Eps, so the entries per leaf must not grow with the strip's
// length — whatever the tree's shape above the leaves.
func TestNeighbourListsStayLocal(t *testing.T) {
	for _, dense := range []bool{true, false} {
		entriesPerLeaf := func(length float64) (float64, int) {
			pts := dataset.Uniform(int(length*4000), 5, geom.Rect{MaxX: length, MaxY: 1})
			c := classified(t, pts, Options{Params: geom.Params{Eps: 0.1, MinPts: 5}, DenseBox: dense})
			leaves, entries := 0, 0
			for ni, left := range c.flat.Left {
				if left < 0 {
					list, _ := c.neighbours(int32(ni))
					leaves++
					entries += len(list)
				}
			}
			t.Logf("densebox=%v, length %g: %d leaves, %.2f entries each", dense, length, leaves, float64(entries)/float64(leaves))
			return float64(entries) / float64(leaves), leaves
		}
		small, nSmall := entriesPerLeaf(1)
		large, nLarge := entriesPerLeaf(8)
		if nLarge < 6*nSmall {
			t.Fatalf("densebox=%v: leaves grew only %d → %d", dense, nSmall, nLarge)
		}
		if large > small*1.25 {
			t.Errorf("densebox=%v: list entries per leaf grew %.2f → %.2f as leaves grew %d → %d", dense, small, large, nSmall, nLarge)
		}
	}
}
