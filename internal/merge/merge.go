// Package merge implements Mr. Scan's merge phase (paper §3.3): combining
// the clusters found independently on each leaf into global clusters,
// using only a small, bounded summary of each cluster instead of its full
// point set.
//
// A leaf summarizes each local cluster per grid cell: at most 8
// representative core points (the cores nearest the cell's corners and
// side midpoints — Figure 5 shows these suffice to detect any core-point
// overlap) plus the cluster's non-core points in the cell, tagged by
// whether the cell is owned or shadow from that leaf's view.
//
// A Summary is flat: its cells are a slice sorted by packed cell key, each
// a (start, counts) run into one point array — representatives, then
// owner-view non-core, then shadow-view non-core, each by ID — and a
// leaf's summaries cut their runs from one arena (summary.go). Building
// is a radix + counting sort by (label, cell); combining is a sorted join
// over the cell lists; neither touches a hash map. Summary points carry
// no Weight: nothing downstream of a summary reads it, and the wire
// records (AppendSummaries) omit it.
//
// Internal tree nodes merge the summaries of their children with the
// paper's three overlap rules:
//
//  1. Core/core overlap: a representative of one cluster within Eps of a
//     representative of another in a shared cell — the clusters share a
//     core point, merge.
//  2. Non-core/core overlap: a point classified non-core only by shadow
//     copies (the cell's owner did not classify it non-core, so the owner
//     saw it as core) lying within Eps of an owner-side representative —
//     merge. This repairs the shadow region's conservative core
//     classification (Figure 7).
//  3. Non-core/non-core overlap: duplicate non-core points in shadow
//     copies are dropped (no merge).
//
// Merging is progressive: each level of the tree combines and re-reduces
// summaries, so the root only ever sees per-cluster-per-cell summaries,
// never whole clusters.
package merge

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/dsu"
	"repro/internal/geom"
	"repro/internal/grid"
)

// MaxReps is the number of representative points kept per cluster per
// grid cell (§3.3.1: "We have determined that eight points can represent
// the core points of a grid cell of arbitrary density").
const MaxReps = 8

// ref is one entry of a sorted join: a packed cell key with two payload
// indices — (label, point) while building, (summary, cell) while combining.
type ref struct {
	key  uint64
	a, b int32
}

// sortByKey stably sorts refs by key, ping-ponging with tmp (same length),
// and returns the buffer that holds the result and the one that is spare:
// a byte-wise LSD radix sort that skips the bytes every key shares (a
// leaf's cells typically differ in three or four of eight).
func sortByKey(refs, tmp []ref) (sorted, spare []ref) {
	allOnes, anyOnes := ^uint64(0), uint64(0)
	for _, r := range refs {
		allOnes &= r.key
		anyOnes |= r.key
	}
	for shift := 0; shift < 64; shift += 8 {
		if (allOnes^anyOnes)>>shift&0xff == 0 {
			continue
		}
		var next [257]int
		for _, r := range refs {
			next[r.key>>shift&0xff+1]++
		}
		for i := 1; i < len(next); i++ {
			next[i] += next[i-1]
		}
		for _, r := range refs {
			b := r.key >> shift & 0xff
			tmp[next[b]] = r
			next[b]++
		}
		refs, tmp = tmp, refs
	}
	return refs, tmp
}

// sortByA stably sorts refs by a ∈ [0, len(next)-1) into tmp: one
// counting pass over next, which must arrive zeroed.
func sortByA(refs, tmp []ref, next []int32) []ref {
	n := len(next) - 1
	for _, r := range refs {
		next[r.a+1]++
	}
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
	}
	for _, r := range refs {
		tmp[next[r.a]] = r
		next[r.a]++
	}
	return tmp
}

// builder accumulates summaries whose cell, member and point runs are cut
// from three shared arrays. Runs are recorded as offsets while the arrays
// grow and turned into slices once, by finish.
type builder struct {
	g       grid.Grid
	sums    []Summary
	ends    [][3]int // per summary: end offsets in members, cells, points
	members []ClusterKey
	cells   []Cell
	points  []geom.Point
	// per-cell scratch, reused
	cand, own, shd []geom.Point
}

// reset empties the per-cell scratch.
func (b *builder) reset() { b.cand, b.own, b.shd = b.cand[:0], b.own[:0], b.shd[:0] }

// addCell closes the scratch into one cell of the open summary: cand
// (distinct IDs) reduces to at most MaxReps representatives, own and shd
// become ID-sorted sets, and a point the owner view holds leaves shd.
func (b *builder) addCell(c grid.Coord, owned bool) {
	n, base := len(b.points), 0
	if k := len(b.ends); k > 0 {
		base = b.ends[k-1][2] // where the open summary's points begin
	}
	cell := Cell{Coord: c, Start: int32(n - base), Owned: owned}
	b.points = appendReps(b.points, b.g, c, b.cand)
	cell.NReps = int32(len(b.points) - n)
	own := setByID(b.own)
	shd := withoutIDs(setByID(b.shd), own)
	cell.NOwnedNonCore, cell.NShadowNonCore = int32(len(own)), int32(len(shd))
	b.points = append(append(b.points, own...), shd...)
	b.cells = append(b.cells, cell)
}

// closeSummary ends the open summary: its members are what b.members
// gained since the last one, sorted.
func (b *builder) closeSummary(key ClusterKey) {
	b.sums = append(b.sums, Summary{Key: key})
	b.ends = append(b.ends, [3]int{len(b.members), len(b.cells), len(b.points)})
}

// finish appends the built summaries to out.
func (b *builder) finish(out []*Summary) []*Summary {
	var lo [3]int
	for i := range b.sums {
		s, hi := &b.sums[i], b.ends[i]
		s.Members = b.members[lo[0]:hi[0]:hi[0]]
		s.Cells = b.cells[lo[1]:hi[1]:hi[1]]
		s.Points = b.points[lo[2]:hi[2]:hi[2]]
		out, lo = append(out, s), hi
	}
	return out
}

func byID(a, b geom.Point) int { return cmp.Compare(a.ID, b.ID) }

// setByID sorts pts by ID and drops duplicate IDs, in place.
func setByID(pts []geom.Point) []geom.Point {
	if len(pts) < 2 {
		return pts
	}
	slices.SortFunc(pts, byID)
	return slices.CompactFunc(pts, func(a, b geom.Point) bool { return a.ID == b.ID })
}

// withoutIDs compacts run, in place, to the points whose ID is absent
// from drop; both are sorted by ID.
func withoutIDs(run, drop []geom.Point) []geom.Point {
	if len(drop) == 0 {
		return run
	}
	k, d := 0, 0
	for _, p := range run {
		for d < len(drop) && drop[d].ID < p.ID {
			d++
		}
		if d == len(drop) || drop[d].ID != p.ID {
			run[k] = p
			k++
		}
	}
	return run[:k]
}

// Scratch holds BuildSummaries' sort buffers — the 2·n (label, cell)
// refs and the per-label counts — so a caller that summarises leaf after
// leaf allocates them once. Nothing a build returns points into it. The
// zero value is ready; a Scratch serves one goroutine at a time.
type Scratch struct {
	refs []ref
	next []int32
}

// BuildSummaries converts one leaf's clustering result into summaries,
// with sort buffers of its own.
func BuildSummaries(g grid.Grid, leaf int, pts []geom.Point, ownedCount int, labels []int32, core []bool, numClusters int) ([]*Summary, error) {
	return new(Scratch).BuildSummaries(g, leaf, pts, ownedCount, labels, core, numClusters)
}

// BuildSummaries converts one leaf's clustering result into summaries.
// pts are the leaf's points — the partition's owned points first, then
// the shadow points: ownedCount says how many are owned. labels and core
// are gdbscan's output over pts; numClusters is its cluster count.
func (s *Scratch) BuildSummaries(g grid.Grid, leaf int, pts []geom.Point, ownedCount int, labels []int32, core []bool, numClusters int) ([]*Summary, error) {
	if len(pts) != len(labels) || len(pts) != len(core) {
		return nil, fmt.Errorf("merge: %d points with %d labels / %d core flags", len(pts), len(labels), len(core))
	}
	if ownedCount < 0 || ownedCount > len(pts) {
		return nil, fmt.Errorf("merge: ownedCount %d out of range", ownedCount)
	}
	// One sort by (label, cell) over the clustered points; noise is left out.
	s.refs = slices.Grow(s.refs[:0], 2*len(pts))
	buf := s.refs[:2*len(pts)]
	refs := buf[:0:len(pts)]
	for i, p := range pts {
		l := labels[i]
		if l < 0 {
			continue
		}
		if int(l) >= numClusters {
			return nil, fmt.Errorf("merge: label %d out of range (%d clusters)", l, numClusters)
		}
		refs = append(refs, ref{g.CellOf(p).Key(), l, int32(i)})
	}
	sorted, spare := sortByKey(refs, buf[len(pts):][:len(refs)])
	s.next = append(s.next[:0], make([]int32, numClusters+1)...)
	refs = sortByA(sorted, spare, s.next)
	// Size the arrays exactly: a cell keeps its non-core points and at most
	// MaxReps of its core ones.
	var nSums, nCells, nPoints, cores int
	for i, r := range refs {
		if i == 0 || r.a != refs[i-1].a {
			nSums++
		}
		if i == 0 || r.a != refs[i-1].a || r.key != refs[i-1].key {
			nCells, cores = nCells+1, 0
		}
		if core[r.b] {
			if cores++; cores > MaxReps {
				continue
			}
		}
		nPoints++
	}
	b := builder{g: g, sums: make([]Summary, 0, nSums), ends: make([][3]int, 0, nSums), members: make([]ClusterKey, 0, nSums),
		cells: make([]Cell, 0, nCells), points: make([]geom.Point, 0, nPoints)}
	for i := 0; i < len(refs); {
		label := refs[i].a
		for i < len(refs) && refs[i].a == label {
			key, owned := refs[i].key, false
			first := pts[refs[i].b]
			b.reset()
			for ; i < len(refs) && refs[i].a == label && refs[i].key == key; i++ {
				pi := int(refs[i].b)
				p := pts[pi]
				p.Weight = 0
				owned = owned || pi < ownedCount
				switch {
				case core[pi]:
					b.cand = append(b.cand, p)
				case pi < ownedCount:
					b.own = append(b.own, p)
				default:
					b.shd = append(b.shd, p)
				}
			}
			b.addCell(g.CellOf(first), owned)
		}
		k := ClusterKey{Leaf: int32(leaf), Local: label}
		b.members = append(b.members, k)
		b.closeSummary(k)
	}
	return b.finish(nil), nil
}

// SelectReps picks at most MaxReps representative points: for each of the
// cell's 8 anchors, the candidate core point nearest it (deduplicated by
// ID, ties to the smaller ID), sorted by ID. The Figure 5 invariant
// follows: every core point of the cluster in this cell lies within Eps
// of at least one selected representative.
func SelectReps(g grid.Grid, cell grid.Coord, cand []geom.Point) []geom.Point {
	return appendReps(nil, g, cell, cand)
}

// appendReps appends SelectReps' choice to dst.
func appendReps(dst []geom.Point, g grid.Grid, cell grid.Coord, cand []geom.Point) []geom.Point {
	n := len(dst)
	if len(cand) <= MaxReps {
		dst = append(dst, cand...)
	} else {
		for _, a := range g.Anchors(cell) {
			best, bestD := 0, geom.Dist2(cand[0], a)
			for i, p := range cand[1:] {
				if d := geom.Dist2(p, a); d < bestD || (d == bestD && p.ID < cand[best].ID) {
					best, bestD = i+1, d
				}
			}
			dst = append(dst, cand[best])
		}
	}
	return dst[:n+len(setByID(dst[n:]))]
}

// Combine merges the summary groups arriving at one tree node (one group
// per child) and returns the reduced summary list. It applies the three
// overlap rules per shared cell and fuses merged clusters' summaries.
// Rule 3 edits the incoming summaries in place, and a cluster nothing
// merged with is returned as the summary that came in.
func Combine(g grid.Grid, eps float64, groups [][]*Summary) []*Summary {
	var all []*Summary
	nCells := 0
	for _, grp := range groups {
		all = append(all, grp...)
		for _, s := range grp {
			nCells += len(s.Cells)
		}
	}
	if len(all) <= 1 {
		return all
	}
	// Join the sorted cell lists: after the sort every cell's (summary,
	// cell) refs are adjacent, in summary order.
	buf := make([]ref, 2*nCells)
	refs := buf[:0:nCells]
	for si, s := range all {
		for ci := range s.Cells {
			refs = append(refs, ref{s.Cells[ci].Coord.Key(), int32(si), int32(ci)})
		}
	}
	refs, _ = sortByKey(refs, buf[nCells:])
	uf := dsu.New(len(all))
	var owner []geom.Point
	for i, j := 0, 0; i < len(refs); i = j {
		for j = i + 1; j < len(refs) && refs[j].key == refs[i].key; j++ {
		}
		if j-i > 1 {
			owner = overlap(all, refs[i:j], eps*eps, uf, owner[:0])
		}
	}

	// Fuse by union-find root: one counting sort brings each set's
	// summaries together; singletons pass through.
	sets := make([]ref, 2*len(all))
	for si := range all {
		sets[si] = ref{a: int32(uf.Find(si)), b: int32(si)}
	}
	sets = sortByA(sets[:len(all)], sets[len(all):], make([]int32, len(all)+1))
	out := make([]*Summary, 0, uf.Count())
	b := builder{g: g}
	for i, j := 0, 0; i < len(sets); i = j {
		for j = i + 1; j < len(sets) && sets[j].a == sets[i].a; j++ {
		}
		if j-i == 1 {
			out = append(out, all[sets[i].b])
		} else {
			refs = b.fuse(all, sets[i:j], refs[:0])
		}
	}
	out = b.finish(out)
	slices.SortFunc(out, func(a, b *Summary) int { return a.Key.Compare(b.Key) })
	return out
}

// overlap applies the three rules to one cell's refs (≥ 2 summaries). It
// returns the owner scratch for reuse.
func overlap(all []*Summary, refs []ref, eps2 float64, uf *dsu.DSU, owner []geom.Point) []geom.Point {
	cell := func(r ref) (*Summary, *Cell) { return all[r.a], &all[r.a].Cells[r.b] }
	// Rule 1: core/core overlap via representatives.
	for i, ri := range refs {
		si, ci := cell(ri)
		for _, rj := range refs[i+1:] {
			sj, cj := cell(rj)
			if !uf.Same(int(ri.a), int(rj.a)) && repsWithinEps(si.Reps(ci), sj.Reps(cj), eps2) {
				uf.Union(int(ri.a), int(rj.a))
			}
		}
	}
	// Rule 3: drop from every shadow copy the points the cell's owner
	// classified non-core ("we resolve this case by removing all duplicate
	// non-core points from the shadow region").
	for _, r := range refs {
		s, c := cell(r)
		owner = append(owner, s.OwnedNonCore(c)...)
	}
	if owner = setByID(owner); len(owner) > 0 {
		for _, r := range refs {
			s, c := cell(r)
			c.NShadowNonCore = int32(len(withoutIDs(s.ShadowNonCore(c), owner)))
		}
	}
	// Rule 2: non-core/core overlap. What is left in a shadow copy is
	// non-core only in shadow views (the owner saw it as core, or had no
	// record); within Eps of an owner-side representative it merges the
	// clusters.
	for _, ri := range refs {
		si, ci := cell(ri)
		if ci.NShadowNonCore == 0 {
			continue
		}
		for _, rj := range refs {
			sj, cj := cell(rj)
			if ri.a != rj.a && cj.Owned && !uf.Same(int(ri.a), int(rj.a)) &&
				repsWithinEps(si.ShadowNonCore(ci), sj.Reps(cj), eps2) {
				uf.Union(int(ri.a), int(rj.a))
			}
		}
	}
	return owner
}

// fuse adds the summary of one merged set (refs' b fields index all):
// its cells are the sorted union of the members' cells, and every cell's
// runs the sorted unions of its copies' runs — an owner-view non-core
// point trumps a shadow classification (rule 3 within the fused cluster),
// and representatives are re-reduced so upstream payloads stay bounded
// (the Figure 5 invariant is preserved under re-selection from the
// union). It returns the cells scratch for reuse.
func (b *builder) fuse(all []*Summary, set []ref, cells []ref) []ref {
	minKey, mlo := all[set[0].b].Key, len(b.members)
	for _, r := range set {
		s := all[r.b]
		if s.Key.Compare(minKey) < 0 {
			minKey = s.Key
		}
		b.members = append(b.members, s.Members...)
		for ci := range s.Cells {
			cells = append(cells, ref{s.Cells[ci].Coord.Key(), r.b, int32(ci)})
		}
	}
	slices.SortFunc(b.members[mlo:], ClusterKey.Compare)
	slices.SortFunc(cells, func(x, y ref) int { return cmp.Compare(x.key, y.key) })
	for i := 0; i < len(cells); {
		key, owned := cells[i].key, false
		var coord grid.Coord
		b.reset()
		for ; i < len(cells) && cells[i].key == key; i++ {
			s, c := all[cells[i].a], &all[cells[i].a].Cells[cells[i].b]
			coord, owned = c.Coord, owned || c.Owned
			b.cand = append(b.cand, s.Reps(c)...)
			b.own = append(b.own, s.OwnedNonCore(c)...)
			b.shd = append(b.shd, s.ShadowNonCore(c)...)
		}
		b.cand = setByID(b.cand)
		b.addCell(coord, owned)
	}
	b.closeSummary(minKey)
	return cells
}

func repsWithinEps(a, b []geom.Point, eps2 float64) bool {
	for _, p := range a {
		for _, q := range b {
			if geom.Dist2(p, q) <= eps2 {
				return true
			}
		}
	}
	return false
}

// BorderClaims extracts, from the final merged summaries, the border
// memberships observed only by shadow views: point IDs that some leaf
// saw within Eps of one of its genuine core points, mapped to that
// cluster's global ID (smallest ID on conflict, mirroring DBSCAN's
// first-claimer order dependence).
//
// A point whose only core neighbours live in its owner's *shadow* is
// labelled noise by the owner (the owner undercounts shadow points'
// neighbourhoods — the point-level analogue of Figure 7), but the leaf
// that owns those cores saw it in its own shadow as their border member.
// The paper's sweep does not feed this back (its quality floor is 0.995,
// not 1.0); SweepLabel does, so every front door writes such a point as
// a border member, as exact DBSCAN does.
func BorderClaims(sums []*Summary, mapping map[ClusterKey]int32) map[uint64]int32 {
	claims := make(map[uint64]int32)
	for _, s := range sums {
		gid, ok := mapping[s.Key]
		if !ok {
			continue
		}
		for i := range s.Cells {
			for _, p := range s.ShadowNonCore(&s.Cells[i]) {
				if prev, dup := claims[p.ID]; !dup || gid < prev {
					claims[p.ID] = gid
				}
			}
		}
	}
	return claims
}

// SweepLabel is the sweep's rule for one owned point, on every front
// door: a local cluster (local ≥ 0) takes its global ID from table, its
// leaf's GlobalByLeaf table; a noise point that a shadow view claims
// (BorderClaims) takes the claimed ID; every other point is noise, -1
// (sweep.NoiseID). A claim only ever turns noise into a cluster. ok is
// false when table does not map local.
func SweepLabel(table []int32, local int32, id uint64, claims map[uint64]int32) (gid int32, ok bool) {
	if local >= 0 {
		if int(local) >= len(table) || table[local] < 0 {
			return -1, false
		}
		return table[local], true
	}
	if gid, claimed := claims[id]; claimed {
		return gid, true
	}
	return -1, true
}

// AssignGlobalIDs gives each final cluster a dense global ID (§3.4: "a
// globally unique identifier is assigned to each cluster") and returns
// the mapping from every original (leaf, local) cluster key.
func AssignGlobalIDs(sums []*Summary) map[ClusterKey]int32 {
	ordered := slices.Clone(sums)
	slices.SortFunc(ordered, func(a, b *Summary) int { return a.Key.Compare(b.Key) })
	n := 0
	for _, s := range ordered {
		n += len(s.Members)
	}
	mapping := make(map[ClusterKey]int32, n)
	for id, s := range ordered {
		for _, m := range s.Members {
			mapping[m] = int32(id)
		}
	}
	return mapping
}

// GlobalByLeaf resolves AssignGlobalIDs' mapping into one dense table per
// leaf, indexed by local cluster ID, so relabelling a leaf's points is an
// index, not a hash per point. Local IDs the mapping has no entry for
// read -1 (global IDs are never negative); keys naming a leaf outside
// [0, leaves) or a local ID no table can index are ignored.
func GlobalByLeaf(mapping map[ClusterKey]int32, leaves int) [][]int32 {
	known := func(k ClusterKey) bool {
		return k.Leaf >= 0 && int(k.Leaf) < leaves && k.Local >= 0 && k.Local < math.MaxInt32
	}
	size := make([]int32, leaves)
	for k := range mapping {
		if known(k) && k.Local >= size[k.Leaf] {
			size[k.Leaf] = k.Local + 1
		}
	}
	tables := make([][]int32, leaves)
	for l, n := range size {
		tables[l] = make([]int32, n)
		for i := range tables[l] {
			tables[l][i] = -1
		}
	}
	for k, gid := range mapping {
		if known(k) {
			tables[k.Leaf][k.Local] = gid
		}
	}
	return tables
}
