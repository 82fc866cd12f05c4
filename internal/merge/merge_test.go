package merge

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

const eps = 0.1

var g = grid.New(eps)

func key(leaf, local int32) ClusterKey { return ClusterKey{Leaf: leaf, Local: local} }

// mkSummary builds a summary with reps (core) and non-core points placed
// in their natural cells.
func mkSummary(k ClusterKey, owned map[grid.Coord]bool, reps, ownedNC, shadowNC []geom.Point) *Summary {
	return toFlat(mkRefSummary(k, owned, reps, ownedNC, shadowNC))
}

// mkRefSummary is mkSummary in the oracle's map representation.
func mkRefSummary(k ClusterKey, owned map[grid.Coord]bool, reps, ownedNC, shadowNC []geom.Point) *refSummary {
	s := &refSummary{Key: k, Members: []ClusterKey{k}, Cells: make(map[grid.Coord]*refCellData)}
	cell := func(p geom.Point) *refCellData {
		c := g.CellOf(p)
		cd := s.Cells[c]
		if cd == nil {
			cd = newRefCellData()
			cd.Owned = owned[c]
			s.Cells[c] = cd
		}
		return cd
	}
	for _, p := range reps {
		cd := cell(p)
		cd.Reps = append(cd.Reps, p)
	}
	for _, p := range ownedNC {
		cell(p).OwnedNonCore[p.ID] = p
	}
	for _, p := range shadowNC {
		cell(p).ShadowNonCore[p.ID] = p
	}
	return s
}

// cellAt returns s's cell at c, or nil.
func cellAt(s *Summary, c grid.Coord) *Cell {
	for i := range s.Cells {
		if s.Cells[i].Coord == c {
			return &s.Cells[i]
		}
	}
	return nil
}

func hasID(run []geom.Point, id uint64) bool {
	for _, p := range run {
		if p.ID == id {
			return true
		}
	}
	return false
}

func TestSelectRepsSmallPassThrough(t *testing.T) {
	cand := []geom.Point{{ID: 3, X: 0.01, Y: 0.01}, {ID: 1, X: 0.02, Y: 0.02}}
	reps := SelectReps(g, grid.Coord{CX: 0, CY: 0}, cand)
	if len(reps) != 2 {
		t.Fatalf("got %d reps, want 2", len(reps))
	}
	if reps[0].ID != 1 || reps[1].ID != 3 {
		t.Errorf("reps not sorted by ID: %v", reps)
	}
}

func TestSelectRepsBoundedAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cell := grid.Coord{CX: 2, CY: 3}
	r := g.CellRect(cell)
	cand := make([]geom.Point, 500)
	for i := range cand {
		cand[i] = geom.Point{
			ID: uint64(i),
			X:  r.MinX + rng.Float64()*r.Width(),
			Y:  r.MinY + rng.Float64()*r.Height(),
		}
	}
	reps := SelectReps(g, cell, cand)
	if len(reps) == 0 || len(reps) > MaxReps {
		t.Fatalf("got %d reps, want 1..%d", len(reps), MaxReps)
	}
	again := SelectReps(g, cell, cand)
	for i := range reps {
		if reps[i] != again[i] {
			t.Fatal("selection not deterministic")
		}
	}
	// Figure 5 invariant: every candidate core point lies within Eps of
	// at least one representative.
	for _, p := range cand {
		ok := false
		for _, rp := range reps {
			if geom.Dist2(p, rp) <= eps*eps {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("point %v farther than Eps from every representative", p)
		}
	}
}

func TestCombineRule1CoreCoreOverlap(t *testing.T) {
	// Two leaves each found a cluster; in the shared cell their core
	// points (here: the same physical point 100) are within Eps.
	shared := geom.Point{ID: 100, X: 0.05, Y: 0.05}
	a := mkSummary(key(0, 0), map[grid.Coord]bool{g.CellOf(shared): true},
		[]geom.Point{shared, {ID: 1, X: 0.02, Y: 0.02}}, nil, nil)
	b := mkSummary(key(1, 0), nil,
		[]geom.Point{shared, {ID: 2, X: 0.08, Y: 0.08}}, nil, nil)
	out := Combine(g, eps, [][]*Summary{{a}, {b}})
	if len(out) != 1 {
		t.Fatalf("Combine produced %d clusters, want 1", len(out))
	}
	if len(out[0].Members) != 2 {
		t.Errorf("merged cluster has %d members, want 2", len(out[0].Members))
	}
	if out[0].Key != key(0, 0) {
		t.Errorf("merged key = %+v, want the smallest member", out[0].Key)
	}
}

func TestCombineNoFalseMergeWhenFar(t *testing.T) {
	a := mkSummary(key(0, 0), nil, []geom.Point{{ID: 1, X: 0.01, Y: 0.01}}, nil, nil)
	b := mkSummary(key(1, 0), nil, []geom.Point{{ID: 2, X: 5, Y: 5}}, nil, nil)
	out := Combine(g, eps, [][]*Summary{{a}, {b}})
	if len(out) != 2 {
		t.Fatalf("Combine produced %d clusters, want 2 (no shared cell)", len(out))
	}
}

func TestCombineSameCellButBeyondEps(t *testing.T) {
	// Same cell, but reps farther than Eps apart: cell (0,0) with eps 0.1
	// cannot hold two points > 0.1 apart... use a bigger grid cell by
	// querying with eps smaller than the cell: reps at opposite corners
	// of cell (0,0) are ~0.14 apart — no merge.
	a := mkSummary(key(0, 0), nil, []geom.Point{{ID: 1, X: 0.001, Y: 0.001}}, nil, nil)
	b := mkSummary(key(1, 0), nil, []geom.Point{{ID: 2, X: 0.099, Y: 0.099}}, nil, nil)
	out := Combine(g, eps, [][]*Summary{{a}, {b}})
	if len(out) != 2 {
		t.Fatalf("corner-to-corner reps (dist ~0.139 > eps) must not merge; got %d clusters", len(out))
	}
}

func TestCombineRule2NonCoreCoreOverlap(t *testing.T) {
	// Point 50 sits in a cell owned by leaf 1. Leaf 1 classified it core
	// (it is a representative of cluster B). Leaf 0's shadow view
	// undercounted its neighbors and classified it non-core, so cluster A
	// carries it as ShadowNonCore. Rule 2 must merge A and B.
	p50 := geom.Point{ID: 50, X: 0.15, Y: 0.05} // cell (1,0)
	a := mkSummary(key(0, 0), map[grid.Coord]bool{{CX: 0, CY: 0}: true},
		[]geom.Point{{ID: 1, X: 0.08, Y: 0.05}}, // core in owned cell (0,0)
		nil,
		[]geom.Point{p50}, // shadow view: non-core
	)
	b := mkSummary(key(1, 0), map[grid.Coord]bool{{CX: 1, CY: 0}: true},
		[]geom.Point{p50, {ID: 51, X: 0.18, Y: 0.05}},
		nil, nil,
	)
	out := Combine(g, eps, [][]*Summary{{a}, {b}})
	if len(out) != 1 {
		t.Fatalf("rule 2 must merge the clusters; got %d", len(out))
	}
}

func TestCombineRule2RequiresOwnerSilence(t *testing.T) {
	// Same geometry, but the owner also classified point 50 as non-core
	// (it genuinely is): cluster B carries it as OwnedNonCore. The diff
	// removes it, so no merge happens (two clusters sharing a border
	// point stay separate).
	p50 := geom.Point{ID: 50, X: 0.15, Y: 0.05}
	a := mkSummary(key(0, 0), map[grid.Coord]bool{{CX: 0, CY: 0}: true},
		[]geom.Point{{ID: 1, X: 0.08, Y: 0.05}},
		nil,
		[]geom.Point{p50},
	)
	b := mkSummary(key(1, 0), map[grid.Coord]bool{{CX: 1, CY: 0}: true},
		[]geom.Point{{ID: 51, X: 0.16, Y: 0.05}},
		[]geom.Point{p50}, // owner says: non-core
		nil,
	)
	out := Combine(g, eps, [][]*Summary{{a}, {b}})
	if len(out) != 2 {
		t.Fatalf("border-sharing clusters must not merge; got %d", len(out))
	}
}

func TestCombineRule3DropsDuplicates(t *testing.T) {
	p50 := geom.Point{ID: 50, X: 0.15, Y: 0.05}
	a := mkSummary(key(0, 0), map[grid.Coord]bool{{CX: 0, CY: 0}: true},
		[]geom.Point{{ID: 1, X: 0.08, Y: 0.05}}, nil, []geom.Point{p50})
	b := mkSummary(key(1, 0), map[grid.Coord]bool{{CX: 1, CY: 0}: true},
		[]geom.Point{{ID: 51, X: 0.16, Y: 0.05}}, []geom.Point{p50}, nil)
	out := Combine(g, eps, [][]*Summary{{a}, {b}})
	for _, s := range out {
		if s.Key == key(0, 0) {
			cd := cellAt(s, grid.Coord{CX: 1, CY: 0})
			if cd != nil && cd.NShadowNonCore != 0 {
				t.Errorf("duplicate shadow non-core point must be dropped, still have %v", s.ShadowNonCore(cd))
			}
		}
	}
}

func TestCombineTransitive(t *testing.T) {
	// A overlaps B, B overlaps C in different cells: all three fuse.
	p1 := geom.Point{ID: 1, X: 0.05, Y: 0.05}
	p2 := geom.Point{ID: 2, X: 0.15, Y: 0.05}
	a := mkSummary(key(0, 0), nil, []geom.Point{p1}, nil, nil)
	b := mkSummary(key(1, 0), nil, []geom.Point{p1, p2}, nil, nil)
	c := mkSummary(key(2, 0), nil, []geom.Point{p2}, nil, nil)
	out := Combine(g, eps, [][]*Summary{{a}, {b}, {c}})
	if len(out) != 1 {
		t.Fatalf("transitive merge produced %d clusters, want 1", len(out))
	}
	if len(out[0].Members) != 3 {
		t.Errorf("members = %v, want 3 keys", out[0].Members)
	}
}

func TestCombineProgressiveEqualsFlat(t *testing.T) {
	// Merging {A,B} then {AB, C} must equal merging {A,B,C} at once.
	p1 := geom.Point{ID: 1, X: 0.05, Y: 0.05}
	p2 := geom.Point{ID: 2, X: 0.15, Y: 0.05}
	mk := func() (a, b, c *Summary) {
		a = mkSummary(key(0, 0), nil, []geom.Point{p1}, nil, nil)
		b = mkSummary(key(1, 0), nil, []geom.Point{p1, p2}, nil, nil)
		c = mkSummary(key(2, 0), nil, []geom.Point{p2}, nil, nil)
		return
	}
	a1, b1, c1 := mk()
	flat := Combine(g, eps, [][]*Summary{{a1}, {b1}, {c1}})
	a2, b2, c2 := mk()
	lower := Combine(g, eps, [][]*Summary{{a2}, {b2}})
	staged := Combine(g, eps, [][]*Summary{lower, {c2}})
	if len(flat) != len(staged) {
		t.Fatalf("flat %d clusters vs staged %d", len(flat), len(staged))
	}
	fm := AssignGlobalIDs(flat)
	sm := AssignGlobalIDs(staged)
	if len(fm) != len(sm) {
		t.Fatalf("mapping sizes differ: %d vs %d", len(fm), len(sm))
	}
	for k, v := range fm {
		if sm[k] != v {
			t.Errorf("key %+v maps to %d flat, %d staged", k, v, sm[k])
		}
	}
}

func TestCombineRepsStayBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cell := grid.Coord{CX: 0, CY: 0}
	r := g.CellRect(cell)
	var groups [][]*Summary
	for leaf := int32(0); leaf < 10; leaf++ {
		reps := make([]geom.Point, 8)
		for i := range reps {
			reps[i] = geom.Point{
				ID: uint64(leaf)*100 + uint64(i),
				X:  r.MinX + rng.Float64()*r.Width(),
				Y:  r.MinY + rng.Float64()*r.Height(),
			}
		}
		groups = append(groups, []*Summary{mkSummary(key(leaf, 0), nil, reps, nil, nil)})
	}
	out := Combine(g, eps, groups)
	if len(out) != 1 {
		t.Fatalf("all clusters share the cell and are within eps; got %d", len(out))
	}
	cd := cellAt(out[0], cell)
	if cd.NReps > MaxReps {
		t.Errorf("fused cell carries %d reps, max %d", cd.NReps, MaxReps)
	}
}

func TestBuildSummaries(t *testing.T) {
	pts := []geom.Point{
		{ID: 0, X: 0.05, Y: 0.05}, // owned, core, cluster 0
		{ID: 1, X: 0.06, Y: 0.05}, // owned, non-core border, cluster 0
		{ID: 2, X: 0.5, Y: 0.5},   // owned, noise
		{ID: 3, X: 0.15, Y: 0.05}, // shadow, core, cluster 0
		{ID: 4, X: 0.16, Y: 0.05}, // shadow, non-core border, cluster 0
	}
	labels := []int32{0, 0, -1, 0, 0}
	core := []bool{true, false, false, true, false}
	sums, err := BuildSummaries(g, 7, pts, 3, labels, core, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1", len(sums))
	}
	s := sums[0]
	if s.Key != key(7, 0) {
		t.Errorf("Key = %+v", s.Key)
	}
	c00 := cellAt(s, grid.Coord{CX: 0, CY: 0})
	if c00 == nil || !c00.Owned {
		t.Fatalf("cell (0,0) must be present and owned: %+v", c00)
	}
	if reps := s.Reps(c00); len(reps) != 1 || reps[0].ID != 0 {
		t.Errorf("cell (0,0) reps = %v", reps)
	}
	if !hasID(s.OwnedNonCore(c00), 1) {
		t.Error("point 1 must be owned non-core")
	}
	c10 := cellAt(s, grid.Coord{CX: 1, CY: 0})
	if c10 == nil || c10.Owned {
		t.Fatalf("cell (1,0) must be present and shadow: %+v", c10)
	}
	if reps := s.Reps(c10); len(reps) != 1 || reps[0].ID != 3 {
		t.Errorf("cell (1,0) reps = %v", reps)
	}
	if !hasID(s.ShadowNonCore(c10), 4) {
		t.Error("point 4 must be shadow non-core")
	}
	if got, want := s.WireSize(), int64(len(AppendSummaries(nil, sums))-BlockHeaderSize); got != want {
		t.Errorf("WireSize = %d, encoded size %d", got, want)
	}
}

func TestBuildSummariesValidation(t *testing.T) {
	pts := []geom.Point{{ID: 0}}
	if _, err := BuildSummaries(g, 0, pts, 0, []int32{0, 0}, []bool{true}, 1); err == nil {
		t.Error("mismatched labels length must fail")
	}
	if _, err := BuildSummaries(g, 0, pts, 5, []int32{0}, []bool{true}, 1); err == nil {
		t.Error("out-of-range ownedCount must fail")
	}
	if _, err := BuildSummaries(g, 0, pts, 1, []int32{3}, []bool{true}, 1); err == nil {
		t.Error("out-of-range label must fail")
	}
}

func TestAssignGlobalIDs(t *testing.T) {
	a := &Summary{Key: key(0, 0), Members: []ClusterKey{key(0, 0), key(1, 2)}}
	b := &Summary{Key: key(0, 1), Members: []ClusterKey{key(0, 1)}}
	m := AssignGlobalIDs([]*Summary{b, a})
	if m[key(0, 0)] != m[key(1, 2)] {
		t.Error("members of one cluster must share a global ID")
	}
	if m[key(0, 0)] == m[key(0, 1)] {
		t.Error("distinct clusters must get distinct IDs")
	}
	if m[key(0, 0)] != 0 || m[key(0, 1)] != 1 {
		t.Errorf("IDs must be dense in key order: %v", m)
	}
}

// TestGlobalByLeaf: the tables hold the mapping's entries at their local
// IDs and -1 in the gaps; a leaf without entries gets an empty table; keys
// that name no leaf, a negative local ID, or one no slice can index are
// skipped rather than sized from.
func TestGlobalByLeaf(t *testing.T) {
	mapping := map[ClusterKey]int32{
		{Leaf: 0, Local: 0}: 5, {Leaf: 0, Local: 3}: 0,
		{Leaf: 2, Local: 1}:  7,
		{Leaf: -1, Local: 0}: 9, {Leaf: 3, Local: 0}: 9, {Leaf: 1, Local: -2}: 9, {Leaf: 1, Local: math.MaxInt32}: 9,
	}
	got := GlobalByLeaf(mapping, 3)
	want := [][]int32{{5, -1, -1, 0}, {}, {-1, 7}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GlobalByLeaf = %v, want %v", got, want)
	}
}

// TestBorderClaims: every shadow-view non-core point of a mapped summary
// is claimed for its global ID, the smallest on conflict; owner-view
// non-core points and unmapped summaries claim nothing.
func TestBorderClaims(t *testing.T) {
	core := []geom.Point{{ID: 1, X: 0.05, Y: 0.05}}
	a := mkSummary(key(0, 0), nil, core, []geom.Point{{ID: 10, X: 0.06, Y: 0.05}}, []geom.Point{{ID: 20, X: 0.07, Y: 0.05}, {ID: 21, X: 0.15, Y: 0.05}})
	b := mkSummary(key(1, 0), nil, core, nil, []geom.Point{{ID: 21, X: 0.15, Y: 0.05}, {ID: 22, X: 0.16, Y: 0.05}})
	lost := mkSummary(key(2, 0), nil, core, nil, []geom.Point{{ID: 23, X: 0.17, Y: 0.05}})
	mapping := map[ClusterKey]int32{key(0, 0): 4, key(1, 0): 3}
	got := BorderClaims([]*Summary{a, b, lost}, mapping)
	want := map[uint64]int32{20: 4, 21: 3, 22: 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BorderClaims = %v, want %v", got, want)
	}
	if got := BorderClaims([]*Summary{mkSummary(key(0, 0), nil, core, nil, nil)}, mapping); len(got) != 0 {
		t.Errorf("no shadow-view non-core point: claims %v, want none", got)
	}
}

// TestSweepLabel: a local cluster takes its table's global ID whatever
// the claims say, a claimed noise point takes its claim, other noise
// stays -1, and a local cluster the table does not map is not ok.
func TestSweepLabel(t *testing.T) {
	table := []int32{5, -1, 2}
	claims := map[uint64]int32{7: 9, 8: 1}
	for _, tc := range []struct {
		name   string
		local  int32
		id     uint64
		claims map[uint64]int32
		gid    int32
		ok     bool
	}{
		{"cluster", 0, 1, claims, 5, true},
		{"claimed cluster keeps its own ID", 2, 8, claims, 2, true},
		{"claimed noise", -1, 7, claims, 9, true},
		{"unclaimed noise", -1, 3, claims, -1, true},
		{"noise, no claims", -1, 7, nil, -1, true},
		{"gap in the table", 1, 1, claims, -1, false},
		{"past the table", 3, 1, claims, -1, false},
	} {
		if gid, ok := SweepLabel(table, tc.local, tc.id, tc.claims); gid != tc.gid || ok != tc.ok {
			t.Errorf("%s: SweepLabel = %d, %t, want %d, %t", tc.name, gid, ok, tc.gid, tc.ok)
		}
	}
}
