package partition

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lustre"
	"repro/internal/ptio"
)

// The map-based planner and Split this package shipped until the sorted
// unit table replaced them, kept verbatim as the reference the
// differential tests compare against. It rebuilds a partition's shadow
// from every unit it owns, after every move.

type refPlan struct {
	Grid      grid.Grid
	Specs     []*Spec
	UnitOwner map[Unit]int
	MinPts    int
	hist      *UnitHistogram
}

func refCellUnits(uh *UnitHistogram, c grid.Coord) []Unit {
	d := uh.Depth[c]
	if d == 0 {
		if n := uh.Counts[CellUnit(c)]; n > 0 {
			return []Unit{CellUnit(c)}
		}
		return nil
	}
	var out []Unit
	tiles := 1 << (2 * d)
	for path := 0; path < tiles; path++ {
		u := Unit{Cell: c, Depth: d, Path: uint16(path)}
		if uh.Counts[u] > 0 {
			out = append(out, u)
		}
	}
	return out
}

func refMakePlanUnits(g grid.Grid, uh *UnitHistogram, opt PlanOptions) *refPlan {
	units := make([]Unit, 0, len(uh.Counts))
	for u, n := range uh.Counts {
		if n > 0 {
			units = append(units, u)
		}
	}
	sort.Slice(units, func(a, b int) bool { return units[a].Less(units[b]) })
	total := uh.Total()
	nParts := opt.NumPartitions
	p := &refPlan{
		Grid:      g,
		UnitOwner: make(map[Unit]int, len(units)),
		MinPts:    opt.MinPts,
		hist:      uh,
	}
	target := float64(total) / float64(nParts)
	runningDiff := 0.0
	effTarget := clampTarget(target, runningDiff, int64(opt.MinPts))
	cur := &Spec{}
	for _, u := range units {
		n := uh.Counts[u]
		wouldExceed := float64(cur.PointCount+n) > effTarget
		canClose := len(cur.Units) > 0 &&
			cur.PointCount >= int64(opt.MinPts) &&
			len(p.Specs) < nParts-1
		if wouldExceed && canClose {
			runningDiff += float64(cur.PointCount) - target
			p.Specs = append(p.Specs, cur)
			cur = &Spec{}
			effTarget = clampTarget(target, runningDiff, int64(opt.MinPts))
		}
		cur.Units = append(cur.Units, u)
		cur.PointCount += n
	}
	if len(cur.Units) > 0 || len(p.Specs) == 0 {
		p.Specs = append(p.Specs, cur)
	}
	for len(p.Specs) < nParts {
		p.Specs = append(p.Specs, &Spec{})
	}
	for i, s := range p.Specs {
		for _, u := range s.Units {
			p.UnitOwner[u] = i
		}
	}
	for i := range p.Specs {
		p.recomputeShadow(i)
	}
	if opt.Rebalance {
		p.rebalance()
	}
	return p
}

func (p *refPlan) recomputeShadow(i int) {
	s := p.Specs[i]
	set := make(map[Unit]bool)
	cells := make(map[grid.Coord]bool)
	for _, u := range s.Units {
		cells[u.Cell] = true
		for _, nb := range u.Cell.Neighbors() {
			cells[nb] = true
		}
	}
	for c := range cells {
		for _, v := range refCellUnits(p.hist, c) {
			if owner, ok := p.UnitOwner[v]; ok && owner == i {
				continue
			}
			set[v] = true
		}
	}
	s.Shadow = s.Shadow[:0]
	s.ShadowCount = 0
	for u := range set {
		s.Shadow = append(s.Shadow, u)
		s.ShadowCount += p.hist.Counts[u]
	}
	sort.Slice(s.Shadow, func(a, b int) bool { return s.Shadow[a].Less(s.Shadow[b]) })
}

func (p *refPlan) rebalance() {
	var sum int64
	for _, s := range p.Specs {
		sum += s.Total()
	}
	finalTarget := float64(sum) / float64(len(p.Specs))
	threshold := RebalanceThreshold * finalTarget

	for i := len(p.Specs) - 1; i >= 1; i-- {
		s := p.Specs[i]
		prev := p.Specs[i-1]
		for float64(s.Total()) > threshold && len(s.Units) > 1 {
			head := s.Units[0]
			headCount := p.hist.Counts[head]
			if s.PointCount-headCount < int64(p.MinPts) {
				break
			}
			s.Units = s.Units[1:]
			s.PointCount -= headCount
			prev.Units = append(prev.Units, head)
			prev.PointCount += headCount
			p.UnitOwner[head] = i - 1
			p.recomputeShadow(i)
			p.recomputeShadow(i - 1)
		}
	}
}

func refSplit(plan *refPlan, pts []geom.Point, opt SplitOptions) *SplitResult {
	res := &SplitResult{
		Partitions: make([][]geom.Point, len(plan.Specs)),
		Shadows:    make([][]geom.Point, len(plan.Specs)),
	}
	shadowOf := make(map[Unit][]int)
	for i, s := range plan.Specs {
		for _, u := range s.Shadow {
			shadowOf[u] = append(shadowOf[u], i)
		}
	}
	type shadowKey struct {
		part int
		unit Unit
	}
	shadowGroups := make(map[shadowKey][]geom.Point)
	for _, p := range pts {
		u := UnitOf(plan.Grid, p, plan.hist.Depth[plan.Grid.CellOf(p)])
		owner := plan.UnitOwner[u]
		res.Partitions[owner] = append(res.Partitions[owner], p)
		for _, sp := range shadowOf[u] {
			shadowGroups[shadowKey{sp, u}] = append(shadowGroups[shadowKey{sp, u}], p)
		}
	}
	keys := make([]shadowKey, 0, len(shadowGroups))
	for k := range shadowGroups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].part != keys[b].part {
			return keys[a].part < keys[b].part
		}
		return keys[a].unit.Less(keys[b].unit)
	})
	for _, k := range keys {
		unitPts := shadowGroups[k]
		if opt.ShadowReps {
			unitPts = ShadowRepsRect(k.unit.Rect(plan.Grid), unitPts)
		}
		res.Shadows[k.part] = append(res.Shadows[k.part], unitPts...)
	}
	return res
}

// ReadPartition as this package shipped it until ReadPartitionSlab: a
// staging buffer per read, a decoded slice per run, owned and shadow in
// two allocations. Kept verbatim as the differential oracle for the slab
// reader.

func refReadPartition(fs *lustre.FS, file string, meta *ptio.PartitionMeta, j int) (points, shadow []geom.Point, err error) {
	if j < 0 || j >= len(meta.Partitions) {
		return nil, nil, fmt.Errorf("partition: index %d out of range (%d partitions)", j, len(meta.Partitions))
	}
	h, err := fs.Open(file)
	if err != nil {
		return nil, nil, err
	}
	rs := int64(ptio.RecordSize(meta.HasWeight))
	e := meta.Partitions[j]
	read := func(off, count int64) ([]geom.Point, error) {
		if count == 0 {
			return nil, nil
		}
		buf := make([]byte, count*rs)
		if _, err := h.ReadAt(buf, off); err != nil {
			return nil, fmt.Errorf("partition: reading %d records at %d: %w", count, off, err)
		}
		return ptio.DecodeRecords(buf, meta.HasWeight)
	}
	if points, err = read(e.Offset, e.Count); err != nil {
		return nil, nil, err
	}
	if shadow, err = read(e.ShadowOffset, e.ShadowCount); err != nil {
		return nil, nil, err
	}
	return points, shadow, nil
}
