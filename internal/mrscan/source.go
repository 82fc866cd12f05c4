package mrscan

import (
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/partition"
)

// partitionSource hands the cluster phase its input, however the
// partition phase delivered it: the partition snapshot says whether the
// points sit in the partition file its Meta locates or came over the
// overlay (Direct).
type partitionSource struct {
	*partitionCkpt
	fs *lustre.FS
}

// load returns partition j as the cluster phase consumes it: one slab
// holding its owned points then its shadow points, and the owned count.
// File mode decodes the slab from the partition file; Direct mode, whose
// two halves arrived separately, joins them with one copy.
func (s *partitionSource) load(j int) (slab []geom.Point, owned int, err error) {
	if s.Direct {
		slab = make([]geom.Point, 0, len(s.Partitions[j])+len(s.Shadows[j]))
		slab = append(append(slab, s.Partitions[j]...), s.Shadows[j]...)
		return slab, len(s.Partitions[j]), nil
	}
	return partition.ReadPartitionSlab(s.fs, partitionFile, s.Meta, j)
}

// size reports j's total point count (owned + shadow) without loading
// it — the cluster scheduler's largest-first key.
func (s *partitionSource) size(j int) int64 {
	if s.Direct {
		return int64(len(s.Partitions[j]) + len(s.Shadows[j]))
	}
	e := s.Meta.Partitions[j]
	return e.Count + e.ShadowCount
}
