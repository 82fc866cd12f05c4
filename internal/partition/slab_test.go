package partition

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/ptio"
)

// checkSlab compares ReadPartitionSlab (and the ReadPartition wrapper over
// it) with the reference reader on one partition.
func checkSlab(t *testing.T, fs *lustre.FS, meta *ptio.PartitionMeta, j int) {
	t.Helper()
	wantOwned, wantShadow, err := refReadPartition(fs, "parts.bin", meta, j)
	if err != nil {
		t.Fatal(err)
	}
	slab, owned, err := ReadPartitionSlab(fs, "parts.bin", meta, j)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]geom.Point{}, wantOwned...), wantShadow...)
	if owned != len(wantOwned) || !reflect.DeepEqual(append([]geom.Point{}, slab...), want) {
		t.Errorf("partition %d: slab holds %d points (%d owned), reference %d (%d owned), or the points differ",
			j, len(slab), owned, len(want), len(wantOwned))
	}
	if e := meta.Partitions[j]; cap(slab) != int(e.Count+e.ShadowCount) {
		t.Errorf("partition %d: slab capacity %d, want one allocation of %d", j, cap(slab), e.Count+e.ShadowCount)
	}
	gotOwned, gotShadow, err := ReadPartition(fs, "parts.bin", meta, j)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotOwned) != len(wantOwned) || len(gotShadow) != len(wantShadow) ||
		!reflect.DeepEqual(append(append([]geom.Point{}, gotOwned...), gotShadow...), want) {
		t.Errorf("partition %d: ReadPartition differs from the reference", j)
	}
	if cap(gotOwned) != len(gotOwned) {
		t.Errorf("partition %d: owned has cap %d > len %d: an append would overwrite the shadow", j, cap(gotOwned), len(gotOwned))
	}
}

// TestReadPartitionSlabMatchesReference: every partition (weights on and
// off, representative shadows, hot-cell tiles, one or many partitioner
// leaves writing the file) reads back point for point what the two-slice
// reader this package used to ship returns.
func TestReadPartitionSlabMatchesReference(t *testing.T) {
	pts := dataset.Twitter(12000, 3)
	for i := range pts {
		pts[i].Weight = float64(i%7) + 0.5
	}
	for _, tc := range []struct {
		opt    DistOptions
		leaves int
	}{
		{DistOptions{NumPartitions: 8, MinPts: 4, Rebalance: true}, 4},
		{DistOptions{NumPartitions: 8, MinPts: 4, Rebalance: true, HasWeight: true}, 4},
		{DistOptions{NumPartitions: 1, MinPts: 4}, 4}, // one partition: no shadow at all
		{DistOptions{NumPartitions: 8, MinPts: 4, Rebalance: true, ShadowReps: true}, 4},
		{DistOptions{NumPartitions: 8, MinPts: 4, Rebalance: true, HasWeight: true, SplitThreshold: 100}, 4}, // 7 hot cells split
		{DistOptions{NumPartitions: 8, MinPts: 4, Rebalance: true}, 1},                                       // one writer
	} {
		opt := tc.opt
		name := fmt.Sprintf("weight=%t,parts=%d", opt.HasWeight, opt.NumPartitions)
		if opt.ShadowReps {
			name += ",shadowreps"
		}
		if opt.SplitThreshold > 0 {
			name += fmt.Sprintf(",split=%d", opt.SplitThreshold)
		}
		if tc.leaves != 4 {
			name += fmt.Sprintf(",leaves=%d", tc.leaves)
		}
		t.Run(name, func(t *testing.T) {
			res, fs := distributeEnv(t, pts, tc.leaves, opt)
			meta, err := ReadMeta(fs, "parts.json") // what a resume reads
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(meta, res.Meta) {
				t.Fatal("metadata changed across its JSON round trip")
			}
			for j := range meta.Partitions {
				checkSlab(t, fs, meta, j)
			}
		})
	}
}

// An empty partition, and one with owned points but no shadow: nothing
// to read is not an error and issues no read.
func TestReadPartitionSlabEmpty(t *testing.T) {
	fs := lustre.New(lustre.Titan(), nil)
	pts := dataset.Twitter(10, 1)
	if _, err := fs.Create("parts.bin").WriteAt(ptio.EncodeRecords(pts, false), 0); err != nil {
		t.Fatal(err)
	}
	meta := &ptio.PartitionMeta{Partitions: []ptio.PartitionEntry{
		{Offset: 0, Count: 0, ShadowOffset: 0, ShadowCount: 0},
		{Offset: 0, Count: 10, ShadowOffset: 240, ShadowCount: 0},
	}}
	before := fs.Stats().ReadOps
	slab, owned, err := ReadPartitionSlab(fs, "parts.bin", meta, 0)
	if err != nil || len(slab) != 0 || owned != 0 {
		t.Errorf("empty partition read as %d points, %d owned, err %v", len(slab), owned, err)
	}
	if got := fs.Stats().ReadOps - before; got != 0 {
		t.Errorf("empty partition cost %d reads", got)
	}
	checkSlab(t, fs, meta, 0)
	checkSlab(t, fs, meta, 1)
}

// Metadata is a JSON document someone else wrote: counts that cannot be
// sizes and a region the file does not hold are errors.
func TestReadPartitionSlabRejectsBadMetadata(t *testing.T) {
	fs := lustre.New(lustre.Titan(), nil)
	fs.Create("parts.bin")
	for name, meta := range map[string]*ptio.PartitionMeta{
		"negative count":  {Partitions: []ptio.PartitionEntry{{Count: -1}}},
		"negative shadow": {Partitions: []ptio.PartitionEntry{{Count: 1, ShadowCount: -2}}},
		"past the file":   {Partitions: []ptio.PartitionEntry{{Count: 5}}},
	} {
		if _, _, err := ReadPartitionSlab(fs, "parts.bin", meta, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
