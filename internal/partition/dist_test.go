package partition

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lustre"
	"repro/internal/mrnet"
	"repro/internal/ptio"
)

// writeInput stores a dataset file on the simulated file system.
func writeInput(t *testing.T, fs *lustre.FS, name string, pts []geom.Point, hasWeight bool) {
	t.Helper()
	h := fs.Create(name)
	if err := ptio.WriteDataset(h, pts, hasWeight); err != nil {
		t.Fatal(err)
	}
}

func distEnv(t *testing.T, partLeaves int) (*mrnet.Network, *lustre.FS) {
	t.Helper()
	fs := lustre.New(lustre.Titan(), nil)
	net, err := mrnet.New(partLeaves, mrnet.DefaultFanout, mrnet.CostModel{}, fs.Clock())
	if err != nil {
		t.Fatal(err)
	}
	return net, fs
}

func TestDistributeRoundTrip(t *testing.T) {
	pts := dataset.Twitter(12000, 1)
	for i := range pts {
		pts[i].Weight = 0 // the file is written without the weight field
	}
	net, fs := distEnv(t, 4)
	writeInput(t, fs, "in.mrsc", pts, false)

	res, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", DistOptions{
		NumPartitions: 8,
		MinPts:        4,
		Rebalance:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPoints != int64(len(pts)) {
		t.Errorf("TotalPoints = %d, want %d", res.TotalPoints, len(pts))
	}
	if res.WrittenPoints <= res.TotalPoints {
		t.Errorf("WrittenPoints = %d must exceed input %d (shadow duplication)",
			res.WrittenPoints, res.TotalPoints)
	}
	if len(res.Meta.Partitions) != 8 {
		t.Fatalf("meta holds %d partitions, want 8", len(res.Meta.Partitions))
	}

	// Re-read every partition and compare against an in-memory split of
	// the same plan: identical point sets (order within a partition may
	// differ by contributing leaf, so compare as ID sets).
	split, err := Split(res.Plan, pts, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := ReadMeta(fs, "parts.json")
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 8; j++ {
		gotPart, gotShadow, err := ReadPartition(fs, "parts.bin", meta, j)
		if err != nil {
			t.Fatal(err)
		}
		compareIDSets(t, "partition", j, gotPart, split.Partitions[j])
		compareIDSets(t, "shadow", j, gotShadow, split.Shadows[j])
	}
}

func compareIDSets(t *testing.T, what string, j int, got, want []geom.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s %d: %d points, want %d", what, j, len(got), len(want))
	}
	wantSet := make(map[uint64]geom.Point, len(want))
	for _, p := range want {
		wantSet[p.ID] = p
	}
	for _, p := range got {
		w, ok := wantSet[p.ID]
		if !ok {
			t.Fatalf("%s %d: unexpected point %d", what, j, p.ID)
		}
		if p != w {
			t.Fatalf("%s %d: point %d = %+v, want %+v", what, j, p.ID, p, w)
		}
	}
}

func TestDistributeManyLeaves(t *testing.T) {
	// More partitioner leaves than the data strictly needs; every leaf
	// contributes small runs to nearly every partition (the small-write
	// behaviour).
	pts := dataset.Twitter(20000, 2)
	net, fs := distEnv(t, 16)
	writeInput(t, fs, "in.mrsc", pts, false)
	res, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", DistOptions{
		NumPartitions: 32,
		MinPts:        40,
		Rebalance:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Coverage: union of all partitions == input.
	var count int64
	for _, e := range res.Meta.Partitions {
		count += e.Count
	}
	if count != int64(len(pts)) {
		t.Errorf("partitions hold %d points total, want %d", count, len(pts))
	}
	// The simulated clock must show substantial seek cost: every leaf
	// writes to nearly every partition region.
	if seeks := fs.Stats().Seeks; seeks < 100 {
		t.Errorf("Seeks = %d; expected many small random writes", seeks)
	}
}

func TestDistributeShadowReps(t *testing.T) {
	pts := dataset.Twitter(20000, 3)
	netA, fsA := distEnv(t, 4)
	writeInput(t, fsA, "in.mrsc", pts, false)
	full, err := Distribute(context.Background(), netA, fsA, eps, "in.mrsc", "parts.bin", "parts.json", DistOptions{
		NumPartitions: 8, MinPts: 4, Rebalance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	netB, fsB := distEnv(t, 4)
	writeInput(t, fsB, "in.mrsc", pts, false)
	reps, err := Distribute(context.Background(), netB, fsB, eps, "in.mrsc", "parts.bin", "parts.json", DistOptions{
		NumPartitions: 8, MinPts: 4, Rebalance: true, ShadowReps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reps.WrittenPoints >= full.WrittenPoints {
		t.Errorf("shadow reps wrote %d points, full shadow wrote %d — reduction expected",
			reps.WrittenPoints, full.WrittenPoints)
	}
	if fsB.Stats().BytesWritten >= fsA.Stats().BytesWritten {
		t.Error("shadow reps must reduce bytes written to Lustre")
	}
}

func TestDistributeWithWeights(t *testing.T) {
	pts := dataset.Twitter(3000, 4)
	for i := range pts {
		pts[i].Weight = float64(i) * 0.5
	}
	net, fs := distEnv(t, 2)
	writeInput(t, fs, "in.mrsc", pts, true)
	res, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", DistOptions{
		NumPartitions: 4, MinPts: 4, Rebalance: true, HasWeight: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, _, err := ReadPartition(fs, "parts.bin", res.Meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) == 0 {
		t.Fatal("partition 0 empty")
	}
	for _, p := range part {
		if p.Weight != float64(p.ID)*0.5 {
			t.Fatalf("point %d weight = %v, want %v", p.ID, p.Weight, float64(p.ID)*0.5)
		}
	}
}

func TestDistributeErrors(t *testing.T) {
	net, fs := distEnv(t, 2)
	if _, err := Distribute(context.Background(), net, fs, eps, "missing.mrsc", "o", "m", DistOptions{NumPartitions: 2, MinPts: 4}); err == nil {
		t.Error("missing input must fail")
	}
	writeInput(t, fs, "in.mrsc", dataset.Twitter(100, 5), false)
	if _, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "o", "m", DistOptions{NumPartitions: 0, MinPts: 4}); err == nil {
		t.Error("zero partitions must fail")
	}
	if _, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "o", "m", DistOptions{NumPartitions: 2, MinPts: 0}); err == nil {
		t.Error("zero MinPts must fail")
	}
}

func TestReadPartitionErrors(t *testing.T) {
	fs := lustre.New(lustre.Titan(), nil)
	meta := &ptio.PartitionMeta{Partitions: []ptio.PartitionEntry{{}}}
	if _, _, err := ReadPartition(fs, "missing", meta, 0); err == nil {
		t.Error("missing file must fail")
	}
	fs.Create("f")
	if _, _, err := ReadPartition(fs, "f", meta, 5); err == nil {
		t.Error("out-of-range index must fail")
	}
}

func TestDistributeSingleLeafSinglePartition(t *testing.T) {
	pts := dataset.Twitter(500, 6)
	net, fs := distEnv(t, 1)
	writeInput(t, fs, "in.mrsc", pts, false)
	res, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", DistOptions{
		NumPartitions: 1, MinPts: 4, Rebalance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	part, shadow, err := ReadPartition(fs, "parts.bin", res.Meta, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != len(pts) {
		t.Errorf("partition holds %d points, want %d", len(part), len(pts))
	}
	if len(shadow) != 0 {
		t.Errorf("single partition must have no shadow, got %d", len(shadow))
	}
}

// TestHistogramOnlyProtocol checks the §3.1.3 property that drives the
// design: the reduction to the root carries cell counts, not points.
func TestHistogramOnlyProtocol(t *testing.T) {
	pts := dataset.Twitter(50000, 7)
	fs := lustre.New(lustre.Titan(), nil)
	net, err := mrnet.New(4, mrnet.DefaultFanout, mrnet.CostModel{HopLatency: 1}, fs.Clock())
	if err != nil {
		t.Fatal(err)
	}
	writeInput(t, fs, "in.mrsc", pts, false)
	if _, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", DistOptions{
		NumPartitions: 8, MinPts: 4, Rebalance: true,
	}); err != nil {
		t.Fatal(err)
	}
	g := grid.New(eps)
	cells := int64(g.HistogramOf(pts).Len())
	// Overlay bytes: histogram (≈12 B/cell) + counts + offsets, but never
	// the point data (24 B/point).
	overlay := net.Stats().Bytes
	if overlay >= int64(len(pts))*24 {
		t.Errorf("overlay carried %d bytes — point data must stay at the leaves (histogram is ~%d B)",
			overlay, cells*12)
	}
}
