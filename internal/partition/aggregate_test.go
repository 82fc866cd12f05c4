package partition

import (
	"bytes"
	"context"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrnet"
	"repro/internal/ptio"
)

// rawFile stores raw bytes as a file on the simulated file system.
func rawFile(t *testing.T, fs *lustre.FS, name string, data []byte) {
	t.Helper()
	h := fs.Create(name)
	if len(data) > 0 {
		if _, err := h.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// datasetBytes renders pts as a complete MRSC file in memory.
func datasetBytes(t *testing.T, pts []geom.Point, hasWeight bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ptio.WriteDataset(&buf, pts, hasWeight); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallOpts() DistOptions {
	return DistOptions{NumPartitions: 2, MinPts: 1}
}

// distributeBoth runs the named input through both partitioners and
// asserts each rejects it with an error containing want.
func distributeBoth(t *testing.T, fs *lustre.FS, net *mrnet.Network, input, want string, opt DistOptions) {
	t.Helper()
	if _, err := Distribute(context.Background(), net, fs, eps, input, "parts.bin", "parts.json", opt); err == nil {
		t.Errorf("%s: Distribute accepted, want error containing %q", input, want)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: Distribute error %q does not contain %q", input, err, want)
	}
	if _, err := DistributeDirect(context.Background(), net, fs, eps, input, opt); err == nil {
		t.Errorf("%s: DistributeDirect accepted, want error containing %q", input, want)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: DistributeDirect error %q does not contain %q", input, err, want)
	}
}

// Regression: the old guard `total < 0` could never fire (truncated
// division of a 0–15-byte size yields 0, not negative), so sub-header
// files fell through and read garbage. They must be rejected loudly.
func TestDistributeRejectsShortInput(t *testing.T) {
	net, fs := distEnv(t, 2)
	rawFile(t, fs, "empty.mrsc", nil)
	rawFile(t, fs, "one.mrsc", []byte{'M'})
	rawFile(t, fs, "fifteen.mrsc", datasetBytes(t, nil, false)[:15])
	for _, name := range []string{"empty.mrsc", "one.mrsc", "fifteen.mrsc"} {
		distributeBoth(t, fs, net, name, "too short", smallOpts())
	}
}

// Regression: a file whose payload is not a whole number of records used
// to have its trailing bytes silently dropped by the shard arithmetic.
func TestDistributeRejectsTornTail(t *testing.T) {
	net, fs := distEnv(t, 2)
	full := datasetBytes(t, dataset.Twitter(50, 2), false)
	rawFile(t, fs, "torn.mrsc", full[:len(full)-7])
	distributeBoth(t, fs, net, "torn.mrsc", "is torn", smallOpts())
}

// A payload that is whole records but disagrees with the header's
// declared count is also corrupt — truncation at a record boundary.
func TestDistributeRejectsCountMismatch(t *testing.T) {
	net, fs := distEnv(t, 2)
	full := datasetBytes(t, dataset.Twitter(50, 2), false)
	rawFile(t, fs, "truncated.mrsc", full[:len(full)-ptio.RecordSize(false)])
	distributeBoth(t, fs, net, "truncated.mrsc", "header declares", smallOpts())
}

// Regression: opt.HasWeight used to be trusted over the header's
// FlagWeight bit, misparsing every record when they disagreed (24-byte
// records read on 32-byte strides and vice versa).
func TestDistributeRejectsWeightMismatch(t *testing.T) {
	net, fs := distEnv(t, 2)
	pts := dataset.Twitter(50, 2)
	writeInput(t, fs, "weighted.mrsc", pts, true)
	writeInput(t, fs, "plain.mrsc", pts, false)

	opt := smallOpts()
	distributeBoth(t, fs, net, "weighted.mrsc", "refusing to misparse", opt)
	opt.HasWeight = true
	distributeBoth(t, fs, net, "plain.mrsc", "refusing to misparse", opt)
}

// aggEnv runs Distribute over the same input on a fresh environment,
// with or without write aggregation, and returns the result plus its FS.
func aggEnv(t *testing.T, pts []geom.Point, leaves int, opt DistOptions) (*DistResult, *lustre.FS) {
	t.Helper()
	net, fs := distEnv(t, leaves)
	writeInput(t, fs, "in.mrsc", pts, opt.HasWeight)
	res, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, fs
}

// TestAggregatedMatchesLegacyByteIdentical: ReadPartition over the
// log-structured layout must return exactly the slices the legacy layout
// returns — same points, same order — for every partition. The metadata
// must survive its JSON round trip with the segment index intact.
func TestAggregatedMatchesLegacyByteIdentical(t *testing.T) {
	pts := dataset.Twitter(12000, 3)
	opt := DistOptions{NumPartitions: 8, MinPts: 4, Rebalance: true}
	legacy, legacyFS := aggEnv(t, pts, 4, opt)

	opt.Aggregate = true
	agg, aggFS := aggEnv(t, pts, 4, opt)

	if len(agg.Meta.Segments) == 0 {
		t.Fatal("aggregated run produced no segment index")
	}
	if len(legacy.Meta.Segments) != 0 {
		t.Fatal("legacy run produced a segment index")
	}
	// The JSON round trip is what a resume actually reads.
	aggMeta, err := ReadMeta(aggFS, "parts.json")
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < opt.NumPartitions; j++ {
		if e := aggMeta.Partitions[j]; e.Offset != -1 || e.ShadowOffset != -1 {
			t.Errorf("partition %d: aggregated entry offsets = (%d, %d), want -1 poison values",
				j, e.Offset, e.ShadowOffset)
		}
		wantOwned, wantShadow, err := ReadPartition(legacyFS, "parts.bin", legacy.Meta, j)
		if err != nil {
			t.Fatal(err)
		}
		gotOwned, gotShadow, err := ReadPartition(aggFS, "parts.bin", aggMeta, j)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotOwned, wantOwned) {
			t.Errorf("partition %d: owned points differ between layouts", j)
		}
		if !reflect.DeepEqual(gotShadow, wantShadow) {
			t.Errorf("partition %d: shadow points differ between layouts", j)
		}
	}
}

// TestSegmentRunsTileShards is the layout safety property: within every
// segment shard the indexed runs are disjoint — in fact they tile the
// file exactly, no overlaps and no gaps from offset 0 to the file's end.
func TestSegmentRunsTileShards(t *testing.T) {
	opt := DistOptions{NumPartitions: 8, MinPts: 4, Aggregate: true, SegmentShards: 3}
	res, fs := aggEnv(t, dataset.Twitter(9000, 11), 5, opt)

	if got := len(res.Meta.Segments); got != 3 {
		t.Fatalf("%d segment shards, want the 3 requested", got)
	}
	rs := int64(ptio.RecordSize(res.Meta.HasWeight))
	var indexed int64
	for _, seg := range res.Meta.Segments {
		runs := append([]ptio.SegmentRun(nil), seg.Runs...)
		sort.Slice(runs, func(a, b int) bool { return runs[a].Offset < runs[b].Offset })
		var cursor int64
		for _, r := range runs {
			if r.Count <= 0 {
				t.Fatalf("%s: empty run indexed: %+v", seg.File, r)
			}
			if r.Offset != cursor {
				t.Fatalf("%s: run at offset %d, want %d (runs must tile without gaps or overlaps)",
					seg.File, r.Offset, cursor)
			}
			cursor += r.Count * rs
			indexed += r.Count
		}
		h, err := fs.Open(seg.File)
		if err != nil {
			t.Fatal(err)
		}
		if h.Size() != cursor {
			t.Fatalf("%s: runs cover %d bytes, file holds %d", seg.File, cursor, h.Size())
		}
	}
	var want int64
	for _, e := range res.Meta.Partitions {
		want += e.Count + e.ShadowCount
	}
	if indexed != want {
		t.Fatalf("segment index holds %d records, partition entries say %d", indexed, want)
	}
}

// TestAggregateCutsWriteCost is the tentpole's acceptance criterion: at 8
// partitioner leaves the aggregated writer must cut the write stage's
// simulated Lustre cost by at least 30%, and the write-seek count by far
// more (O(leaves×partitions) random writes → O(leaves) sequential runs).
func TestAggregateCutsWriteCost(t *testing.T) {
	pts := dataset.Twitter(20000, 5)
	opt := DistOptions{NumPartitions: 8, MinPts: 4}
	legacy, legacyFS := aggEnv(t, pts, 8, opt)

	opt.Aggregate = true
	agg, aggFS := aggEnv(t, pts, 8, opt)

	if legacy.WriteSim <= 0 || agg.WriteSim <= 0 {
		t.Fatalf("write sims must be positive: legacy=%v aggregated=%v", legacy.WriteSim, agg.WriteSim)
	}
	if agg.WriteSim > legacy.WriteSim*7/10 {
		t.Errorf("aggregated WriteSim %v is not ≤ 70%% of legacy %v", agg.WriteSim, legacy.WriteSim)
	}
	ls, as := legacyFS.Stats().WriteSeeks, aggFS.Stats().WriteSeeks
	if as >= ls/4 {
		t.Errorf("aggregated write seeks = %d, legacy = %d; want far fewer", as, ls)
	}
}

// TestDurabilityCallbacks: OnLayout fires once before any data lands;
// OnPartitionDurable fires exactly once per partition, and by the time it
// does, that partition is fully readable through the segment index.
func TestDurabilityCallbacks(t *testing.T) {
	const parts = 6
	net, fs := distEnv(t, 4)
	writeInput(t, fs, "in.mrsc", dataset.Twitter(8000, 23), false)

	var mu sync.Mutex
	var layoutMeta *ptio.PartitionMeta
	durableCount := make(map[int]int)
	opt := DistOptions{
		NumPartitions: parts,
		MinPts:        4,
		Aggregate:     true,
		OnLayout: func(m *ptio.PartitionMeta) {
			mu.Lock()
			defer mu.Unlock()
			if layoutMeta != nil {
				t.Error("OnLayout fired twice")
			}
			if len(durableCount) != 0 {
				t.Error("OnPartitionDurable fired before OnLayout")
			}
			layoutMeta = m
		},
	}
	opt.OnPartitionDurable = func(j int) {
		mu.Lock()
		meta := layoutMeta
		durableCount[j]++
		mu.Unlock()
		if meta == nil {
			t.Errorf("partition %d durable before the layout was announced", j)
			return
		}
		owned, shadow, err := ReadPartition(fs, "parts.bin", meta, j)
		if err != nil {
			t.Errorf("partition %d unreadable at durability signal: %v", j, err)
			return
		}
		e := meta.Partitions[j]
		if int64(len(owned)) != e.Count || int64(len(shadow)) != e.ShadowCount {
			t.Errorf("partition %d at durability signal: %d+%d points, metadata says %d+%d",
				j, len(owned), len(shadow), e.Count, e.ShadowCount)
		}
	}
	res, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", opt)
	if err != nil {
		t.Fatal(err)
	}
	if layoutMeta != res.Meta {
		t.Error("OnLayout delivered a different metadata object than the result carries")
	}
	for j := 0; j < parts; j++ {
		if durableCount[j] != 1 {
			t.Errorf("partition %d signalled durable %d times, want exactly once", j, durableCount[j])
		}
	}
}

// TestDirectSimParity: DistributeDirect must report both stage sims —
// the read stage charges Lustre traffic, and the transfer stage charges
// the overlay bytes that replace the file path's writes (§6).
func TestDirectSimParity(t *testing.T) {
	fs := lustre.New(lustre.Titan(), nil)
	net, err := mrnet.New(4, mrnet.DefaultFanout, mrnet.TitanCosts(), fs.Clock())
	if err != nil {
		t.Fatal(err)
	}
	writeInput(t, fs, "in.mrsc", dataset.Twitter(8000, 29), false)
	res, err := DistributeDirect(context.Background(), net, fs, eps, "in.mrsc", DistOptions{
		NumPartitions: 4, MinPts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadSim <= 0 {
		t.Errorf("ReadSim = %v, want positive (shards are read from Lustre)", res.ReadSim)
	}
	if res.WriteSim <= 0 {
		t.Errorf("WriteSim = %v, want positive (overlay transfer replaces the write stage)", res.WriteSim)
	}
}
