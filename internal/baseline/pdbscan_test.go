package baseline

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/quality"
)

func TestPDBSCANMatchesReference(t *testing.T) {
	pts := dataset.Twitter(8000, 1)
	ref, err := dbscan.Cluster(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []int{1, 3, 8} {
		got, err := PDBSCAN(pts, params, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumClusters != ref.NumClusters {
			t.Errorf("nodes=%d: NumClusters = %d, want %d", nodes, got.NumClusters, ref.NumClusters)
		}
		for i := range pts {
			if got.Core[i] != ref.Core[i] {
				t.Fatalf("nodes=%d: core flag of %d differs", nodes, i)
			}
		}
		score, err := quality.Score(ref.Labels, got.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if score < 0.99 {
			t.Errorf("nodes=%d: quality = %.4f", nodes, score)
		}
	}
}

func TestPDBSCANMessageGrowthWithNodes(t *testing.T) {
	// §2.2: remote accesses grow as the data spreads over more nodes —
	// the replicated-index design's scaling obstacle.
	pts := dataset.Twitter(8000, 2)
	var prev int64 = -1
	for _, nodes := range []int{1, 2, 4, 8, 16} {
		res, err := PDBSCAN(pts, params, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if nodes == 1 && res.RemoteMessages != 0 {
			t.Errorf("single node sent %d remote messages, want 0", res.RemoteMessages)
		}
		if res.RemoteMessages < prev {
			t.Errorf("nodes=%d: messages %d fell below %d at fewer nodes",
				nodes, res.RemoteMessages, prev)
		}
		prev = res.RemoteMessages
	}
}

func TestPDBSCANMessageGrowthWithData(t *testing.T) {
	small, err := PDBSCAN(dataset.Twitter(2000, 3), params, 8)
	if err != nil {
		t.Fatal(err)
	}
	big, err := PDBSCAN(dataset.Twitter(8000, 3), params, 8)
	if err != nil {
		t.Fatal(err)
	}
	// 4x the data must cost more than 4x the messages in dense geodata
	// (neighborhood sizes grow with density): the super-linear growth
	// the paper reports.
	if big.RemoteMessages <= small.RemoteMessages*4 {
		t.Errorf("messages grew %d -> %d over 4x data; expected super-linear growth",
			small.RemoteMessages, big.RemoteMessages)
	}
}

func TestPDBSCANMergeEdges(t *testing.T) {
	pts := dataset.Twitter(6000, 4)
	res, err := PDBSCAN(pts, params, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.MergeEdges == 0 {
		t.Error("x-striped shards across dense metros must produce cross-node merges")
	}
	single, err := PDBSCAN(pts, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if single.MergeEdges != 0 {
		t.Errorf("single node has %d cross-node merges, want 0", single.MergeEdges)
	}
}

func TestPDBSCANValidation(t *testing.T) {
	if _, err := PDBSCAN(nil, geom.Params{}, 1); err == nil {
		t.Error("bad params must fail")
	}
	if _, err := PDBSCAN(nil, params, 0); err == nil {
		t.Error("zero nodes must fail")
	}
	res, err := PDBSCAN(nil, params, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Error("empty input must produce no clusters")
	}
}

func BenchmarkPDBSCANNodes(b *testing.B) {
	pts := dataset.Twitter(10000, 5)
	for _, nodes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := PDBSCAN(pts, params, nodes)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.RemoteMessages), "remote-messages")
			}
		})
	}
}
