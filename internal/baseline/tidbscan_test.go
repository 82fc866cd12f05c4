package baseline

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
)

func TestTIDBSCANMatchesReferenceExactly(t *testing.T) {
	// TI-DBSCAN is an exact DBSCAN: identical labels to the reference
	// (both visit seeds in input order, so even cluster IDs agree).
	for _, seed := range []int64{1, 2, 3} {
		pts := dataset.Twitter(4000, seed)
		ref, err := dbscan.Cluster(pts, params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TIDBSCAN(pts, params)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumClusters != ref.NumClusters {
			t.Fatalf("seed %d: NumClusters = %d, want %d", seed, got.NumClusters, ref.NumClusters)
		}
		for i := range pts {
			if got.Labels[i] != ref.Labels[i] {
				t.Fatalf("seed %d: label of %d = %d, want %d", seed, i, got.Labels[i], ref.Labels[i])
			}
			if got.Core[i] != ref.Core[i] {
				t.Fatalf("seed %d: core flag of %d differs", seed, i)
			}
		}
	}
}

func TestTIDBSCANSDSSParams(t *testing.T) {
	pts := dataset.SDSS(3000, 4)
	p := geom.Params{Eps: 0.00015, MinPts: 5}
	ref, err := dbscan.Cluster(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TIDBSCAN(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != ref.NumClusters {
		t.Fatalf("NumClusters = %d, want %d", got.NumClusters, ref.NumClusters)
	}
	for i := range pts {
		if got.Labels[i] != ref.Labels[i] {
			t.Fatalf("label of %d differs", i)
		}
	}
}

func TestTIDBSCANEdgeCases(t *testing.T) {
	if _, err := TIDBSCAN(nil, geom.Params{Eps: 0, MinPts: 1}); err == nil {
		t.Error("bad params must fail")
	}
	res, err := TIDBSCAN(nil, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Error("empty input must yield no clusters")
	}
	res, err = TIDBSCAN([]geom.Point{{ID: 1, X: 5, Y: 5}}, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] != geom.Noise {
		t.Error("single point must be noise")
	}
	// Duplicate points (zero projected distance spread).
	dup := make([]geom.Point, 50)
	for i := range dup {
		dup[i] = geom.Point{ID: uint64(i), X: 1, Y: 1}
	}
	res, err = TIDBSCAN(dup, geom.Params{Eps: 0.1, MinPts: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Errorf("duplicates must form one cluster, got %d", res.NumClusters)
	}
}

func BenchmarkTIDBSCANvsIndexes(b *testing.B) {
	pts := dataset.Twitter(10000, 5)
	b.Run("ti", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := TIDBSCAN(pts, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dbscan.Cluster(pts, params); err != nil {
				b.Fatal(err)
			}
		}
	})
}
