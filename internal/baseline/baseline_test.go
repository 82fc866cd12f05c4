package baseline

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/quality"
)

var params = geom.Params{Eps: 0.1, MinPts: 40}

func TestPDSMatchesReference(t *testing.T) {
	pts := dataset.Twitter(10000, 1)
	ref, err := dbscan.Cluster(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		got, err := PDS(pts, params, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumClusters != ref.NumClusters {
			t.Errorf("workers=%d: NumClusters = %d, want %d", workers, got.NumClusters, ref.NumClusters)
		}
		for i := range pts {
			if got.Core[i] != ref.Core[i] {
				t.Fatalf("workers=%d: core flag of %d differs", workers, i)
			}
		}
		// Core-point partition must match exactly (union-find over cores
		// is order-independent); borders may differ by claim order.
		score, err := quality.Score(ref.Labels, got.Labels)
		if err != nil {
			t.Fatal(err)
		}
		if score < 0.99 {
			t.Errorf("workers=%d: quality = %.4f, want >= 0.99", workers, score)
		}
	}
}

// TestPDSCorePartitionExact: PDS's core flags equal the oracle's, and
// its clusters over core points are the oracle's up to renaming. The
// pair exactly Eps apart across a cell border (an ulp below 0 and 0.75,
// at Eps 0.75) fell two cells apart on a grid of side exactly Eps.
func TestPDSCorePartitionExact(t *testing.T) {
	for _, c := range []struct {
		name   string
		pts    []geom.Point
		params geom.Params
	}{
		{"twitter5k", dataset.Twitter(5000, 2), params},
		{"pair_exactly_eps", []geom.Point{{ID: 0, X: math.Nextafter(0, -1)}, {ID: 1, X: 0.75}}, geom.Params{Eps: 0.75, MinPts: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref, err := dbscan.Cluster(c.pts, c.params)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PDS(c.pts, c.params, 8)
			if err != nil {
				t.Fatal(err)
			}
			refToGot := map[int]int{}
			gotToRef := map[int]int{}
			for i := range c.pts {
				if got.Core[i] != ref.Core[i] {
					t.Fatalf("core flag of %v: %v, oracle %v", c.pts[i], got.Core[i], ref.Core[i])
				}
				if !ref.Core[i] {
					continue
				}
				r, g := ref.Labels[i], got.Labels[i]
				if prev, ok := refToGot[r]; ok && prev != g {
					t.Fatalf("ref cluster %d split", r)
				}
				if prev, ok := gotToRef[g]; ok && prev != r {
					t.Fatalf("got cluster %d merges two ref clusters", g)
				}
				refToGot[r] = g
				gotToRef[g] = r
			}
		})
	}
}

func TestPDSMessageGrowth(t *testing.T) {
	// The §2.2 observation: disjoint-set traffic grows with the data.
	small, err := PDS(dataset.Twitter(2000, 3), params, 4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := PDS(dataset.Twitter(8000, 3), params, 4)
	if err != nil {
		t.Fatal(err)
	}
	if big.Messages <= small.Messages {
		t.Errorf("messages must grow with data: %d vs %d", big.Messages, small.Messages)
	}
	if small.Unions == 0 {
		t.Error("expected unions on clustered data")
	}
}

func TestPDSValidation(t *testing.T) {
	if _, err := PDS(nil, geom.Params{Eps: 0, MinPts: 1}, 1); err == nil {
		t.Error("bad params must fail")
	}
	if _, err := PDS(nil, params, 0); err == nil {
		t.Error("zero workers must fail")
	}
}

func TestDBDCRunsAndDegradesGracefully(t *testing.T) {
	pts := dataset.Twitter(10000, 4)
	ref, err := dbscan.Cluster(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DBDC(pts, params, DBDCOptions{Slaves: 4, RepsPerCluster: 5})
	if err != nil {
		t.Fatal(err)
	}
	score, err := quality.Score(ref.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	// DBDC works, but without shadow regions its quality is visibly
	// below Mr. Scan's 0.995 floor on multi-shard runs.
	if score < 0.5 {
		t.Errorf("quality = %.4f; DBDC should still be broadly correct", score)
	}
	t.Logf("DBDC quality = %.4f (reference for the Figure 11 contrast)", score)
	if res.NumClusters == 0 {
		t.Error("expected clusters")
	}
}

func TestDBDCSingleSlaveNearPerfect(t *testing.T) {
	// With one slave there is no distribution flaw: only border-order
	// effects remain.
	pts := dataset.Twitter(5000, 5)
	ref, err := dbscan.Cluster(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DBDC(pts, params, DBDCOptions{Slaves: 1})
	if err != nil {
		t.Fatal(err)
	}
	score, err := quality.Score(ref.Labels, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if score < 0.999 {
		t.Errorf("single-slave quality = %.4f, want ~1", score)
	}
}

func TestDBDCValidation(t *testing.T) {
	if _, err := DBDC(nil, params, DBDCOptions{Slaves: 0}); err == nil {
		t.Error("zero slaves must fail")
	}
	if _, err := DBDC(nil, geom.Params{}, DBDCOptions{Slaves: 1}); err == nil {
		t.Error("bad params must fail")
	}
}

func TestPDSEmptyAndTiny(t *testing.T) {
	res, err := PDS(nil, params, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Error("empty input must produce no clusters")
	}
	res, err = PDS([]geom.Point{{ID: 1}}, params, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] != geom.Noise {
		t.Error("single point must be noise")
	}
}
