package mrscan

import (
	"math"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	pts := Twitter(5000, 42)
	res, labels, err := RunPoints(pts, Default(0.1, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters < 1 {
		t.Fatal("expected clusters in Twitter data")
	}
	ref, err := DBSCAN(pts, 0.1, 40)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Quality(ref, labels)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.995 {
		t.Errorf("quality = %.4f, want >= 0.995", q)
	}
}

func TestFileBasedFlow(t *testing.T) {
	fs := NewFS()
	pts := SDSS(3000, 7)
	if err := WriteDataset(fs, "in.mrsc", pts, false); err != nil {
		t.Fatal(err)
	}
	cfg := Default(0.00015, 5, 2)
	res, err := Run(fs, "in.mrsc", "out.mrsl", cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReadOutput(fs, "out.mrsl")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no clustered points written")
	}
	if int64(len(out)) != res.Stats.OutputPoints {
		t.Errorf("output holds %d records, result says %d", len(out), res.Stats.OutputPoints)
	}
	for _, lp := range out {
		if lp.Cluster < 0 || lp.Cluster >= int64(res.NumClusters) {
			t.Fatalf("record %d has cluster %d of %d", lp.Point.ID, lp.Cluster, res.NumClusters)
		}
	}
}

func TestGenerators(t *testing.T) {
	if n := len(Uniform(100, 1, Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})); n != 100 {
		t.Errorf("Uniform produced %d points", n)
	}
	if n := len(Blobs(100, 3, 0.1, 1, Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})); n != 100 {
		t.Errorf("Blobs produced %d points", n)
	}
}

// TestBadParamsRefusedBeforeAnyWork: the batch reference, the pipeline
// and the stream engine refuse the same parameters, with the same reason,
// before they touch a point. A NaN or +Inf Eps once passed the first two:
// DBSCAN returned all-noise or one cluster, and RunPoints ran its
// partition phase and then failed to encode the plan.
func TestBadParamsRefusedBeforeAnyWork(t *testing.T) {
	pts := Twitter(500, 1)
	for _, tc := range []struct {
		eps    float64
		minPts int
		ok     bool
	}{
		{math.NaN(), 4, false},
		{math.Inf(1), 4, false},
		{math.Inf(-1), 4, false},
		{0, 4, false},
		{1e-310, 4, true},
		{0.1, 0, false},
		{0.1, 1, true},
	} {
		_, dbErr := DBSCAN(pts, tc.eps, tc.minPts)
		_, streamErr := NewStream(StreamConfig{Eps: tc.eps, MinPts: tc.minPts, WindowTicks: 2})
		errs := []error{dbErr, streamErr}
		if !tc.ok {
			_, _, runErr := RunPoints(pts, Default(tc.eps, tc.minPts, 2))
			errs = append(errs, runErr)
		}
		for i, err := range errs {
			door := []string{"DBSCAN", "NewStream", "RunPoints"}[i]
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s(eps=%v, minPts=%d) = %v, want accepted", door, tc.eps, tc.minPts, err)
			case !tc.ok && (err == nil || !strings.Contains(err.Error(), "must be")):
				t.Errorf("%s(eps=%v, minPts=%d) = %v, want a parameter refusal", door, tc.eps, tc.minPts, err)
			}
		}
	}
}

func TestStreamFacade(t *testing.T) {
	s, err := NewStream(StreamConfig{Eps: 0.12, MinPts: 5, WindowTicks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range Firehose(8, 60, 21) {
		if _, err := s.Tick(batch); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if len(snap.Points) != 4*60 {
		t.Fatalf("window holds %d points, want %d", len(snap.Points), 4*60)
	}
	// The stream labeling must agree with batch DBSCAN on the window.
	ref, err := DBSCAN(snap.Points, 0.12, 5)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Quality(ref, snap.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.999 {
		t.Fatalf("stream vs batch DBDC = %.4f, want ~1", q)
	}

	// Drain/restore round trip through the facade.
	r, err := RestoreStream(StreamConfig{Eps: 0.12, MinPts: 5, WindowTicks: 4}, s.WindowState())
	if err != nil {
		t.Fatal(err)
	}
	rs := r.Snapshot()
	for i := range snap.Labels {
		if rs.Labels[i] != snap.Labels[i] {
			t.Fatalf("restored stream label %d differs at %v", i, rs.Points[i])
		}
	}
}
