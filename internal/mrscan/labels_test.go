package mrscan

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/ptio"
)

// TestLabelsByIDOnPipelineOutput: on real sweep output — the two batch
// workloads' shapes and a small one, noise written or omitted — decoding
// the (id, cluster) pairs where they lie gives the labels the
// ReadOutput-based version (labelsByIDMap) gives.
func TestLabelsByIDOnPipelineOutput(t *testing.T) {
	shapes := []struct {
		name string
		pts  []geom.Point
		cfg  Config
	}{
		{"twitter4k_4", dataset.Twitter(4_000, 7), Default(0.1, 20, 4)},
		{"twitter60k_8", dataset.Twitter(60_000, 1), Default(0.1, 40, 8)},
		{"sdss150k_16", dataset.SDSS(150_000, 1), Default(0.00015, 5, 16)},
	}
	if testing.Short() {
		shapes = shapes[:1]
	}
	for _, s := range shapes {
		for _, noise := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/noise=%t", s.name, noise), func(t *testing.T) {
				fs := lustre.New(lustre.Titan(), nil)
				if err := ptio.WriteDataset(fs.Create("input.mrsc"), s.pts, false); err != nil {
					t.Fatal(err)
				}
				cfg := s.cfg
				cfg.IncludeNoise = noise
				res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := LabelsByID(fs, res.OutputFile, s.pts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := labelsByIDMap(fs, res.OutputFile, s.pts)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatal("labels differ from the ReadOutput-based version's")
				}
			})
		}
	}
}

// TestLabelsByIDRejectsMalformedOutput: the file is input. A foreign
// magic, a header that declares more records than the file holds (by one
// record, by a torn tail, by 2^60) and a file shorter than its header are
// errors — not panics, and not allocations sized from the header.
func TestLabelsByIDRejectsMalformedOutput(t *testing.T) {
	pts := []geom.Point{{ID: 0}, {ID: 1}, {ID: 2}}
	var recs []byte
	for _, p := range pts {
		recs = ptio.AppendLabeled(recs, ptio.LabeledPoint{Point: p, Cluster: int64(p.ID)})
	}
	file := func(count int64, body []byte) []byte { return append(ptio.LabeledHeader(count), body...) }
	foreign := file(3, recs)
	copy(foreign, "MRSC")
	cases := map[string]struct {
		data []byte
		want string
	}{
		"bad magic":             {foreign, "bad magic"},
		"one record short":      {file(4, recs), "declares 4 records but holds 3"},
		"torn tail":             {file(3, recs[:len(recs)-5]), "declares 3 records but holds 2"},
		"absurd count":          {file(1<<60, recs), "declares 1152921504606846976 records but holds 3"},
		"shorter than a header": {ptio.LabeledHeader(0)[:9], "header"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			fs := lustre.New(lustre.Titan(), nil)
			if _, err := fs.Create("out.mrsl").WriteAt(c.data, 0); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			labels, err := LabelsByID(fs, "out.mrsl", pts)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), c.want) || labels != nil {
				t.Fatalf("labels %v, err %v; want an error mentioning %q", labels, err, c.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
				t.Errorf("refusing the file allocated %d bytes", got)
			}
		})
	}

	// What the header may still say: fewer records than the file holds
	// (the rest is ignored, as ReadLabeled ignores it), none, and nothing
	// at all — an empty file reads as no records, without a read.
	fs := lustre.New(lustre.Titan(), nil)
	for name, data := range map[string][]byte{"two of three": file(2, recs), "none": file(0, nil), "empty": nil} {
		h := fs.Create(name)
		if _, err := h.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		reads := fs.Stats().ReadOps
		got, err := LabelsByID(fs, name, pts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []int{-1, -1, -1}
		if name == "two of three" {
			want = []int{0, 1, -1}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: labels %v, want %v", name, got, want)
		}
		if name == "empty" && fs.Stats().ReadOps != reads {
			t.Errorf("an empty file cost %d reads", fs.Stats().ReadOps-reads)
		}
	}
}

// TestLabelsByIDAllocatesOnlyItsResult: no []ptio.LabeledPoint, no batch
// buffer, no staging copy of the file — what LabelsByID allocates is the
// labels and AlignByID's table, 16 bytes a point against the 40 + 32 the
// record slice and a copy of the file would add.
func TestLabelsByIDAllocatesOnlyItsResult(t *testing.T) {
	const n = 50_000
	pts := make([]geom.Point, n)
	out := make([]ptio.LabeledPoint, n)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), X: float64(i)}
		out[i] = ptio.LabeledPoint{Point: pts[i], Cluster: int64(i % 5)}
	}
	fs := lustre.New(lustre.Titan(), nil)
	if err := ptio.WriteLabeled(fs.Create("out.mrsl"), out); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := LabelsByID(fs, "out.mrsl", pts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / n; got > 20 {
		t.Errorf("LabelsByID allocated %d bytes per point, want the 16 of its result and table", got)
	}
}
