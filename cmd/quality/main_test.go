package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/mrscan"
	"repro/internal/ptio"
)

var update = flag.Bool("update", false, "rewrite the golden stdout files in testdata")

// writeFile creates name in dir, fills it with write and returns its path.
func writeFile(t *testing.T, dir, name string, write func(*os.File) error) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		t.Fatal(err)
	}
	return path
}

// pipelineOutput runs the pipeline over pts and writes its labels as an
// MRSL file.
func pipelineOutput(t *testing.T, dir, name string, pts []geom.Point, minPts int) string {
	t.Helper()
	_, labels, err := mrscan.RunPoints(pts, mrscan.Default(0.1, minPts, 4))
	if err != nil {
		t.Fatal(err)
	}
	lps := make([]ptio.LabeledPoint, len(pts))
	for i, p := range pts {
		lps[i] = ptio.LabeledPoint{Point: p, Cluster: int64(labels[i])}
	}
	return writeFile(t, dir, name, func(f *os.File) error { return ptio.WriteLabeled(f, lps) })
}

// TestGoldenStdout scores a small generated dataset's pipeline output
// against the reference DBSCAN, and compares two pipeline outputs: each
// exits 0 and prints its golden report.
func TestGoldenStdout(t *testing.T) {
	dir := t.TempDir()
	pts := dataset.Twitter(4000, 7)
	input := writeFile(t, dir, "in.mrsc", func(f *os.File) error { return ptio.WriteDataset(f, pts, false) })
	a := pipelineOutput(t, dir, "a.mrsl", pts, 20)
	b := pipelineOutput(t, dir, "b.mrsl", pts, 30)
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"reference", []string{"-input", input, "-output", a, "-eps", "0.1", "-minpts", "20"}},
		{"compare", []string{"-a", a, "-b", b}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s:\n%s", golden, stdout.String())
			}
		})
	}
}

// TestBadCommandLines: an undefined flag, no mode and half of either mode
// are usage errors — exit 2, the reason on stderr, nothing on stdout.
func TestBadCommandLines(t *testing.T) {
	const need = "quality: need either -input/-output or -a/-b"
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"undefined-flag", []string{"-index", "grid"}, "flag provided but not defined: -index"},
		{"no-mode", nil, need},
		{"input-only", []string{"-input", "in.mrsc"}, need},
		{"a-only", []string{"-a", "run1.mrsl"}, need},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("%v: exit %d, want 2", tc.args, code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("%v: stderr %q does not say %q", tc.args, stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("%v: wrote %q to stdout", tc.args, stdout.String())
			}
		})
	}
}
