package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/ptio"
)

var update = flag.Bool("update", false, "rewrite the golden stdout file in testdata")

// labeledFile writes a small MRSL file: two clusters on a diagonal and
// one noise point between them.
func labeledFile(t *testing.T) string {
	t.Helper()
	var lps []ptio.LabeledPoint
	for i := range 6 {
		d := float64(i) * 0.1
		lps = append(lps,
			ptio.LabeledPoint{Point: geom.Point{ID: uint64(i), X: d, Y: d}, Cluster: 0},
			ptio.LabeledPoint{Point: geom.Point{ID: uint64(10 + i), X: 3 + d, Y: 2 - d}, Cluster: 1})
	}
	lps = append(lps, ptio.LabeledPoint{Point: geom.Point{ID: 99, X: 1.5, Y: 1}, Cluster: -1})
	path := filepath.Join(t.TempDir(), "clusters.mrsl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ptio.WriteLabeled(f, lps); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestASCIIGolden draws the file as ASCII art: exit 0 and the golden
// picture on stdout.
func TestASCIIGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-input", labeledFile(t), "-ascii", "-w", "32", "-h", "10"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	golden := filepath.Join("testdata", "ascii.golden")
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
		t.Fatalf("stdout differs from %s (-update rewrites it):\n%s", golden, stdout.String())
	}
}

// TestPPM writes the file as an image: a P6 header of the asked size, a
// pixel body of exactly width × height × 3 bytes, and the summary line.
func TestPPM(t *testing.T) {
	out := filepath.Join(t.TempDir(), "clusters.ppm")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-input", labeledFile(t), "-o", out, "-w", "40", "-h", "30"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	img, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	const header = "P6\n40 30\n255\n"
	if !bytes.HasPrefix(img, []byte(header)) {
		t.Fatalf("image starts %q, want %q", img[:min(len(img), len(header))], header)
	}
	if got, want := len(img)-len(header), 40*30*3; got != want {
		t.Fatalf("pixel body is %d bytes, want %d", got, want)
	}
	if want := fmt.Sprintf("rendered 13 points to %s (40x30)\n", out); stdout.String() != want {
		t.Fatalf("stdout %q, want %q", stdout.String(), want)
	}
}

// TestBadCommandLine: no input is a usage error (2); an unreadable one
// fails the run (1).
func TestBadCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		say  string
	}{
		{nil, 2, "-input is required"},
		{[]string{"-nope"}, 2, "flag provided but not defined"},
		{[]string{"-input", filepath.Join(t.TempDir(), "missing.mrsl"), "-ascii"}, 1, "missing.mrsl"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.say) {
			t.Errorf("%q: exit %d, stderr %q; want exit %d mentioning %q", tc.args, code, stderr.String(), tc.code, tc.say)
		}
	}
}
