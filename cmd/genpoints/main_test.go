package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/ptio"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// TestGoldenFiles runs the command in-process and holds the files it
// writes to goldens: the firehose text a stream replays, and a static
// dataset in text form. Each run exits 0 and reports what it wrote.
func TestGoldenFiles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		stdout string
	}{
		{"firehose", []string{"-firehose", "-ticks", "3", "-per-tick", "4", "-seed", "1"},
			"wrote 12 firehose points (3 ticks x 4) to %s\n"},
		{"twitter", []string{"-dist", "twitter", "-n", "6", "-seed", "1", "-format", "text"},
			"wrote 6 twitter points to %s (text)\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), tc.name+".txt")
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-o", out), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if want := fmt.Sprintf(tc.stdout, out); stdout.String() != want {
				t.Errorf("stdout %q, want %q", stdout.String(), want)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s:\n%s", out, golden, got)
			}
		})
	}
}

// TestBinaryMatchesText: the default MRSC binary output holds the same
// points as the text output of the same command line.
func TestBinaryMatchesText(t *testing.T) {
	dir := t.TempDir()
	bin, text := filepath.Join(dir, "p.mrsc"), filepath.Join(dir, "p.txt")
	var sink bytes.Buffer
	if run([]string{"-dist", "twitter", "-n", "6", "-seed", "1", "-o", bin}, &sink, &sink) != 0 ||
		run([]string{"-dist", "twitter", "-n", "6", "-seed", "1", "-format", "text", "-o", text}, &sink, &sink) != 0 {
		t.Fatalf("genpoints failed:\n%s", sink.String())
	}
	fb, err := os.Open(bin)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	fromBin, err := ptio.ReadDataset(fb)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := os.Open(text)
	if err != nil {
		t.Fatal(err)
	}
	defer ft.Close()
	fromText, err := ptio.ReadText(ft)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromBin) != 6 || !slices.Equal(fromBin, fromText) {
		t.Fatalf("binary output %v, text output %v", fromBin, fromText)
	}
}

// TestBadCommandLines: an undefined flag exits 2 and writes nothing; a
// bad value that only the writer can reject exits 1.
func TestBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"bad flag value", []string{"-n", "many"}, 2},
		{"unknown distribution", []string{"-dist", "mars", "-n", "3"}, 1},
		{"empty firehose", []string{"-firehose", "-ticks", "0"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out")
			var stdout, stderr bytes.Buffer
			if code := run(append(tc.args, "-o", out), &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Error("nothing on stderr")
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("%s was written: %v", out, err)
			}
		})
	}
}
