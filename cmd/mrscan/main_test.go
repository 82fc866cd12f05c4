package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ptio"
)

var update = flag.Bool("update", false, "rewrite the golden stdout files in testdata")

// wallTimes matches the phase-breakdown lines, whose durations are wall
// clock and differ from run to run.
var wallTimes = regexp.MustCompile(`(?m)^(  (?:partition|cluster|merge|sweep|total)) +[0-9.]+[µmn]?s\b.*$`)

// smokeInput writes a small Twitter-like dataset and returns its path.
func smokeInput(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.mrsc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ptio.WriteDataset(f, dataset.Twitter(4000, 7), false); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenStdout runs the whole command on a small input with the
// default flags and with -direct: it exits 0 and, either way, prints the
// golden report (wall times masked) and writes the same labeled output.
func TestGoldenStdout(t *testing.T) {
	input := smokeInput(t)
	outputs := make(map[string][]byte)
	for _, tc := range []struct{ name, flag string }{{"default", ""}, {"direct", "-direct"}} {
		t.Run(tc.name, func(t *testing.T) {
			output := filepath.Join(t.TempDir(), tc.name+".mrsl")
			args := []string{"-input", input, "-output", output, "-leaves", "4", "-minpts", "20"}
			if tc.flag != "" {
				args = append(args, tc.flag)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			got := wallTimes.ReplaceAll(stdout.Bytes(), []byte("$1 <wall>"))
			golden := filepath.Join("testdata", "stdout.golden")
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
				t.Errorf("stdout differs from %s:\n%s", golden, got)
			}
			labeled, err := os.ReadFile(output)
			if err != nil {
				t.Fatal(err)
			}
			outputs[tc.name] = labeled
		})
	}
	if len(outputs) == 2 && !bytes.Equal(outputs["default"], outputs["direct"]) {
		t.Error("-direct wrote a different labeled output than the file path")
	}
}

// TestBadCommandLines: a flag the command does not define and a missing
// -input are usage errors — exit 2, the reason on stderr, nothing on
// stdout.
func TestBadCommandLines(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"undefined-flag", []string{"-input", "in.mrsc", "-write-aggregation"}, "flag provided but not defined: -write-aggregation"},
		{"missing-input", []string{"-leaves", "4"}, "mrscan: -input is required"},
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
