package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fig9c.golden")

// TestFig9cGolden runs Figure 9c on a small ladder twice. Its gpu column
// is simulated time and its other columns are counts, so both runs print
// the same bytes, and they are the golden file's.
func TestFig9cGolden(t *testing.T) {
	args := []string{"-exp", "fig9c", "-ppl", "300", "-ladder", "2,4"}
	var outs [2][]byte
	for i := range outs {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
		}
		outs[i] = stdout.Bytes()
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("two runs printed different tables:\n%s\nthen:\n%s", outs[0], outs[1])
	}
	golden := filepath.Join("testdata", "fig9c.golden")
	if *update {
		if err := os.WriteFile(golden, outs[0], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(outs[0], want) {
		t.Errorf("stdout differs from %s:\n%s", golden, outs[0])
	}
}

// TestBadCommandLines: an unknown flag, experiment or ladder entry exits
// 2 before any experiment runs.
func TestBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-exp", "fig99"},
		{"-ladder", "2,x"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed to stdout:\n%s", args, stdout.String())
		}
	}
}
