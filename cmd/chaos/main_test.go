package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// Every mode, one small seed, through the whole command: exit status,
// the one summary line, and a report whose shape is the one the
// campaigns have always written (make chaos|soak|crash|stream|gray
// leave these files at the repository root). optional lists the
// per-run keys that are omitted when empty.
func TestModes(t *testing.T) {
	for _, tc := range []struct {
		args     string
		summary  string
		top, run []string
		optional []string
	}{
		{
			args:     "-seeds 1 -points 1500 -leaves 2",
			summary:  "chaos: 1 runs: 1 ok, 0 faulted (fail-stop), 0 FAILED",
			top:      []string{"failed", "faulted", "ok", "runs"},
			run:      []string{"elapsed_ns", "escapes", "identical", "ledger", "outcome", "quality", "seed", "spec"},
			optional: []string{"resumed"},
		},
		{
			args:     "-mode overload -seeds 1",
			summary:  "chaos overload: 1 runs: 1 ok, 0 FAILED",
			top:      []string{"failed", "ok", "runs"},
			run:      []string{"admitted", "completed", "elapsed_ns", "failed", "min_quality", "outcome", "resumed", "seed", "submitted", "suspended_at_drain"},
			optional: []string{"rejected"},
		},
		{
			args:    "-mode crash -seeds 1 -points 400 -leaves 2 -crash-points 3 -journal-crash-points 1 -journal-jobs 2",
			summary: "chaos crash: 1 seeds, 4 crash points: 1 ok, 0 FAILED",
			top:     []string{"crash_points", "failed", "ok", "runs"},
			run:     []string{"elapsed_ns", "journal", "journal_ops", "outcome", "pipeline_ops", "points", "seed"},
		},
		{
			args:    "-mode=stream -seeds 1 -ticks 8 -per-tick 150",
			summary: "chaos stream: 1 runs: 1 ok, 0 FAILED",
			top:     []string{"failed", "ok", "runs"},
			run:     []string{"elapsed_ns", "final_clusters", "invalid_rejected", "outcome", "points", "restart_at_tick", "seed", "strike_at_tick", "ticks"},
		},
		{
			args:    "-mode gray -seeds 1 -points 3000",
			summary: "chaos gray: 1 runs: 1 ok, 0 FAILED",
			top:     []string{"failed", "ok", "runs"},
			run:     []string{"elapsed_ns", "legs", "outcome", "seed"},
		},
	} {
		t.Run(tc.args, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "report.json")
			var stdout, stderr bytes.Buffer
			code := run(append(strings.Fields(tc.args), "-out", out), &stdout, &stderr)
			if code != 0 && strings.Contains(tc.args, "gray") {
				// Two gray legs audit wall-clock ratios, and go test runs
				// other packages beside this one; a loaded host gets one
				// more try before the mode is called broken.
				t.Logf("gray campaign failed under load, retrying once:\n%s", &stdout)
				stdout.Reset()
				stderr.Reset()
				code = run(append(strings.Fields(tc.args), "-out", out), &stdout, &stderr)
			}
			if code != 0 {
				t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
			}
			if got := stdout.String(); got != tc.summary+"\n" {
				t.Errorf("stdout %q, want the one summary line %q", got, tc.summary)
			}
			if got := strings.Count(stderr.String(), "\n"); got != 1 {
				t.Errorf("%d progress lines for one seed:\n%s", got, &stderr)
			}

			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var top map[string]json.RawMessage
			if err := json.Unmarshal(data, &top); err != nil {
				t.Fatal(err)
			}
			if got := keys(top); !reflect.DeepEqual(got, tc.top) {
				t.Errorf("report keys %v, want %v", got, tc.top)
			}
			var runs []map[string]json.RawMessage
			if err := json.Unmarshal(top["runs"], &runs); err != nil || len(runs) != 1 {
				t.Fatalf("runs: %v (%d of them)", err, len(runs))
			}
			for _, k := range tc.optional {
				delete(runs[0], k)
			}
			if got := keys(runs[0]); !reflect.DeepEqual(got, tc.run) {
				t.Errorf("run keys %v, want %v", got, tc.run)
			}
		})
	}
}

func TestBadCommandLines(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-mode", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("-mode nope: exit %d, want 2", code)
	}
	for _, m := range modes {
		if !strings.Contains(stderr.String(), m.name) {
			t.Errorf("unknown-mode error %q does not name mode %s", &stderr, m.name)
		}
	}

	// The usage string comes from the same table.
	stderr.Reset()
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
	if want := "pipeline | overload | crash | stream | gray"; !strings.Contains(stderr.String(), want) {
		t.Errorf("usage does not list %q:\n%s", want, &stderr)
	}

	// A flag of another mode is an error, not a silently ignored value.
	stderr.Reset()
	if code := run([]string{"-mode", "stream", "-crash-points", "3"}, &stdout, &stderr); code != 2 {
		t.Errorf("-mode stream -crash-points 3: exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("bad command lines printed to stdout: %q", &stdout)
	}
}

// The mutation check: with every directory sync lying, the crash
// campaign must fail, list why, and exit 1.
func TestLyingDirSyncsExitNonzero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(strings.Fields("-mode crash -seeds 1 -drop-dir-syncs"), &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, &stdout)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 || !strings.HasSuffix(lines[0], "0 ok, 1 FAILED") || !strings.HasPrefix(lines[1], "  seed 1: ") {
		t.Errorf("stdout %q, want the summary then the failed seed", lines)
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
