package mrscan

import (
	"bytes"
	"context"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/gdbscan"
	"repro/internal/lustre"
	"repro/internal/ptio"
)

// writeInput provisions a fresh simulated FS holding the standard test
// dataset as input.mrsc.
func writeInput(t *testing.T) *lustre.FS {
	t.Helper()
	fs := lustre.New(lustre.Titan(), nil)
	in := fs.Create("input.mrsc")
	if err := ptio.WriteDataset(in, dataset.Twitter(3000, 20), false); err != nil {
		t.Fatal(err)
	}
	return fs
}

func fileBytes(t *testing.T, fs *lustre.FS, name string) []byte {
	t.Helper()
	h, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, h.Size())
	if _, err := h.ReadAt(b, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return b
}

func ckptConfig() Config {
	cfg := Default(0.1, 40, 4)
	cfg.IncludeNoise = true
	cfg.Checkpoint = true
	return cfg
}

// TestCleanRunsDeterministic: two independent fault-free runs produce
// byte-identical output — the precondition for every resume test below
// (and for the acceptance criterion itself).
func TestCleanRunsDeterministic(t *testing.T) {
	var outs [][]byte
	for i := 0; i < 2; i++ {
		fs := writeInput(t)
		res, err := Run(fs, "input.mrsc", "output.mrsl", ckptConfig())
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{PhasePartition, PhaseCluster, PhaseMerge, PhaseSweep}; len(res.CompletedPhases) != 4 {
			t.Fatalf("CompletedPhases = %v, want %v", res.CompletedPhases, want)
		}
		outs = append(outs, fileBytes(t, fs, "output.mrsl"))
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("two clean runs differ byte-for-byte")
	}
}

// TestKillThenResumeByteIdentical is the driver's contract as one table:
// a fatal fault kills the run entering each of the four phases, in each
// of the partition modes (file, direct, two partitioner leaves), with the
// merge over TCP, in CUDA-DClust mode (whose leaves record per-round
// transfer bytes), and without a retry policy. The
// killed run's CompletedPhases is exactly the prefix before the fault
// (every one of them durable), a second run with Resume restores that same
// prefix — capped at merge, the last snapshotted phase — into the state the
// killed run executed, and completes, and its output is byte-identical to
// an uninterrupted run's.
func TestKillThenResumeByteIdentical(t *testing.T) {
	all := []string{PhasePartition, PhaseCluster, PhaseMerge, PhaseSweep}
	modes := []struct {
		name string
		set  func(*Config)
	}{
		// Retries must not absorb a fatal fault — the process is dead,
		// not erroring.
		{"file", func(c *Config) { c.Retry = RetryPolicy{MaxAttempts: 3} }},
		{"direct", func(c *Config) { c.DirectPartitions = true; c.Retry = RetryPolicy{MaxAttempts: 3} }},
		{"tcp-merge", func(c *Config) { c.MergeOverTCP = true; c.Retry = RetryPolicy{MaxAttempts: 3} }},
		{"cudadclust", func(c *Config) { c.Mode = gdbscan.ModeCUDADClust; c.Retry = RetryPolicy{MaxAttempts: 3} }},
		// No retry policy: the driver's default, one attempt per phase.
		{"no-retry", func(*Config) {}},
		// Two partitioner leaves write their slices of the one file.
		{"partnodes", func(c *Config) { c.PartitionLeaves = 2; c.Retry = RetryPolicy{MaxAttempts: 3} }},
	}
	for _, mode := range modes {
		// Reference: uninterrupted run.
		refFS := writeInput(t)
		ref := ckptConfig()
		mode.set(&ref)
		if _, err := Run(refFS, "input.mrsc", "output.mrsl", ref); err != nil {
			t.Fatal(err)
		}
		want := fileBytes(t, refFS, "output.mrsl")

		for k, phase := range all {
			t.Run(mode.name+"/"+phase, func(t *testing.T) {
				// Run 1: killed entering the phase.
				fs := writeInput(t)
				cfg := ckptConfig()
				mode.set(&cfg)
				cfg.FaultPlan = faultinject.New(0).
					Arm(PhaseSite(phase), faultinject.Rule{Times: 1, Fatal: true})
				killed, res, err := runState(fs, cfg)
				if err == nil {
					t.Fatal("fatal fault: run succeeded, want death")
				}
				if !faultinject.IsFatal(err) {
					t.Fatalf("error %v is not fatal", err)
				}
				if !strings.Contains(err.Error(), phase+" phase") {
					t.Fatalf("error %v does not name the %s phase", err, phase)
				}
				if res == nil {
					t.Fatal("killed run returned no partial result")
				}
				if got := res.CompletedPhases; !slices.Equal(got, all[:k]) {
					t.Fatalf("partial CompletedPhases = %v, want %v", got, all[:k])
				}
				if res.Times.Retries() != 0 {
					t.Fatalf("fatal fault was retried %d times", res.Times.Retries())
				}

				// Run 2: resume on the same FS (the durable state the crash left).
				cfg2 := ckptConfig()
				mode.set(&cfg2)
				cfg2.Resume = true
				resumed, res2, err := runState(fs, cfg2)
				if err != nil {
					t.Fatalf("resume failed: %v", err)
				}
				restored := all[:min(k, 3)]
				if got := res2.RestoredPhases; !slices.Equal(got, restored) {
					t.Fatalf("RestoredPhases = %v, want %v", got, restored)
				}
				if k > 1 {
					checkSameCluster(t, &resumed.clustered, &killed.clustered)
					if mode.name == "cudadclust" && killed.clustered.Leaves[0].Stats.RoundTransferBytes == nil {
						t.Fatal("CUDA-DClust leaf recorded no per-round transfer bytes")
					}
				}
				if k > 2 {
					checkSameSummaries(t, "merge", resumed.merged.Final, killed.merged.Final)
				}
				if !slices.Equal(res2.CompletedPhases, all) {
					t.Fatalf("resumed CompletedPhases = %v, want all four", res2.CompletedPhases)
				}
				if got := fileBytes(t, fs, "output.mrsl"); !bytes.Equal(got, want) {
					t.Fatalf("resumed output differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
				}
				// A restored partition phase has no plan — only the
				// snapshot outputs.
				if (res2.Plan == nil) != (k > 0) {
					t.Fatalf("resumed Plan = %v with %d phases restored", res2.Plan, len(restored))
				}
			})
		}
	}
}

// TestCorruptCheckpointFallsBack bit-flips the cluster snapshot left by
// a completed run: resume must detect the damage via the checksum, fall
// back to the partition snapshot, re-execute cluster and merge, and
// still produce byte-identical output.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	fs := writeInput(t)
	if _, err := Run(fs, "input.mrsc", "output.mrsl", ckptConfig()); err != nil {
		t.Fatal(err)
	}
	want := fileBytes(t, fs, "output.mrsl")

	name := "ckpt-" + PhaseCluster + ".ckpt"
	h, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := h.ReadAt(b, h.Size()/2); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := h.WriteAt(b, h.Size()/2); err != nil {
		t.Fatal(err)
	}

	cfg := ckptConfig()
	cfg.Resume = true
	res, err := Run(fs, "input.mrsc", "output2.mrsl", cfg)
	if err != nil {
		t.Fatalf("resume over corrupt checkpoint failed: %v", err)
	}
	if got := res.RestoredPhases; len(got) != 1 || got[0] != PhasePartition {
		t.Fatalf("RestoredPhases = %v, want [partition] (corrupt cluster snapshot must not restore)", got)
	}
	if got := fileBytes(t, fs, "output2.mrsl"); !bytes.Equal(got, want) {
		t.Fatal("output after corrupt-checkpoint fallback differs")
	}
}

// TestResumeAfterCompletedRun: with all snapshots intact only the sweep
// re-executes, and the RunID fingerprint keeps snapshots from a
// different configuration out.
func TestResumeAfterCompletedRun(t *testing.T) {
	fs := writeInput(t)
	if _, err := Run(fs, "input.mrsc", "output.mrsl", ckptConfig()); err != nil {
		t.Fatal(err)
	}
	want := fileBytes(t, fs, "output.mrsl")

	cfg := ckptConfig()
	cfg.Resume = true
	res, err := Run(fs, "input.mrsc", "output2.mrsl", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.RestoredPhases; len(got) != 3 {
		t.Fatalf("RestoredPhases = %v, want all three snapshotted phases", got)
	}
	if got := fileBytes(t, fs, "output2.mrsl"); !bytes.Equal(got, want) {
		t.Fatal("fully-restored run output differs")
	}

	// Different MinPts → different fingerprint → snapshots ignored.
	cfg2 := ckptConfig()
	cfg2.Resume = true
	cfg2.MinPts = 35
	res2, err := Run(fs, "input.mrsc", "output3.mrsl", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.RestoredPhases) != 0 {
		t.Fatalf("config change restored %v, want nothing", res2.RestoredPhases)
	}
}

// TestDeadlineAbortsNamingPhase: an already-expired deadline aborts
// before the first phase does any work; the error wraps
// context.DeadlineExceeded and names the in-flight phase, and the
// partial result lists no completed phases.
func TestDeadlineAbortsNamingPhase(t *testing.T) {
	fs := writeInput(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := RunContext(ctx, fs, "input.mrsc", "output.mrsl", ckptConfig())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "partition phase") {
		t.Fatalf("error %v does not name the partition phase", err)
	}
	if res == nil || len(res.CompletedPhases) != 0 {
		t.Fatalf("partial result = %+v, want zero completed phases", res)
	}
}

// TestCancelMidRun cancels concurrently with the run: whichever phase
// is in flight, the run must abort with a wrapped context error naming
// a phase and report a consistent partial result.
func TestCancelMidRun(t *testing.T) {
	fs := writeInput(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	// The whole run takes about as long as the timer, so its first write
	// straggles past it: the cancel always lands mid-run.
	cfg := ckptConfig()
	var err error
	if cfg.FaultPlan, err = faultinject.Parse("lustre.write:delay=100ms,times=1", 1); err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(ctx, fs, "input.mrsc", "output.mrsl", cfg)
	if err == nil {
		t.Fatal("run finished despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "phase") {
		t.Fatalf("error %v does not name a phase", err)
	}
	if res == nil || len(res.CompletedPhases) >= 4 {
		t.Fatalf("partial result inconsistent with cancellation: %+v", res)
	}
	// Completed phases are durable: a resume picks up from them.
	cfg = ckptConfig()
	cfg.Resume = true
	res2, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err != nil {
		t.Fatalf("resume after cancellation failed: %v", err)
	}
	if len(res2.RestoredPhases) != len(res.CompletedPhases) {
		t.Fatalf("resume restored %v, cancelled run completed %v",
			res2.RestoredPhases, res.CompletedPhases)
	}
}

// TestCheckpointFilesOnFS sanity-checks what a checkpointed run leaves
// on the file system — the files the CLI stages across restarts.
func TestCheckpointFilesOnFS(t *testing.T) {
	fs := writeInput(t)
	if _, err := Run(fs, "input.mrsc", "output.mrsl", ckptConfig()); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, name := range fs.List() {
		if checkpoint.IsCheckpointFile(name) {
			found++
		}
	}
	// Three phase snapshots plus the manifest.
	if found != 4 {
		t.Fatalf("%d checkpoint files on FS, want 4", found)
	}
}
