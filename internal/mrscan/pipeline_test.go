package mrscan

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/lustre"
	"repro/internal/ptio"
)

func aggConfig() Config {
	cfg := Default(0.1, 40, 4)
	cfg.IncludeNoise = true
	cfg.WriteAggregation = true
	return cfg
}

// TestWriteAggregationLabelIdentity is the tentpole's end-to-end
// acceptance criterion: the run's output must be byte-identical with
// write aggregation on or off — the log-structured layout and the
// pipelined cluster phase change I/O shape only, never labels.
func TestWriteAggregationLabelIdentity(t *testing.T) {
	base := Default(0.1, 40, 4)
	base.IncludeNoise = true
	refFS := writeInput(t)
	if _, err := Run(refFS, "input.mrsc", "output.mrsl", base); err != nil {
		t.Fatal(err)
	}
	want := fileBytes(t, refFS, "output.mrsl")

	for _, workers := range []int{0, 2} {
		fs := writeInput(t)
		cfg := aggConfig()
		cfg.ClusterWorkers = workers
		res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := fileBytes(t, fs, "output.mrsl"); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: aggregated output differs from legacy (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		// The aggregated run leaves segment shards, never the legacy
		// partition file.
		var segs int
		for _, name := range fs.List() {
			if name == partitionFile {
				t.Errorf("workers=%d: legacy partition file written in aggregated mode", workers)
			}
			if strings.HasPrefix(name, partitionFile+".seg") {
				segs++
			}
		}
		if segs == 0 {
			t.Fatalf("workers=%d: no segment files on the FS", workers)
		}
		if res.Times.PartitionWriteSim <= 0 {
			t.Errorf("workers=%d: PartitionWriteSim = %v, want positive", workers, res.Times.PartitionWriteSim)
		}
	}
}

// TestWriteAggregationSequentialLeaves: the pipelined gate must also
// hold when the cluster phase runs leaves one at a time (no scheduler) —
// loadPartition itself waits for durability.
func TestWriteAggregationSequentialLeaves(t *testing.T) {
	base := Default(0.1, 40, 4)
	base.IncludeNoise = true
	base.SequentialLeaves = true
	refFS := writeInput(t)
	if _, err := Run(refFS, "input.mrsc", "output.mrsl", base); err != nil {
		t.Fatal(err)
	}
	want := fileBytes(t, refFS, "output.mrsl")

	fs := writeInput(t)
	cfg := aggConfig()
	cfg.SequentialLeaves = true
	if _, err := Run(fs, "input.mrsc", "output.mrsl", cfg); err != nil {
		t.Fatal(err)
	}
	if got := fileBytes(t, fs, "output.mrsl"); !bytes.Equal(got, want) {
		t.Fatal("sequential aggregated output differs from legacy")
	}
}

// TestWriteAggregationOverlapsPhases reads the trace: the partition
// span must end after the cluster span begins — the two phases actually
// ran concurrently. The partition layout arrives before any data is
// written, so the cluster phase opens while stage 3 is still appending.
// Stage 3 of this input takes about a millisecond of wall clock, less
// than a loaded machine may take to wake the waiting driver, so its first
// write straggles (as a Lustre write may): the overlap is then a matter
// of ordering, not of who wins a race.
func TestWriteAggregationOverlapsPhases(t *testing.T) {
	fs := lustre.New(lustre.Titan(), nil)
	in := fs.Create("input.mrsc")
	if err := ptio.WriteDataset(in, dataset.Twitter(20000, 20), false); err != nil {
		t.Fatal(err)
	}
	cfg := Default(0.1, 40, 16)
	cfg.IncludeNoise = true
	cfg.WriteAggregation = true
	cfg.PartitionLeaves = 4
	var err error
	if cfg.FaultPlan, err = faultinject.Parse("lustre.write:delay=100ms,times=1", 1); err != nil {
		t.Fatal(err)
	}
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err != nil {
		t.Fatal(err)
	}
	parts := res.Telemetry.Trace.FindSpans("phase:" + PhasePartition)
	clusters := res.Telemetry.Trace.FindSpans("phase:" + PhaseCluster)
	if len(parts) != 1 || len(clusters) != 1 {
		t.Fatalf("trace holds %d partition and %d cluster spans, want 1 each", len(parts), len(clusters))
	}
	if parts[0].EndWall <= clusters[0].StartWall {
		t.Errorf("partition span ended at %v before cluster span began at %v — phases did not overlap",
			parts[0].EndWall, clusters[0].StartWall)
	}
	// The reported order is still pipeline order.
	if got := res.CompletedPhases; got[0] != PhasePartition || got[1] != PhaseCluster {
		t.Errorf("CompletedPhases = %v, want partition before cluster", got)
	}
}

// TestWriteAggregationKillThenResume: the durable prefix over segment
// files behaves exactly like the legacy layout's — a run killed at the
// merge phase resumes from the partition and cluster checkpoints (the
// partition checkpoint's segment index re-reads the shards) and produces
// byte-identical output.
func TestWriteAggregationKillThenResume(t *testing.T) {
	refFS := writeInput(t)
	ref := aggConfig()
	ref.Checkpoint = true
	if _, err := Run(refFS, "input.mrsc", "output.mrsl", ref); err != nil {
		t.Fatal(err)
	}
	want := fileBytes(t, refFS, "output.mrsl")

	fs := writeInput(t)
	cfg := aggConfig()
	cfg.Checkpoint = true
	cfg.FaultPlan = faultinject.New(0).
		Arm(PhaseSite(PhaseMerge), faultinject.Rule{Times: 1, Fatal: true})
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err == nil {
		t.Fatal("fatal fault at merge: run succeeded, want death")
	}
	if got := res.CompletedPhases; len(got) != 2 || got[0] != PhasePartition || got[1] != PhaseCluster {
		t.Fatalf("partial CompletedPhases = %v, want [partition cluster]", got)
	}

	cfg2 := aggConfig()
	cfg2.Checkpoint = true
	cfg2.Resume = true
	res2, err := Run(fs, "input.mrsc", "output.mrsl", cfg2)
	if err != nil {
		t.Fatalf("resume over segment files failed: %v", err)
	}
	if got := res2.RestoredPhases; len(got) != 2 || got[0] != PhasePartition || got[1] != PhaseCluster {
		t.Fatalf("RestoredPhases = %v, want [partition cluster]", got)
	}
	if got := fileBytes(t, fs, "output.mrsl"); !bytes.Equal(got, want) {
		t.Fatal("resumed aggregated output differs from uninterrupted run")
	}
}

// TestWriteAggregationPartitionFaultFails: a partition-phase fault in
// the pipelined path must poison the gate and surface as a partition
// phase error, not hang the cluster workers.
func TestWriteAggregationPartitionFaultFails(t *testing.T) {
	fs := writeInput(t)
	cfg := aggConfig()
	cfg.FaultPlan = faultinject.New(0).
		Arm(faultinject.LustreIO, faultinject.Rule{After: 5})
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err == nil {
		t.Fatal("run succeeded under a persistent lustre fault")
	}
	if res == nil {
		t.Fatal("no partial result")
	}
	for _, ph := range res.CompletedPhases {
		if ph == PhaseSweep {
			t.Fatal("sweep completed under a persistent lustre fault")
		}
	}
}

// TestWriteAggregationRetryFallsBack: with a retry policy the pipeline
// keeps the clean phase barrier (no overlap) but still uses the
// aggregated writer — and a transient partition fault is retried to
// success.
func TestWriteAggregationRetryFallsBack(t *testing.T) {
	fs := writeInput(t)
	cfg := aggConfig()
	cfg.Retry = RetryPolicy{MaxAttempts: 3}
	cfg.FaultPlan = faultinject.New(0).
		Arm(PhaseSite(PhasePartition), faultinject.Rule{Times: 1})
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Times.PartitionRetries != 1 {
		t.Errorf("PartitionRetries = %d, want 1", res.Times.PartitionRetries)
	}
	var segs int
	for _, name := range fs.List() {
		if strings.HasPrefix(name, partitionFile+".seg") {
			segs++
		}
	}
	if segs == 0 {
		t.Error("retry fallback abandoned the aggregated writer")
	}
}

func TestIsStateFileSegments(t *testing.T) {
	if !IsStateFile(partitionFile + ".seg0") {
		t.Error("segment shard not recognized as pipeline state")
	}
	if !IsStateFile(partitionFile + ".seg12") {
		t.Error("double-digit segment shard not recognized as pipeline state")
	}
	if IsStateFile("output.mrsl") {
		t.Error("output file misclassified as pipeline state")
	}
}

// TestGatedSchedulerWaitsForAdmission: leaves run only after their
// partition is marked ready, in any order the gate chooses.
func TestGatedSchedulerWaitsForAdmission(t *testing.T) {
	const n = 8
	gate := newPartitionGate(n)
	var admitted [n]atomic.Bool
	done := make(chan struct{})
	var results []int
	var err error
	go func() {
		defer close(done)
		results, err = runLeavesGated(context.Background(), n, 3, nil, gate,
			func(w, leaf int) (int, error) {
				if !admitted[leaf].Load() {
					t.Errorf("leaf %d ran before its partition was admitted", leaf)
				}
				return leaf * 2, nil
			})
	}()
	// Admit in reverse order, one at a time.
	for j := n - 1; j >= 0; j-- {
		admitted[j].Store(true)
		gate.markReady(j)
	}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	for leaf, got := range results {
		if got != leaf*2 {
			t.Errorf("results[%d] = %d, want %d", leaf, got, leaf*2)
		}
	}
}

// TestGatedSchedulerPoisonAborts: a gate failure releases blocked
// workers with the partition error instead of deadlocking them.
func TestGatedSchedulerPoisonAborts(t *testing.T) {
	boom := errors.New("partition exploded")
	gate := newPartitionGate(4)
	gate.markReady(0)
	started := make(chan struct{}, 4)
	errCh := make(chan error, 1)
	go func() {
		_, err := runLeavesGated(context.Background(), 4, 2, nil, gate,
			func(w, leaf int) (int, error) {
				started <- struct{}{}
				return 0, nil
			})
		errCh <- err
	}()
	<-started // leaf 0 ran; the rest stay gated
	gate.fail(boom)
	if err := <-errCh; !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the gate's poison error", err)
	}
}

// TestPartitionGateWait covers the loader-side wait: ready partitions
// admit immediately, failure poisons every waiter, and context
// cancellation unblocks.
func TestPartitionGateWait(t *testing.T) {
	gate := newPartitionGate(3)
	gate.markReady(1)
	if err := gate.wait(context.Background(), 1); err != nil {
		t.Fatalf("ready partition: wait = %v", err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- gate.wait(context.Background(), 2) }()
	boom := errors.New("nope")
	gate.fail(boom)
	if err := <-waitErr; !errors.Is(err, boom) {
		t.Fatalf("poisoned wait = %v, want %v", err, boom)
	}
	// Ready-before-failure still admits: the data is durable.
	if err := gate.wait(context.Background(), 1); err != nil {
		t.Fatalf("ready-then-poisoned partition: wait = %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gate2 := newPartitionGate(1)
	if err := gate2.wait(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want context.Canceled", err)
	}
}
