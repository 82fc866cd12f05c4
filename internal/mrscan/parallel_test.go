package mrscan

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/ptio"
	"repro/internal/telemetry"
)

// TestParallelPipelines is the package-level shared-state audit for the
// job server: it runs several full pipelines concurrently in one
// process — the server's steady state — and requires each to produce
// exactly the labels its own sequential run produces. Any mutable
// package-level state (a shared registry, pool, or rand default) shows
// up here as a -race report or as cross-talk between the label sets.
func TestParallelPipelines(t *testing.T) {
	const pipelines = 6
	// Distinct datasets and configurations so cross-talk cannot hide
	// behind identical answers; some jobs exercise the retry and
	// checkpoint paths at the same time as clean runs.
	refs := make([][]int, pipelines)
	for i := range refs {
		pts := dataset.Twitter(1200+200*i, int64(100+i))
		cfg := Default(0.1, 20, 2+i%3)
		cfg.IncludeNoise = true
		_, labels, err := RunPoints(pts, cfg)
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		refs[i] = labels
	}

	var wg sync.WaitGroup
	errs := make([]error, pipelines)
	for i := 0; i < pipelines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pts := dataset.Twitter(1200+200*i, int64(100+i))
			cfg := Default(0.1, 20, 2+i%3)
			cfg.IncludeNoise = true
			cfg.Telemetry = telemetry.New(nil)
			cfg.Retry = RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}
			switch i % 3 {
			case 1:
				// A transient fault healed by retry, running concurrently
				// with clean pipelines.
				cfg.FaultPlan = faultinject.New(int64(i)).Arm(
					faultinject.GPULaunch, faultinject.Rule{Times: 1})
			case 2:
				cfg.Checkpoint = true
			}

			fs := lustre.New(lustre.Titan(), nil)
			if err := ptio.WriteDataset(fs.Create("input.mrsc"), pts, false); err != nil {
				errs[i] = fmt.Errorf("writing input: %w", err)
				return
			}
			res, err := RunContext(context.Background(), fs, "input.mrsc", "output.mrsl", cfg)
			if err != nil {
				errs[i] = err
				return
			}
			labels, err := LabelsByID(fs, res.OutputFile, pts)
			if err != nil {
				errs[i] = fmt.Errorf("reading labels: %w", err)
				return
			}
			if len(labels) != len(refs[i]) {
				errs[i] = fmt.Errorf("got %d labels, reference has %d", len(labels), len(refs[i]))
				return
			}
			for k := range labels {
				if labels[k] != refs[i][k] {
					errs[i] = fmt.Errorf("label %d = %d, sequential reference says %d — cross-pipeline interference",
						k, labels[k], refs[i][k])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("pipeline %d: %v", i, err)
		}
	}
}

// TestConcurrentRunPointsRecycle: four RunPoints calls at a time, round
// after round, each release their file images and slabs to the pools the
// others are drawing from — and every run's labels hash to what the same
// input gives run alone. A buffer handed to two runs at once, or read
// after it went back, shows up as a changed hash (or a -race report).
func TestConcurrentRunPointsRecycle(t *testing.T) {
	const pipelines, rounds = 4, 3
	input := func(i int) ([]geom.Point, Config) {
		cfg := Default(0.1, 20, 2+i)
		return dataset.Twitter(2500+700*i, int64(40+i)), cfg
	}
	hash := func(labels []int) uint64 {
		h := fnv.New64a()
		for _, l := range labels {
			binary.Write(h, binary.LittleEndian, int64(l))
		}
		return h.Sum64()
	}
	solo := make([]uint64, pipelines)
	for i := range solo {
		pts, cfg := input(i)
		_, labels, err := RunPoints(pts, cfg)
		if err != nil {
			t.Fatalf("solo run %d: %v", i, err)
		}
		solo[i] = hash(labels)
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < pipelines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				pts, cfg := input(i)
				_, labels, err := RunPoints(pts, cfg)
				if err != nil {
					t.Errorf("round %d, run %d: %v", r, i, err)
					return
				}
				if got := hash(labels); got != solo[i] {
					t.Errorf("round %d, run %d: labels hash %016x, alone %016x", r, i, got, solo[i])
				}
			}(i)
		}
		wg.Wait()
	}
}
