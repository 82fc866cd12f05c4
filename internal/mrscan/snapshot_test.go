package mrscan

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/gdbscan"
	"repro/internal/integrity"
	"repro/internal/lustre"
	"repro/internal/merge"
	"repro/internal/ptio"
)

// runState is Run from input.mrsc to output.mrsl, handing back the run's
// phase state as well as its result.
func runState(fs *lustre.FS, cfg Config) (*run, *Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, nil, err
	}
	r := newRun(context.Background(), fs, "input.mrsc", "output.mrsl", cfg)
	res, err := r.finish(r.execAll())
	return r, res, err
}

// checkSameSummaries compares summaries by their encoding: a decoded
// summary packs the runs Combine may leave apart.
func checkSameSummaries(t *testing.T, what string, got, want []*merge.Summary) {
	t.Helper()
	if !bytes.Equal(merge.AppendSummaries(nil, got), merge.AppendSummaries(nil, want)) {
		t.Fatalf("%s: restored summaries differ from the executed ones", what)
	}
}

// checkSameCluster fails unless a restored cluster snapshot holds the
// state the executed phase produced (an empty slice and nil alike).
func checkSameCluster(t *testing.T, got, want *clusterCkpt) {
	t.Helper()
	if len(got.Leaves) != len(want.Leaves) {
		t.Fatalf("restored %d leaves, executed %d", len(got.Leaves), len(want.Leaves))
	}
	for i := range want.Leaves {
		g, w := got.Leaves[i], want.Leaves[i]
		if !slices.Equal(g.Owned, w.Owned) || !slices.Equal(g.Labels, w.Labels) || g.GPUTime != w.GPUTime ||
			!slices.Equal(g.Stats.RoundTransferBytes, w.Stats.RoundTransferBytes) {
			t.Fatalf("leaf %d: restored points, labels, GPU time or round bytes differ from the executed ones", i)
		}
		g.Stats.RoundTransferBytes, w.Stats.RoundTransferBytes = nil, nil
		if !reflect.DeepEqual(g.Stats, w.Stats) {
			t.Fatalf("leaf %d: restored stats %+v, executed %+v", i, g.Stats, w.Stats)
		}
		checkSameSummaries(t, fmt.Sprintf("leaf %d", i), g.Summaries, w.Summaries)
	}
}

// TestSnapshotFieldsPinned: the snapshot codecs name every field they
// carry, so a field added to a snapshot type would be dropped on resume
// without a word. This list fails first: add the field to its codec in
// snapshot.go, bump checkpoint.RecordsTag, then update the list.
func TestSnapshotFieldsPinned(t *testing.T) {
	for _, c := range []struct {
		v    any
		want []string
	}{
		{partitionCkpt{}, []string{"Meta *ptio.PartitionMeta", "Direct bool", "Partitions [][]geom.Point", "Shadows [][]geom.Point",
			"TotalPoints int64", "WrittenPoints int64", "ReadSim time.Duration", "WriteSim time.Duration"}},
		{clusterCkpt{}, []string{"Leaves []mrscan.leafState"}},
		{leafState{}, []string{"Owned []geom.Point", "Labels []int32", "Summaries []*merge.Summary", "GPUTime time.Duration", "Stats gdbscan.Stats"}},
		{gdbscan.Stats{}, []string{"DenseBoxes int", "DenseBoxPoints int", "CellCorePoints int", "CellNonCorePoints int",
			"SeedRounds int", "Collisions int", "BorderAttached int", "CorePoints int",
			"DeviceH2DBytes int64", "DeviceD2HBytes int64", "DeviceTransfers int64", "RoundTransferBytes []int64"}},
		{mergeCkpt{}, []string{"Final []*merge.Summary"}},
	} {
		typ := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			got = append(got, typ.Field(i).Name+" "+typ.Field(i).Type.String())
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s has fields %q; the snapshot codec carries %q", typ, got, c.want)
		}
	}
}

// realSnapshots marshals the three snapshots of a small run in each mode
// that shapes them differently: partition files, direct partitions, eight
// partitions written by two partitioner leaves, and CUDA-DClust's
// per-round transfer bytes.
func realSnapshots(tb testing.TB) [][]byte {
	var out [][]byte
	for _, set := range []func(*Config){
		func(*Config) {},
		func(c *Config) { c.DirectPartitions = true },
		func(c *Config) { c.Leaves, c.PartitionLeaves = 8, 2 },
		func(c *Config) { c.Mode = gdbscan.ModeCUDADClust },
	} {
		fs := lustre.New(lustre.Titan(), nil)
		if err := ptio.WriteDataset(fs.Create("input.mrsc"), dataset.Twitter(600, 20), false); err != nil {
			tb.Fatal(err)
		}
		cfg := Default(0.1, 10, 3)
		set(&cfg)
		r, _, err := runState(fs, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		for _, v := range []snapshotCodec{&r.part, &r.clustered, &r.merged} {
			p, err := v.MarshalBinary()
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// FuzzSnapshotDecode feeds every snapshot decoder arbitrary bytes. None
// panics; none allocates beyond a small multiple of its input, so a
// hostile leaf, region or point count is refused before it sizes
// anything; each fails only with integrity.ErrMalformed; and what one
// accepts re-marshals to the same bytes, into a buffer sized exactly.
func FuzzSnapshotDecode(f *testing.F) {
	for _, p := range realSnapshots(f) {
		f.Add(p)
	}
	for _, v := range []snapshotCodec{&partitionCkpt{}, &clusterCkpt{}, &mergeCkpt{}} {
		p, _ := v.MarshalBinary()
		f.Add(p)
	}
	f.Add(le.AppendUint64(nil, 1<<40)) // 2⁴⁰ leaves
	regions := make([]byte, partitionHdr)
	le.PutUint64(regions[48:], 1<<40) // 2⁴⁰ partitions
	f.Add(regions)
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, v := range []snapshotCodec{new(partitionCkpt), new(clusterCkpt), new(mergeCkpt)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := v.UnmarshalBinary(p)
			runtime.ReadMemStats(&after)
			// The partition decoder's JSON metadata costs encoding/json's
			// multiple, the rest a few times their records.
			if allocated, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(p))+64<<10; allocated > limit {
				t.Fatalf("%T: decoding %d bytes allocated %d", v, len(p), allocated)
			}
			if err != nil {
				if !errors.Is(err, integrity.ErrMalformed) {
					t.Fatalf("%T: untyped error: %v", v, err)
				}
				continue
			}
			again, err := v.MarshalBinary()
			if err != nil || !bytes.Equal(again, p) {
				t.Fatalf("%T: accepted %d bytes re-marshal to %d other bytes (%v)", v, len(p), len(again), err)
			}
			if cap(again) != len(again) {
				t.Fatalf("%T: marshal sized %d bytes for %d", v, cap(again), len(again))
			}
		}
	})
}

// TestResumeRecomputesGobState: the checkpoints a server job suspended at
// 872bd60 staged out (internal/server/testdata/gobstate-872bd60: gob
// snapshots of partition, cluster and merge under that revision's run ID)
// restore nothing — every phase is recomputed and the output is a fresh
// run's — and had the run IDs matched, the record decoders would have
// refused them as corrupt rather than decode them into wrong state.
func TestResumeRecomputesGobState(t *testing.T) {
	const job = "../server/testdata/gobstate-872bd60/jobs/job-000001"
	stage := func(withState bool) *lustre.FS {
		fs := lustre.New(lustre.Titan(), nil)
		paths := []string{filepath.Join(job, "input.mrsc")}
		if withState {
			staged, err := filepath.Glob(filepath.Join(job, "ckpt", "*"))
			if err != nil || len(staged) == 0 {
				t.Fatalf("no staged state in %s (%v)", job, err)
			}
			paths = append(paths, staged...)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Create(filepath.Base(path)).WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	cfg := Default(0.1, 20, 2) // the job's spec.json, as the server configures it
	cfg.IncludeNoise = true
	cfg.Checkpoint = true
	fresh := stage(false)
	if _, err := Run(fresh, "input.mrsc", "output.mrsl", cfg); err != nil {
		t.Fatal(err)
	}
	want := fileBytes(t, fresh, "output.mrsl")

	fs := stage(true)
	full := cfg
	if err := full.setDefaults(); err != nil {
		t.Fatal(err)
	}
	summary := fmt.Sprintf("|summary-v%d", merge.SummarySchema)
	if runFingerprint(&full, fs, "input.mrsc") != fingerprintAt(&full, fs, "input.mrsc", false, summary+"|"+checkpoint.RecordsTag) {
		t.Fatal("fingerprintAt no longer mirrors runFingerprint")
	}
	// The testdata's revision wrote summary schema 2.
	gob := checkpoint.NewStore(checkpoint.LustreFS(fs), fingerprintAt(&full, fs, "input.mrsc", false, "|summary-v2"))
	phases := []string{PhasePartition, PhaseCluster, PhaseMerge}
	if got := gob.ValidPrefix(phases); got != len(phases) {
		t.Fatalf("testdata holds %d valid phases under the gob revision's run ID, want %d", got, len(phases))
	}
	for phase, into := range map[string]snapshotCodec{PhasePartition: &partitionCkpt{}, PhaseCluster: &clusterCkpt{}, PhaseMerge: &mergeCkpt{}} {
		if err := gob.Load(phase, into); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("gob %s snapshot into %T: err = %v, want ErrCorrupt", phase, into, err)
		}
	}

	cfg.Resume = true
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RestoredPhases) != 0 {
		t.Fatalf("RestoredPhases = %v from a gob store, want none", res.RestoredPhases)
	}
	if !bytes.Equal(fileBytes(t, fs, "output.mrsl"), want) {
		t.Fatal("output after ignoring the gob snapshots differs from a fresh run's")
	}
}
