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
	"repro/internal/geom"
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

// realSnapshotValues returns the three snapshots of a small run in each
// mode that shapes them differently: partition files, direct partitions,
// eight partitions written by two partitioner leaves, and CUDA-DClust's
// per-round transfer bytes.
func realSnapshotValues(tb testing.TB) []snapshotCodec {
	var out []snapshotCodec
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
		out = append(out, &r.part, &r.clustered, &r.merged)
	}
	return out
}

// realSnapshots encodes realSnapshotValues.
func realSnapshots(tb testing.TB) [][]byte {
	var out [][]byte
	for _, v := range realSnapshotValues(tb) {
		p, err := v.AppendBinary(nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// marshalled is each snapshot's encoding as its MarshalBinary built it,
// into a fresh buffer, before the checkpoint store appended snapshots to
// pooled buffers: the reference AppendBinary is held to.
func marshalled(tb testing.TB, v snapshotCodec) []byte {
	tb.Helper()
	switch c := v.(type) {
	case *partitionCkpt:
		var meta []byte
		if c.Meta != nil {
			var err error
			if meta, err = c.Meta.Marshal(); err != nil {
				tb.Fatal(err)
			}
		}
		var flags uint64
		if c.Direct {
			flags = 1
		}
		var buf []byte
		for _, w := range [...]uint64{flags, uint64(c.TotalPoints), uint64(c.WrittenPoints), uint64(c.ReadSim), uint64(c.WriteSim),
			uint64(len(meta)), uint64(len(c.Partitions)), uint64(len(c.Shadows))} {
			buf = le.AppendUint64(buf, w)
		}
		buf = append(buf, meta...)
		for _, regions := range [2][][]geom.Point{c.Partitions, c.Shadows} {
			for _, pts := range regions {
				buf = le.AppendUint64(buf, uint64(len(pts)))
			}
		}
		for _, regions := range [2][][]geom.Point{c.Partitions, c.Shadows} {
			for _, pts := range regions {
				buf = appendPoints(buf, pts)
			}
		}
		return buf
	case *clusterCkpt:
		buf := le.AppendUint64(nil, uint64(len(c.Leaves)))
		for i := range c.Leaves {
			l := &c.Leaves[i]
			st := &l.Stats
			for _, w := range [...]int64{int64(l.GPUTime),
				int64(st.DenseBoxes), int64(st.DenseBoxPoints), int64(st.CellCorePoints), int64(st.CellNonCorePoints),
				int64(st.SeedRounds), int64(st.Collisions), int64(st.BorderAttached), int64(st.CorePoints),
				st.DeviceH2DBytes, st.DeviceD2HBytes, st.DeviceTransfers,
				int64(len(l.Owned)), int64(len(l.Labels)), int64(len(st.RoundTransferBytes)), int64(merge.BlockSize(l.Summaries))} {
				buf = le.AppendUint64(buf, uint64(w))
			}
			buf = appendPoints(buf, l.Owned)
			for _, lab := range l.Labels {
				buf = le.AppendUint32(buf, uint32(lab))
			}
			for _, b := range st.RoundTransferBytes {
				buf = le.AppendUint64(buf, uint64(b))
			}
			buf = merge.AppendSummaries(buf, l.Summaries)
		}
		return buf
	case *mergeCkpt:
		return merge.AppendSummaries(nil, c.Final)
	}
	tb.Fatalf("no reference encoding for %T", v)
	return nil
}

// TestAppendBinaryMatchesMarshal: every snapshot, real or empty, appends
// exactly the bytes its MarshalBinary returned after whatever the buffer
// already held, BinarySize of them, into dirty spare capacity.
func TestAppendBinaryMatchesMarshal(t *testing.T) {
	values := append(realSnapshotValues(t), &partitionCkpt{}, &clusterCkpt{}, &mergeCkpt{})
	for i, v := range values {
		want := marshalled(t, v)
		prefix := bytes.Repeat([]byte{0xFF}, 5+len(want))[:5]
		got, err := v.AppendBinary(prefix)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:5], prefix) || !bytes.Equal(got[5:], want) {
			t.Fatalf("snapshot %d (%T): AppendBinary(prefix) is not the prefix and the marshalled %d bytes", i, v, len(want))
		}
		if n := v.BinarySize(); n != len(want) {
			t.Fatalf("snapshot %d (%T): BinarySize %d, encoding %d bytes", i, v, n, len(want))
		}
	}
}

// FuzzSnapshotDecode feeds every snapshot decoder arbitrary bytes. None
// panics; none allocates beyond a small multiple of its input, so a
// hostile leaf, region or point count is refused before it sizes
// anything; each fails only with integrity.ErrMalformed; and what one
// accepts re-encodes to the same bytes, BinarySize of them.
func FuzzSnapshotDecode(f *testing.F) {
	for _, p := range realSnapshots(f) {
		f.Add(p)
	}
	for _, v := range []snapshotCodec{&partitionCkpt{}, &clusterCkpt{}, &mergeCkpt{}} {
		p, _ := v.AppendBinary(nil)
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
			again, err := v.AppendBinary(nil)
			if err != nil || !bytes.Equal(again, p) {
				t.Fatalf("%T: accepted %d bytes re-encode to %d other bytes (%v)", v, len(p), len(again), err)
			}
			if n := v.BinarySize(); n != len(again) {
				t.Fatalf("%T: BinarySize %d for %d encoded bytes", v, n, len(again))
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
