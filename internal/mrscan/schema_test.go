package mrscan

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/lustre"
	"repro/internal/merge"
	"repro/internal/ptio"
	"repro/internal/sweep"
)

// The map-shaped summary (merge.SummarySchema 1) and the snapshots that
// held it, as the parent revision wrote them.
type v1CellData struct {
	Reps          []geom.Point
	OwnedNonCore  map[uint64]geom.Point
	ShadowNonCore map[uint64]geom.Point
	Owned         bool
}

type v1Summary struct {
	Key     merge.ClusterKey
	Members []merge.ClusterKey
	Cells   map[grid.Coord]*v1CellData
}

type v1LeafState struct {
	Owned     []geom.Point
	Labels    []int32
	Summaries []*v1Summary
	GPUTime   int64
	Stats     gdbscan.Stats
}

type v1ClusterCkpt struct{ Leaves []v1LeafState }

type v1MergeCkpt struct{ Final []*v1Summary }

func toV1(sums []*merge.Summary) []*v1Summary {
	out := make([]*v1Summary, len(sums))
	for i, s := range sums {
		v := &v1Summary{Key: s.Key, Members: s.Members, Cells: map[grid.Coord]*v1CellData{}}
		for j := range s.Cells {
			c := &s.Cells[j]
			cd := &v1CellData{Reps: s.Reps(c), Owned: c.Owned, OwnedNonCore: map[uint64]geom.Point{}, ShadowNonCore: map[uint64]geom.Point{}}
			for _, p := range s.OwnedNonCore(c) {
				cd.OwnedNonCore[p.ID] = p
			}
			for _, p := range s.ShadowNonCore(c) {
				cd.ShadowNonCore[p.ID] = p
			}
			v.Cells[c.Coord] = cd
		}
		out[i] = v
	}
	return out
}

// fingerprintAt is runFingerprint as a revision whose fingerprint ended in
// tail after the configuration computed it, with aggregated in the slot
// of the removed log-structured-writes option (and false in the removed
// border-reclaim option's, its default on every revision).
func fingerprintAt(cfg *Config, fs *lustre.FS, inputFile string, aggregated bool, tail string) string {
	size, _ := fs.Size(inputFile)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%g|%d|%d|%d|%d|%q|%t|%t|%t|%t|%t|%t|%t|%d|%v|%d|%d|%d|%t%s",
		inputFile, size, cfg.Eps, cfg.MinPts, cfg.Leaves, cfg.PartitionLeaves,
		cfg.Fanout, cfg.Topology, cfg.DenseBox, cfg.ShadowReps, cfg.Rebalance,
		cfg.IncludeNoise, cfg.HasWeight, cfg.DirectPartitions, false,
		cfg.HotCellThreshold, cfg.Mode, cfg.Blocks, cfg.ThreadsPerBlock, cfg.LeafSize,
		aggregated, tail)
	return fmt.Sprintf("mrscan-%016x", h.Sum64())
}

// v1Fingerprint is runFingerprint before the summary schema joined it.
func v1Fingerprint(cfg *Config, fs *lustre.FS, inputFile string) string {
	return fingerprintAt(cfg, fs, inputFile, false, "")
}

// TestV1SummaryNeverDecodesUsable pins why the fingerprint carries the
// summary schema: gob matches fields by name, so a schema-1 summary fed
// to the flat type must fail or come out empty — it can never come out
// right, and a resumed run that trusted it would merge nothing.
func TestV1SummaryNeverDecodesUsable(t *testing.T) {
	k := merge.ClusterKey{Leaf: 1}
	old := []*v1Summary{{Key: k, Members: []merge.ClusterKey{k}, Cells: map[grid.Coord]*v1CellData{
		{CX: 1}: {Reps: []geom.Point{{ID: 7, X: 0.15}}, Owned: true},
	}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var got []*merge.Summary
	if err := gob.NewDecoder(&buf).Decode(&got); err == nil && len(got) == 1 && len(got[0].Cells) == 1 && got[0].Cells[0].NReps == 1 {
		t.Fatal("a schema-1 summary decoded into a usable flat one; the schema constant would be unnecessary")
	}
}

// TestResumeIgnoresV1Snapshots: a state directory the parent revision
// left behind — cluster and merge snapshots holding map-shaped summaries
// under the parent's fingerprint — is not restored from: every phase is
// recomputed and the output is a fresh run's.
func TestResumeIgnoresV1Snapshots(t *testing.T) {
	cfg := ckptConfig()
	refFS := writeInput(t)
	if _, err := Run(refFS, "input.mrsc", "output.mrsl", cfg); err != nil {
		t.Fatal(err)
	}
	want := fileBytes(t, refFS, "output.mrsl")

	// Rewrite refFS's snapshots as the parent would have written them
	// (fingerprints are taken over the defaulted config, as Run does).
	fs := refFS
	full := cfg
	if err := full.setDefaults(); err != nil {
		t.Fatal(err)
	}
	cur := checkpoint.NewStore(checkpoint.LustreFS(fs), runFingerprint(&full, fs, "input.mrsc"))
	var part partitionCkpt
	var cl clusterCkpt
	var mg mergeCkpt
	for name, into := range map[string]any{PhasePartition: &part, PhaseCluster: &cl, PhaseMerge: &mg} {
		if err := cur.Load(name, into); err != nil {
			t.Fatalf("loading the %s snapshot: %v", name, err)
		}
	}
	if v1Fingerprint(&full, fs, "input.mrsc") == runFingerprint(&full, fs, "input.mrsc") {
		t.Fatal("fingerprint does not carry the summary schema")
	}
	old := checkpoint.NewStore(checkpoint.LustreFS(fs), v1Fingerprint(&full, fs, "input.mrsc"))
	oldCl := v1ClusterCkpt{}
	for _, l := range cl.Leaves {
		oldCl.Leaves = append(oldCl.Leaves, v1LeafState{Owned: l.Owned, Labels: l.Labels, Summaries: toV1(l.Summaries), Stats: l.Stats})
	}
	for _, snap := range []struct {
		name string
		v    any
	}{{PhasePartition, &part}, {PhaseCluster, &oldCl}, {PhaseMerge, &v1MergeCkpt{Final: toV1(mg.Final)}}} {
		if err := old.Save(snap.name, snap.v); err != nil {
			t.Fatal(err)
		}
	}
	if got := old.ValidPrefix([]string{PhasePartition, PhaseCluster, PhaseMerge}); got != 3 {
		t.Fatalf("fixture store holds %d valid phases, want 3", got)
	}

	cfg.Resume = true
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RestoredPhases) != 0 {
		t.Fatalf("RestoredPhases = %v from a schema-1 store, want none", res.RestoredPhases)
	}
	if !bytes.Equal(fileBytes(t, fs, "output.mrsl"), want) {
		t.Fatal("output after ignoring schema-1 snapshots differs from a fresh run's")
	}
}

// rawSnapshot is a snapshot payload saved verbatim.
type rawSnapshot []byte

func (p rawSnapshot) BinarySize() int { return len(p) }

func (p rawSnapshot) AppendBinary(b []byte) ([]byte, error) { return append(b, p...), nil }

// TestResumeIgnoresAggregatedState: the state a parent revision's
// log-structured (aggregated) run left behind — a partition snapshot
// whose metadata carries a segment index, under that run's ID, beside
// the segment file it indexes — is never restored from. The run ID the
// option's removal left differs, so the resumed run recomputes every
// phase with no decode error and ends with a fresh run's output and a
// plain partition layout; had the IDs matched, the record decoder would
// have refused the snapshot as corrupt rather than drop its index.
func TestResumeIgnoresAggregatedState(t *testing.T) {
	cfg := ckptConfig()
	refFS := writeInput(t)
	ref, _, err := runState(refFS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fileBytes(t, refFS, "output.mrsl")

	// The parent's aggregated run over the same input: one partitioner
	// leaf, so its one segment holds the legacy file's bytes, every
	// partition's owned then shadow run at the legacy offsets.
	fs := writeInput(t)
	full := cfg
	if err := full.setDefaults(); err != nil {
		t.Fatal(err)
	}
	const leftover = partitionFile + ".seg0"
	if _, err := fs.Create(leftover).WriteAt(fileBytes(t, refFS, partitionFile), 0); err != nil {
		t.Fatal(err)
	}
	var runs []map[string]any
	entries := slices.Clone(ref.part.Meta.Partitions)
	for j, e := range entries {
		runs = append(runs, map[string]any{"leaf": 0, "partition": j, "offset": e.Offset, "count": e.Count})
		if e.ShadowCount > 0 {
			runs = append(runs, map[string]any{"leaf": 0, "partition": j, "shadow": true, "offset": e.ShadowOffset, "count": e.ShadowCount})
		}
		entries[j].Offset, entries[j].ShadowOffset = -1, -1
	}
	doc, err := json.MarshalIndent(struct {
		ptio.PartitionMeta
		Segments []map[string]any `json:"segments"`
	}{ptio.PartitionMeta{Eps: full.Eps, Partitions: entries}, []map[string]any{{"file": leftover, "runs": runs}}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ref.part.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := append(slices.Clone(plain[:partitionHdr]), doc...)
	le.PutUint64(payload[40:], uint64(len(doc)))
	payload = append(payload, plain[partitionHdr+int(le.Uint64(plain[40:])):]...)

	summary := fmt.Sprintf("|summary-v%d|%s", merge.SummarySchema, checkpoint.RecordsTag)
	aggID := fingerprintAt(&full, fs, "input.mrsc", true, summary)
	if aggID == runFingerprint(&full, fs, "input.mrsc") {
		t.Fatal("an aggregated run's ID equals a plain run's")
	}
	old := checkpoint.NewStore(checkpoint.LustreFS(fs), aggID)
	if err := old.Save(PhasePartition, rawSnapshot(payload)); err != nil {
		t.Fatal(err)
	}
	if got := old.ValidPrefix([]string{PhasePartition}); got != 1 {
		t.Fatalf("fixture store holds %d valid phases, want 1", got)
	}
	if err := old.Load(PhasePartition, &partitionCkpt{}); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("aggregated snapshot decoded with err = %v, want ErrCorrupt", err)
	}
	if IsStateFile(leftover) {
		t.Fatalf("%s counts as pipeline state", leftover)
	}

	cfg.Resume = true
	r, res, err := runState(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RestoredPhases) != 0 {
		t.Fatalf("RestoredPhases = %v from an aggregated store, want none", res.RestoredPhases)
	}
	if !bytes.Equal(fileBytes(t, fs, "output.mrsl"), want) {
		t.Fatal("output after ignoring the aggregated state differs from a fresh run's")
	}
	if !slices.Equal(r.part.Meta.Partitions, ref.part.Meta.Partitions) {
		t.Fatal("resumed run's partition layout differs from a fresh run's")
	}
	if meta := fileBytes(t, fs, metadataFile); bytes.Contains(meta, []byte(`"segments"`)) {
		t.Fatalf("resumed run's metadata carries a segment index:\n%s", meta)
	}
}

// labelsByIDMap is LabelsByID as it was: a hash map over the output.
func labelsByIDMap(fs *lustre.FS, file string, pts []geom.Point) ([]int, error) {
	out, err := sweep.ReadOutput(fs, file)
	if err != nil {
		return nil, err
	}
	byID := make(map[uint64]int64, len(out))
	for _, lp := range out {
		if _, dup := byID[lp.Point.ID]; dup {
			return nil, fmt.Errorf("mrscan: point %d written twice", lp.Point.ID)
		}
		byID[lp.Point.ID] = lp.Cluster
	}
	labels := make([]int, len(pts))
	for i, p := range pts {
		if c, ok := byID[p.ID]; ok {
			labels[i] = int(c)
		} else {
			labels[i] = -1
		}
	}
	return labels, nil
}

// TestLabelsByIDMatchesMapVersion: on dense, shuffled, offset and sparse
// IDs, with a third of the points absent from the output (⇒ -1), an
// output point the input lacks, and input points repeated, LabelsByID
// agrees with the map version — including on "written twice".
func TestLabelsByIDMatchesMapVersion(t *testing.T) {
	const n = 2000
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(n)
	ids := map[string]func(i int) uint64{
		"dense":    func(i int) uint64 { return uint64(i) },
		"shuffled": func(i int) uint64 { return uint64(perm[i]) },
		"offset":   func(i int) uint64 { return 1<<40 + uint64(perm[i]) },
		"sparse":   func(i int) uint64 { return uint64(perm[i])*1_000_003 + 17 },
	}
	for name, id := range ids {
		for _, twice := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/twice=%t", name, twice), func(t *testing.T) {
				pts := make([]geom.Point, n)
				var out []ptio.LabeledPoint
				for i := range pts {
					pts[i] = geom.Point{ID: id(i), X: float64(i)}
					if i%3 != 0 {
						out = append(out, ptio.LabeledPoint{Point: pts[i], Cluster: int64(i % 7)})
					}
				}
				out = append(out, ptio.LabeledPoint{Point: geom.Point{ID: 1 << 50}, Cluster: 1})
				if twice {
					out = append(out, out[5])
				}
				pts = append(pts, pts[4], pts[4], pts[9])
				fs := lustre.New(lustre.Titan(), nil)
				if err := ptio.WriteLabeled(fs.Create("out.mrsl"), out); err != nil {
					t.Fatal(err)
				}
				got, err := LabelsByID(fs, "out.mrsl", pts)
				want, werr := labelsByIDMap(fs, "out.mrsl", pts)
				if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
					t.Fatalf("err = %v, map version says %v", err, werr)
				}
				if twice != (err != nil) {
					t.Fatalf("twice=%t but err = %v", twice, err)
				}
				if !slices.Equal(got, want) {
					t.Fatal("labels differ from the map version's")
				}
			})
		}
	}
}
