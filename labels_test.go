package mrscan

import (
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/mrscan"
)

// hashInts is FNV-1a over the values, eight little-endian bytes each.
func hashInts[E ~int | ~int32 | ~int64](vs []E) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := uint64(int64(v))
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func hashBools(vs []bool) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// TestLabelsIndependentOfTreeShape pins what the KD-tree's shape must
// never reach: RunPoints' labels and cluster count, and the core flags
// and labels of gdbscan.Cluster over the whole input (RunPoints does not
// return core flags). The golden values were captured at commit 9f6e11b
// — the last revision whose tree was built by per-level median selection
// over the points — before the cell-first build replaced it, so a tree
// that leaks into a label (a border tie, a box that is not one cluster, a
// missed link) fails here on real data. Two RunPoints hashes were taken
// again when every sweep began to read the shadow views' border claims:
// one noise point in twitter60k_8 and one in twitter4k_4 became border
// members of a cluster with a core within Eps, as exact DBSCAN has them
// (EXPERIMENTS.md "One sweep rule").
func TestLabelsIndependentOfTreeShape(t *testing.T) {
	for _, c := range []struct {
		name string
		pts  []Point
		cfg  Config
		// RunPoints: hash of the labels, cluster count.
		labels   uint64
		clusters int
		// gdbscan.Cluster over all of pts: hashes of Core and Labels,
		// core points, cluster count.
		core, local             uint64
		corePoints, numClusters int
	}{
		{"twitter60k_8", dataset.Twitter(60_000, 1), Default(0.1, 40, 8),
			0x8b7f413d6a3b661f, 146, 0x172a3b651fa51051, 0xba34826a093e38f2, 43754, 146},
		{"sdss150k_16", dataset.SDSS(150_000, 1), Default(0.00015, 5, 16),
			0x7963e3e90f3eb558, 8420, 0xb72d37be2f4c1af8, 0x5c9c13f8fcd9e97a, 122847, 8420},
		{"twitter4k_4", dataset.Twitter(4_000, 1), Default(0.1, 40, 4),
			0x7ebb2f21091eefda, 20, 0xf01e57378e3cb019, 0xcca7ee6592c31f45, 1060, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, labels, err := RunPoints(c.pts, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := hashInts(labels); got != c.labels || res.NumClusters != c.clusters {
				t.Errorf("RunPoints: labels %#x in %d clusters, golden %#x in %d",
					got, res.NumClusters, c.labels, c.clusters)
			}
			dev := gpusim.New(gpusim.K20(), nil)
			one, err := gdbscan.Cluster(dev, c.pts, gdbscan.Options{
				Params:   geom.Params{Eps: c.cfg.Eps, MinPts: c.cfg.MinPts},
				DenseBox: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := hashBools(one.Core); got != c.core || one.Stats.CorePoints != c.corePoints {
				t.Errorf("gdbscan: core flags %#x (%d core), golden %#x (%d)",
					got, one.Stats.CorePoints, c.core, c.corePoints)
			}
			if got := hashInts(one.Labels); got != c.local || one.NumClusters != c.numClusters {
				t.Errorf("gdbscan: labels %#x in %d clusters, golden %#x in %d",
					got, one.NumClusters, c.local, c.numClusters)
			}
		})
	}
}

// TestRunPointsRepeatable: the pipeline's labels and its simulated GPU
// time are a function of the input alone, whatever the scheduling. The
// full label loop — 300 repeats of each shape at each GOMAXPROCS, 2 400
// runs — hashed identically at 9f6e11b, which places the 1-in-300
// relabelling seen on the serve_jobs workload (ROADMAP item 1) in what
// the server does around a run, not in the pipeline; this is that loop
// at 5 repeats. Cluster workers follow GOMAXPROCS, so the SDSS row has
// far fewer workers than its 16 leaves (one workspace serves up to all
// 16). The CUDA-DClust row covers the ablation arm's kernels, whose
// per-round launches and copies are charged to the same clock.
func TestRunPointsRepeatable(t *testing.T) {
	const repeats = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cudaDClust := Default(0.1, 40, 8)
	cudaDClust.Mode = gdbscan.ModeCUDADClust
	for _, c := range []struct {
		name string
		pts  []Point
		cfg  Config
	}{
		{"twitter4k_4", dataset.Twitter(4_000, 1), Default(0.1, 40, 4)},
		{"twitter30k_4", dataset.Twitter(30_000, 1), Default(0.1, 40, 4)},
		{"sdss50k_16", dataset.SDSS(50_000, 1), Default(0.00015, 5, 16)},
		{"twitter30k_8_cudadclust", dataset.Twitter(30_000, 1), cudaDClust},
	} {
		var wantLabels, wantTimes uint64
		for _, procs := range []int{1, 2, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for r := 0; r < repeats; r++ {
				labels, times := repeatableHashes(t, c.pts, c.cfg)
				if wantLabels == 0 {
					wantLabels, wantTimes = labels, times
				}
				if labels != wantLabels {
					t.Fatalf("%s, GOMAXPROCS %d, repeat %d: labels %#x, first run %#x",
						c.name, procs, r, labels, wantLabels)
				}
				if times != wantTimes {
					t.Fatalf("%s, GOMAXPROCS %d, repeat %d: GPU times %#x, first run %#x",
						c.name, procs, r, times, wantTimes)
				}
			}
		}
	}
}

// repeatableHashes runs the pipeline as RunPoints does, on a file system
// of its own so that its simulated clock can be read, and hashes the
// labels with the cluster count, and the slowest leaf's GPU time with
// every gpuNNNN/sm and gpuNNNN/pcie resource.
func repeatableHashes(t *testing.T, pts []Point, cfg Config) (labels, times uint64) {
	t.Helper()
	fs := NewFS()
	if err := WriteDataset(fs, "input.mrsc", pts, cfg.HasWeight); err != nil {
		t.Fatal(err)
	}
	cfg.IncludeNoise = true
	res, err := Run(fs, "input.mrsc", "output.mrsl", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := mrscan.LabelsByID(fs, res.OutputFile, pts)
	if err != nil {
		t.Fatal(err)
	}
	gpu := []time.Duration{res.Times.GPUDBSCAN}
	for _, r := range fs.Clock().Snapshot() {
		if strings.HasPrefix(r.Name, "gpu") {
			gpu = append(gpu, r.Busy)
		}
	}
	if len(gpu) != 1+2*cfg.Leaves {
		t.Fatalf("%d gpuNNNN resources on the clock, want 2 for each of %d leaves", len(gpu)-1, cfg.Leaves)
	}
	return hashInts(append(ls, res.NumClusters)), hashInts(gpu)
}
