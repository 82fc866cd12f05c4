package mrscan

import (
	"math/rand"
	"testing"

	"errors"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/quality"
)

// runAndScore executes the pipeline and the reference DBSCAN on pts and
// returns the DBDC quality score plus both results.
func runAndScore(t *testing.T, pts []geom.Point, cfg Config) (float64, *Result, *dbscan.Result) {
	t.Helper()
	res, labels, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: cfg.Eps, MinPts: cfg.MinPts})
	if err != nil {
		t.Fatal(err)
	}
	score, err := quality.Score(ref.Labels, labels)
	if err != nil {
		t.Fatal(err)
	}
	return score, res, ref
}

func TestEndToEndTwitterQuality(t *testing.T) {
	// The Figure 11 property: Mr. Scan's output quality versus
	// single-CPU DBSCAN "did not get lower than a .995 quality score".
	pts := dataset.Twitter(20000, 1)
	for _, leaves := range []int{1, 2, 4, 8} {
		cfg := Default(0.1, 40, leaves)
		score, res, ref := runAndScore(t, pts, cfg)
		if score < 0.995 {
			t.Errorf("leaves=%d: quality = %.4f, want >= 0.995", leaves, score)
		}
		if res.NumClusters != ref.NumClusters {
			t.Logf("leaves=%d: NumClusters = %d vs reference %d (score %.4f)",
				leaves, res.NumClusters, ref.NumClusters, score)
		}
	}
}

func TestEndToEndAcrossMinPts(t *testing.T) {
	// The paper's four MinPts values (scaled to the dataset size; 4000
	// exceeds any cluster in 15k points, so use 4..400).
	pts := dataset.Twitter(15000, 2)
	for _, minPts := range []int{4, 40, 400} {
		cfg := Default(0.1, minPts, 4)
		score, _, _ := runAndScore(t, pts, cfg)
		if score < 0.995 {
			t.Errorf("MinPts=%d: quality = %.4f, want >= 0.995", minPts, score)
		}
	}
}

func TestEndToEndSDSS(t *testing.T) {
	// §5.2 parameters: Eps = 0.00015, MinPts = 5.
	pts := dataset.SDSS(12000, 3)
	cfg := Default(0.00015, 5, 4)
	score, res, ref := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("quality = %.4f, want >= 0.995", score)
	}
	if res.NumClusters < ref.NumClusters*9/10 {
		t.Errorf("NumClusters = %d, reference %d", res.NumClusters, ref.NumClusters)
	}
}

func TestEndToEndDenseBoxOff(t *testing.T) {
	pts := dataset.Twitter(10000, 4)
	cfg := Default(0.1, 40, 4)
	cfg.DenseBox = false
	score, _, _ := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("quality without dense box = %.4f, want >= 0.995", score)
	}
}

func TestEndToEndShadowReps(t *testing.T) {
	// The §3.1.3 optimization preserves local quality but "may cause the
	// merge algorithm to occasionally miss the opportunity to combine
	// clusters" — expect slightly lower but still high quality.
	pts := dataset.Twitter(10000, 5)
	cfg := Default(0.1, 40, 4)
	cfg.ShadowReps = true
	score, _, _ := runAndScore(t, pts, cfg)
	if score < 0.95 {
		t.Errorf("quality with shadow reps = %.4f, want >= 0.95", score)
	}
}

func TestEndToEndUniform(t *testing.T) {
	// PDSDBSCAN's evaluation dataset shape: uniformly random points.
	pts := dataset.Uniform(15000, 6, geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10})
	cfg := Default(0.1, 10, 8)
	score, _, _ := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("quality on uniform data = %.4f, want >= 0.995", score)
	}
}

// TestBorderReclaimImprovesMarginalDensity targets the paper's residual
// error class: at core-margin density, border points whose only core
// neighbors sit in the owner's shadow get written as noise. Border
// reclaim (an extension beyond the paper) must recover them.
func TestBorderReclaimImprovesMarginalDensity(t *testing.T) {
	pts := dataset.Uniform(8000, 33, geom.Rect{MinX: 0, MinY: 0, MaxX: 5, MaxY: 5})
	base := Default(0.1, 8, 9)
	baseScore, _, _ := runAndScore(t, pts, base)

	reclaim := Default(0.1, 8, 9)
	reclaim.ReclaimBorders = true
	reclaimScore, _, _ := runAndScore(t, pts, reclaim)

	if reclaimScore < baseScore {
		t.Errorf("reclaim lowered quality: %.4f vs %.4f", reclaimScore, baseScore)
	}
	if reclaimScore < 0.998 {
		t.Errorf("quality with border reclaim = %.4f, want >= 0.998", reclaimScore)
	}
	t.Logf("quality: paper-faithful %.4f, with border reclaim %.4f", baseScore, reclaimScore)
}

func TestOutputConsistency(t *testing.T) {
	pts := dataset.Twitter(8000, 7)
	cfg := Default(0.1, 40, 4)
	res, labels, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every input point appears exactly once (IncludeNoise was set by
	// RunPoints), labels are dense-bounded.
	if res.Stats.OutputPoints != int64(len(pts)) {
		t.Errorf("OutputPoints = %d, want %d", res.Stats.OutputPoints, len(pts))
	}
	for i, l := range labels {
		if l >= res.NumClusters {
			t.Fatalf("point %d labeled %d, only %d clusters", i, l, res.NumClusters)
		}
	}
	if res.Stats.TotalPoints != int64(len(pts)) {
		t.Errorf("TotalPoints = %d", res.Stats.TotalPoints)
	}
	if res.Stats.WrittenPoints < res.Stats.TotalPoints {
		t.Errorf("WrittenPoints = %d < input %d", res.Stats.WrittenPoints, res.Stats.TotalPoints)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	// Global cluster structure must be stable across runs (modulo border
	// points, whose assignment may race; cluster count must not change).
	pts := dataset.Twitter(8000, 8)
	cfg := Default(0.1, 40, 4)
	res1, _, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res2, _, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.NumClusters != res2.NumClusters {
		t.Errorf("NumClusters differs across runs: %d vs %d", res1.NumClusters, res2.NumClusters)
	}
}

// TestConcurrentIndependentRuns checks that whole pipelines share no
// hidden global state: several runs on different datasets execute
// concurrently and each must match its own sequential result.
func TestConcurrentIndependentRuns(t *testing.T) {
	type outcome struct {
		clusters int
		err      error
	}
	const runs = 4
	want := make([]int, runs)
	data := make([][]geom.Point, runs)
	for r := 0; r < runs; r++ {
		data[r] = dataset.Twitter(4000, int64(100+r))
		res, _, err := RunPoints(data[r], Default(0.1, 40, 2))
		if err != nil {
			t.Fatal(err)
		}
		want[r] = res.NumClusters
	}
	results := make([]outcome, runs)
	done := make(chan int, runs)
	for r := 0; r < runs; r++ {
		go func(r int) {
			res, _, err := RunPoints(data[r], Default(0.1, 40, 2))
			if err == nil {
				results[r] = outcome{clusters: res.NumClusters}
			} else {
				results[r] = outcome{err: err}
			}
			done <- r
		}(r)
	}
	for i := 0; i < runs; i++ {
		<-done
	}
	for r := 0; r < runs; r++ {
		if results[r].err != nil {
			t.Fatalf("run %d failed: %v", r, results[r].err)
		}
		if results[r].clusters != want[r] {
			t.Errorf("run %d found %d clusters concurrently, %d sequentially",
				r, results[r].clusters, want[r])
		}
	}
}

// TestPartitionWriteDominatesRead reproduces the §5.1.1 in-phase split:
// at MinPts=400 the paper measured the partition write stage at 65.2% of
// the phase vs 29.9% for the read — because the write is many small
// random seeks while the read streams. The simulated Lustre costs must
// show the same ordering.
func TestPartitionWriteDominatesRead(t *testing.T) {
	pts := dataset.Twitter(20000, 25)
	cfg := Default(0.1, 400, 32)
	cfg.PartitionLeaves = 4
	res, _, err := RunPoints(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	read, write := res.Times.PartitionReadSim, res.Times.PartitionWriteSim
	if read <= 0 || write <= 0 {
		t.Fatalf("sim stage costs must be positive: read=%v write=%v", read, write)
	}
	if write <= read {
		t.Errorf("write stage (%v) must dominate read stage (%v) — the paper's 65%%/30%% split", write, read)
	}
	// Direct transfer bypasses the file system entirely.
	direct := Default(0.1, 400, 32)
	direct.DirectPartitions = true
	dres, _, err := RunPoints(pts, direct)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Times.PartitionWriteSim != 0 {
		t.Errorf("direct transfer charged %v of partition write I/O", dres.Times.PartitionWriteSim)
	}
}

func TestPhaseTimesPopulated(t *testing.T) {
	pts := dataset.Twitter(5000, 9)
	res, _, err := RunPoints(pts, Default(0.1, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Times
	if tm.Partition <= 0 || tm.Cluster <= 0 || tm.Merge <= 0 || tm.Sweep <= 0 {
		t.Errorf("phase times must be positive: %+v", tm)
	}
	if tm.GPUDBSCAN <= 0 || tm.GPUDBSCAN > tm.Cluster {
		t.Errorf("GPU time %v must be positive and within cluster time %v", tm.GPUDBSCAN, tm.Cluster)
	}
	if tm.Total < tm.Partition+tm.Cluster+tm.Merge+tm.Sweep {
		t.Errorf("total %v less than phase sum", tm.Total)
	}
	if res.Stats.SimNow <= 0 {
		t.Error("simulated clock must have advanced")
	}
}

// TestGPUMemoryLimit reproduces the constraint behind the paper's weak
// scaling load: "each compute node has ... an NVIDIA Tesla K20
// accelerator with 6 GB of memory" bounded the partition a leaf could
// hold (§4: memory limits made single-node comparison impossible). A
// partition that does not fit device memory must fail loudly.
func TestGPUMemoryLimit(t *testing.T) {
	pts := dataset.Twitter(20000, 23)
	cfg := Default(0.1, 40, 1) // everything on one leaf
	cfg.GPU.MemBytes = 64 << 10
	_, _, err := RunPoints(pts, cfg)
	if err == nil {
		t.Fatal("run must fail when the partition exceeds device memory")
	}
	if !errors.Is(err, gpusim.ErrOutOfMemory) {
		t.Errorf("error %v does not wrap gpusim.ErrOutOfMemory", err)
	}
	// Spreading the same data over more leaves makes it fit — the
	// paper's remedy.
	cfg = Default(0.1, 40, 8)
	cfg.GPU.MemBytes = 4 << 20
	if _, _, err := RunPoints(pts, cfg); err != nil {
		t.Fatalf("8-leaf run must fit in 4 MiB per device: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	pts := dataset.Twitter(100, 10)
	if _, _, err := RunPoints(pts, Config{Eps: 0, MinPts: 4, Leaves: 2}); err == nil {
		t.Error("Eps=0 must fail")
	}
	if _, _, err := RunPoints(pts, Config{Eps: 0.1, MinPts: 0, Leaves: 2}); err == nil {
		t.Error("MinPts=0 must fail")
	}
	if _, _, err := RunPoints(pts, Config{Eps: 0.1, MinPts: 4, Leaves: 0}); err == nil {
		t.Error("Leaves=0 must fail")
	}
}

func TestMoreLeavesThanData(t *testing.T) {
	// Degenerate: 32 leaves for 200 points — most partitions are empty
	// or tiny; the pipeline must still be correct.
	pts := dataset.Twitter(200, 11)
	cfg := Default(0.1, 4, 32)
	score, _, _ := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("quality = %.4f, want >= 0.995", score)
	}
}

func TestSinglePointAndEmptyClusters(t *testing.T) {
	pts := []geom.Point{{ID: 1, X: 0, Y: 0}}
	res, labels, err := RunPoints(pts, Default(0.1, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 || labels[0] != -1 {
		t.Errorf("single point must be noise: %d clusters, label %d", res.NumClusters, labels[0])
	}
}

func TestDirectPartitionsEndToEnd(t *testing.T) {
	// The §6 future-work path: partitions travel the network instead of
	// Lustre. Same clustering quality, no partition-file writes.
	pts := dataset.Twitter(10000, 13)
	cfg := Default(0.1, 40, 4)
	cfg.DirectPartitions = true
	score, res, ref := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("quality with direct partitions = %.4f, want >= 0.995", score)
	}
	if res.NumClusters != ref.NumClusters {
		t.Logf("NumClusters = %d vs reference %d", res.NumClusters, ref.NumClusters)
	}
	// Both paths must agree on the global clustering.
	cfg2 := Default(0.1, 40, 4)
	res2, _, err := RunPoints(pts, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != res2.NumClusters {
		t.Errorf("direct path found %d clusters, file path %d", res.NumClusters, res2.NumClusters)
	}
}

// TestDeepTreeProgressiveMerge forces a 3-level tree (fanout 4, 16
// leaves: root → 4 internal processes → 16 leaves) so cluster summaries
// are progressively merged at two internal levels before reaching the
// root — the §3.3.2 path that flat test topologies never exercise.
func TestDeepTreeProgressiveMerge(t *testing.T) {
	pts := dataset.Twitter(16000, 17)
	deep := Default(0.1, 40, 16)
	deep.Fanout = 4
	score, res, _ := runAndScore(t, pts, deep)
	if score < 0.995 {
		t.Errorf("deep-tree quality = %.4f, want >= 0.995", score)
	}
	// Same clustering as the flat topology.
	flat, _, err := RunPoints(pts, Default(0.1, 40, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != flat.NumClusters {
		t.Errorf("deep tree found %d clusters, flat tree %d", res.NumClusters, flat.NumClusters)
	}
}

// TestExplicitTopologySpec pins the cluster tree with an MRNet-style
// fanout-product specification ("arbitrary topology", §1).
func TestExplicitTopologySpec(t *testing.T) {
	pts := dataset.Twitter(8000, 24)
	cfg := Default(0.1, 40, 12)
	cfg.Topology = "3x4" // root → 3 internal → 4 leaves each
	score, _, _ := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("quality with explicit topology = %.4f", score)
	}
	bad := Default(0.1, 40, 12)
	bad.Topology = "2x2" // 4 leaves ≠ 12
	if _, _, err := RunPoints(pts, bad); err == nil {
		t.Error("mismatched topology/leaves must fail")
	}
	malformed := Default(0.1, 40, 12)
	malformed.Topology = "3xbananas"
	if _, _, err := RunPoints(pts, malformed); err == nil {
		t.Error("malformed topology must fail")
	}
}

// TestBinaryTreeExtreme uses fanout 2 over 32 leaves (6 levels) to stress
// repeated summary re-reduction: representatives stay bounded and merges
// stay correct through many Combine rounds.
func TestBinaryTreeExtreme(t *testing.T) {
	pts := dataset.Twitter(8000, 18)
	cfg := Default(0.1, 40, 32)
	cfg.Fanout = 2
	score, _, _ := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("binary-tree quality = %.4f, want >= 0.995", score)
	}
}

func TestHotCellSplittingEndToEnd(t *testing.T) {
	// §5.1.2 future work: subdividing extremely dense cells. Build a
	// dataset dominated by one Eps cell, verify quality holds and the
	// hot cell spreads over multiple leaves.
	rng := rand.New(rand.NewSource(15))
	pts := make([]geom.Point, 12000)
	for i := range pts {
		if i < 9000 {
			pts[i] = geom.Point{ID: uint64(i), X: rng.Float64() * 0.1, Y: rng.Float64() * 0.1}
		} else {
			pts[i] = geom.Point{ID: uint64(i), X: rng.Float64()*4 - 2, Y: rng.Float64()*4 - 2}
		}
	}
	flatCfg := Default(0.1, 4, 8)
	flat, _, err := RunPoints(pts, flatCfg)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Stats.MaxLeafPoints < 9000 {
		t.Fatalf("without splitting one leaf must own the whole hot cell, max = %d", flat.Stats.MaxLeafPoints)
	}
	splitCfg := Default(0.1, 4, 8)
	splitCfg.HotCellThreshold = 1500
	score, res, _ := runAndScore(t, pts, splitCfg)
	if score < 0.995 {
		t.Errorf("quality with hot-cell splitting = %.4f, want >= 0.995", score)
	}
	if res.Stats.MaxLeafPoints >= flat.Stats.MaxLeafPoints {
		t.Errorf("splitting must shrink the largest leaf: %d vs %d",
			res.Stats.MaxLeafPoints, flat.Stats.MaxLeafPoints)
	}
	if res.NumClusters != flat.NumClusters {
		t.Errorf("cluster count changed under splitting: %d vs %d", res.NumClusters, flat.NumClusters)
	}
}

func TestHotCellSplitWithShadowRepsBoundsLeafInput(t *testing.T) {
	// Splitting alone shrinks the owned load but every tile still
	// shadows the whole dense cell; adding ShadowReps bounds each shadow
	// region to 8 representatives, so tile leaves get genuinely small
	// inputs. This combination is what lifts the strong-scaling plateau.
	rng := rand.New(rand.NewSource(22))
	pts := make([]geom.Point, 10000)
	for i := range pts {
		if i < 8000 {
			pts[i] = geom.Point{ID: uint64(i), X: rng.Float64() * 0.1, Y: rng.Float64() * 0.1}
		} else {
			pts[i] = geom.Point{ID: uint64(i), X: rng.Float64()*4 - 2, Y: rng.Float64()*4 - 2}
		}
	}
	splitOnly := Default(0.1, 4, 8)
	splitOnly.HotCellThreshold = 1200
	resSplit, _, err := RunPoints(pts, splitOnly)
	if err != nil {
		t.Fatal(err)
	}
	both := Default(0.1, 4, 8)
	both.HotCellThreshold = 1200
	both.ShadowReps = true
	resBoth, _, err := RunPoints(pts, both)
	if err != nil {
		t.Fatal(err)
	}
	// Shadow volume must collapse: written points with reps must be far
	// below split-only (which duplicates the dense cell into every tile
	// leaf's shadow).
	if resBoth.Stats.WrittenPoints >= resSplit.Stats.WrittenPoints/2 {
		t.Errorf("shadow reps wrote %d points, split-only wrote %d — expected a large reduction",
			resBoth.Stats.WrittenPoints, resSplit.Stats.WrittenPoints)
	}
	// The clustering must stay coherent (the dense cell is one cluster).
	if resBoth.NumClusters != resSplit.NumClusters {
		t.Errorf("cluster count differs: %d with reps vs %d without",
			resBoth.NumClusters, resSplit.NumClusters)
	}
}

func TestHotCellSplittingTwitterQuality(t *testing.T) {
	// Splitting must stay correct on realistic data too.
	pts := dataset.Twitter(15000, 16)
	cfg := Default(0.1, 40, 8)
	cfg.HotCellThreshold = 500
	score, _, _ := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("quality = %.4f, want >= 0.995", score)
	}
}

// TestMergeOverTCPEndToEnd runs the merge phase over real loopback TCP
// sockets (gob-encoded summaries, filters at every internal node) and
// must produce the identical global clustering.
func TestMergeOverTCPEndToEnd(t *testing.T) {
	pts := dataset.Twitter(10000, 19)
	tcpCfg := Default(0.1, 40, 8)
	tcpCfg.MergeOverTCP = true
	tcpCfg.Fanout = 3 // force internal TCP filter nodes
	score, res, _ := runAndScore(t, pts, tcpCfg)
	if score < 0.995 {
		t.Errorf("TCP-merge quality = %.4f, want >= 0.995", score)
	}
	inProc, _, err := RunPoints(pts, Default(0.1, 40, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != inProc.NumClusters {
		t.Errorf("TCP merge found %d clusters, in-process %d", res.NumClusters, inProc.NumClusters)
	}
}

func TestCUDADClustModeEndToEnd(t *testing.T) {
	pts := dataset.Twitter(6000, 12)
	cfg := Default(0.1, 40, 2)
	cfg.Mode = 1 // gdbscan.ModeCUDADClust
	cfg.DenseBox = false
	score, _, _ := runAndScore(t, pts, cfg)
	if score < 0.995 {
		t.Errorf("quality in CUDA-DClust mode = %.4f, want >= 0.995", score)
	}
}
