package gdbscan

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/kdtree"
)

// TestCUDADClustRoundTransferBytes pins the per-round transfer accounting
// of the baseline mode to the paper's model: every expansion round moves
// 2 × 64 bytes per *active* block (§3.2.2's "two memory operations ...
// after every DBSCAN iteration"). With a seed count that is not a
// multiple of Blocks, the final partial round must be charged for only
// the blocks it actually runs — charging the full Blocks complement
// would overstate the baseline's transfer volume in the ablation.
func TestCUDADClustRoundTransferBytes(t *testing.T) {
	const n, blocks = 1000, 16
	pts := mixedDataset(11, n)
	res, err := Cluster(testDevice(), pts, Options{
		Params: geom.Params{Eps: 0.1, MinPts: 4},
		Mode:   ModeCUDADClust,
		Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	// CUDA-DClust mode seeds every point: 1000 seeds over 16 blocks is
	// 62 full rounds plus a final round of 8 blocks.
	wantRounds := (n + blocks - 1) / blocks
	if res.Stats.SeedRounds != wantRounds {
		t.Fatalf("SeedRounds = %d, want %d", res.Stats.SeedRounds, wantRounds)
	}
	if len(res.Stats.RoundTransferBytes) != wantRounds {
		t.Fatalf("len(RoundTransferBytes) = %d, want %d", len(res.Stats.RoundTransferBytes), wantRounds)
	}
	var total int64
	for r, got := range res.Stats.RoundTransferBytes {
		active := blocks
		if rem := n - r*blocks; rem < active {
			active = rem
		}
		want := int64(2 * 64 * active)
		if got != want {
			t.Errorf("round %d: transfer bytes = %d, want 2*64*%d = %d", r, got, active, want)
		}
		total += got
	}
	// The per-round copies are the only transfers besides the single
	// input copy and single result copy common to both modes.
	perRound := res.Stats.DeviceH2DBytes + res.Stats.DeviceD2HBytes -
		(int64(n)*2*8 + treeBytesFor(t, pts)) - int64(n)*5
	if perRound != total {
		t.Errorf("device transfer bytes beyond the two bulk copies = %d, want sum of rounds %d", perRound, total)
	}
	if got := res.Stats.DeviceTransfers; got != int64(2+2*wantRounds) {
		t.Errorf("DeviceTransfers = %d, want %d (2 bulk + 2 per round)", got, 2+2*wantRounds)
	}
}

// treeBytesFor recomputes the modeled size of the flattened KD-tree
// shipped with the input, mirroring Cluster's accounting.
func treeBytesFor(t *testing.T, pts []geom.Point) int64 {
	t.Helper()
	var ws Workspace
	_, flat := ws.kd.Build(pts, kdtree.DefaultLeafSize)
	return int64(len(flat.Bounds))*8 +
		int64(len(flat.Left)+len(flat.Right)+len(flat.Start)+len(flat.Count)+len(flat.Order))*4
}

func TestMrScanModeHasNoRoundTransfers(t *testing.T) {
	pts := mixedDataset(12, 800)
	res, err := Cluster(testDevice(), pts, Options{
		Params:   geom.Params{Eps: 0.1, MinPts: 4},
		DenseBox: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RoundTransferBytes != nil {
		t.Errorf("Mr. Scan mode recorded per-round transfers: %v", res.Stats.RoundTransferBytes)
	}
	if res.Stats.DeviceTransfers != 2 {
		t.Errorf("DeviceTransfers = %d, want 2", res.Stats.DeviceTransfers)
	}
}
