package partition

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrnet"
	"repro/internal/ptio"
)

// rawFile stores raw bytes as a file on the simulated file system.
func rawFile(t *testing.T, fs *lustre.FS, name string, data []byte) {
	t.Helper()
	h := fs.Create(name)
	if len(data) > 0 {
		if _, err := h.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// datasetBytes renders pts as a complete MRSC file in memory.
func datasetBytes(t *testing.T, pts []geom.Point, hasWeight bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ptio.WriteDataset(&buf, pts, hasWeight); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallOpts() DistOptions {
	return DistOptions{NumPartitions: 2, MinPts: 1}
}

// distributeBoth runs the named input through both partitioners and
// asserts each rejects it with an error containing want.
func distributeBoth(t *testing.T, fs *lustre.FS, net *mrnet.Network, input, want string, opt DistOptions) {
	t.Helper()
	if _, err := Distribute(context.Background(), net, fs, eps, input, "parts.bin", "parts.json", opt); err == nil {
		t.Errorf("%s: Distribute accepted, want error containing %q", input, want)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: Distribute error %q does not contain %q", input, err, want)
	}
	if _, err := DistributeDirect(context.Background(), net, fs, eps, input, opt); err == nil {
		t.Errorf("%s: DistributeDirect accepted, want error containing %q", input, want)
	} else if !strings.Contains(err.Error(), want) {
		t.Errorf("%s: DistributeDirect error %q does not contain %q", input, err, want)
	}
}

// Regression: the old guard `total < 0` could never fire (truncated
// division of a 0–15-byte size yields 0, not negative), so sub-header
// files fell through and read garbage. They must be rejected loudly.
func TestDistributeRejectsShortInput(t *testing.T) {
	net, fs := distEnv(t, 2)
	rawFile(t, fs, "empty.mrsc", nil)
	rawFile(t, fs, "one.mrsc", []byte{'M'})
	rawFile(t, fs, "fifteen.mrsc", datasetBytes(t, nil, false)[:15])
	for _, name := range []string{"empty.mrsc", "one.mrsc", "fifteen.mrsc"} {
		distributeBoth(t, fs, net, name, "too short", smallOpts())
	}
}

// Regression: a file whose payload is not a whole number of records used
// to have its trailing bytes silently dropped by the shard arithmetic.
func TestDistributeRejectsTornTail(t *testing.T) {
	net, fs := distEnv(t, 2)
	full := datasetBytes(t, dataset.Twitter(50, 2), false)
	rawFile(t, fs, "torn.mrsc", full[:len(full)-7])
	distributeBoth(t, fs, net, "torn.mrsc", "is torn", smallOpts())
}

// A payload that is whole records but disagrees with the header's
// declared count is also corrupt — truncation at a record boundary.
func TestDistributeRejectsCountMismatch(t *testing.T) {
	net, fs := distEnv(t, 2)
	full := datasetBytes(t, dataset.Twitter(50, 2), false)
	rawFile(t, fs, "truncated.mrsc", full[:len(full)-ptio.RecordSize(false)])
	distributeBoth(t, fs, net, "truncated.mrsc", "header declares", smallOpts())
}

// Regression: opt.HasWeight used to be trusted over the header's
// FlagWeight bit, misparsing every record when they disagreed (24-byte
// records read on 32-byte strides and vice versa).
func TestDistributeRejectsWeightMismatch(t *testing.T) {
	net, fs := distEnv(t, 2)
	pts := dataset.Twitter(50, 2)
	writeInput(t, fs, "weighted.mrsc", pts, true)
	writeInput(t, fs, "plain.mrsc", pts, false)

	opt := smallOpts()
	distributeBoth(t, fs, net, "weighted.mrsc", "refusing to misparse", opt)
	opt.HasWeight = true
	distributeBoth(t, fs, net, "plain.mrsc", "refusing to misparse", opt)
}

// distributeEnv runs Distribute over pts on a fresh environment of
// leaves partitioner leaves and returns the result plus its FS.
func distributeEnv(t *testing.T, pts []geom.Point, leaves int, opt DistOptions) (*DistResult, *lustre.FS) {
	t.Helper()
	net, fs := distEnv(t, leaves)
	writeInput(t, fs, "in.mrsc", pts, opt.HasWeight)
	res, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, fs
}

// TestDirectSimParity: DistributeDirect must report both stage sims —
// the read stage charges Lustre traffic, and the transfer stage charges
// the overlay bytes that replace the file path's writes (§6).
func TestDirectSimParity(t *testing.T) {
	fs := lustre.New(lustre.Titan(), nil)
	net, err := mrnet.New(4, mrnet.DefaultFanout, mrnet.TitanCosts(), fs.Clock())
	if err != nil {
		t.Fatal(err)
	}
	writeInput(t, fs, "in.mrsc", dataset.Twitter(8000, 29), false)
	res, err := DistributeDirect(context.Background(), net, fs, eps, "in.mrsc", DistOptions{
		NumPartitions: 4, MinPts: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadSim <= 0 {
		t.Errorf("ReadSim = %v, want positive (shards are read from Lustre)", res.ReadSim)
	}
	if res.WriteSim <= 0 {
		t.Errorf("WriteSim = %v, want positive (overlay transfer replaces the write stage)", res.WriteSim)
	}
}
