package partition

import (
	"context"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/health"
	"repro/internal/lustre"
	"repro/internal/mrnet"
)

// TestPartitionFileAvoidsQuarantinedOST: with OST health tracking on and
// one OST limping hard enough to be quarantined during the input read,
// the partition file must be placed on healthy OSTs only, while the
// partition contents stay identical to a run on a healthy file system.
func TestPartitionFileAvoidsQuarantinedOST(t *testing.T) {
	pts := dataset.Twitter(12000, 5)
	opt := DistOptions{NumPartitions: 8, MinPts: 4}

	// Reference: healthy fleet.
	ref, refFS := distributeEnv(t, pts, 4, opt)

	// Gray run: tiny stripes so the input read touches every OST, OST 1
	// degraded 16x.
	cfg := lustre.Config{OSTs: 4, StripeSize: 4096, OSTBandwidth: 200e6, SeekPenalty: lustre.Titan().SeekPenalty}
	fs := lustre.New(cfg, nil)
	fs.SetFaultPlan(faultinject.New(1).Arm(lustre.OSTFaultSite(1), faultinject.Rule{Degrade: 16}))
	tracker := fs.EnableOSTHealth(health.Config{SuspectAfter: 2, QuarantineAfter: 1, MinObservations: 2})
	net, err := mrnet.New(4, mrnet.DefaultFanout, mrnet.CostModel{}, fs.Clock())
	if err != nil {
		t.Fatal(err)
	}
	writeInput(t, fs, "in.mrsc", pts, false)
	if !tracker.Quarantined("ost.1") {
		t.Fatalf("setup: slow OST not quarantined after input write; snapshot=%+v", tracker.Snapshot())
	}

	res, err := Distribute(context.Background(), net, fs, eps, "in.mrsc", "parts.bin", "parts.json", opt)
	if err != nil {
		t.Fatal(err)
	}

	// The partition file must carry an explicit healthy-only layout.
	osts := fs.FileOSTs("parts.bin")
	if osts == nil {
		t.Fatal("partition file has no explicit OST layout")
	}
	if slices.Contains(osts, 1) {
		t.Fatalf("partition file placed on quarantined OST 1 (layout %v)", osts)
	}
	if refFS.FileOSTs("parts.bin") != nil {
		t.Fatal("partition file on an untracked FS has an explicit OST layout")
	}

	// Placement must not change bytes: partitions match the reference.
	if len(res.Meta.Partitions) != len(ref.Meta.Partitions) {
		t.Fatalf("partition count %d != reference %d", len(res.Meta.Partitions), len(ref.Meta.Partitions))
	}
	for j := range res.Meta.Partitions {
		got, _, err := ReadPartition(fs, "parts.bin", res.Meta, j)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ReadPartition(refFS, "parts.bin", ref.Meta, j)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("partition %d: %d points, reference %d", j, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("partition %d point %d differs: %+v vs %+v", j, i, got[i], want[i])
			}
		}
	}
}
