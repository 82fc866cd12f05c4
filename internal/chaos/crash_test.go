package chaos

import (
	"context"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mrscan"
)

// TestCrashCampaignSmoke runs a small two-leg campaign and requires a
// clean bill: no acknowledged state lost at any sampled crash point.
func TestCrashCampaignSmoke(t *testing.T) {
	o := CrashOptions{
		Points:             600,
		Leaves:             2,
		CrashPoints:        4,
		JournalCrashPoints: 2,
		JournalJobs:        2,
		RecoveryCrashEvery: 2,
	}
	rep := Run(context.Background(), Campaign{Seeds: Seeds(1, 2), Logf: t.Logf}, o)
	if rep.Failed != 0 {
		for _, r := range rep.Runs {
			if r.Outcome == OutcomeFail {
				t.Errorf("seed %d: %s", r.Seed, r.Reason)
			}
		}
	}
	if crashPoints(rep) == 0 {
		t.Fatal("campaign exercised no crash points")
	}
}

// TestRecoveryIdempotence forces a double crash — power failure during
// the recovery run itself — across many seeds and requires the final
// state to be identical to the fault-free reference every time.
func TestRecoveryIdempotence(t *testing.T) {
	o := CrashOptions{Points: 300, Leaves: 2}.withDefaults()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for seed := int64(1); seed <= 20; seed++ {
		pts := dataset.Twitter(o.Points, seed)
		refLabels, err := referenceLabels(ctx, pts, o.Leaves)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		probeFS, err := o.newCrashSim(seed, pts)
		if err != nil {
			t.Fatalf("seed %d: probe: %v", seed, err)
		}
		if _, err = mrscan.RunContext(ctx, probeFS, inputFile, outputFile, o.pipelineCfg()); err != nil {
			t.Fatalf("seed %d: probe run: %v", seed, err)
		}
		// Crash mid-run, then again during the recovery.
		k := probeFS.OpCount() / 2
		if k < 2 {
			k = 2
		}
		pr := o.pipelineCrashPoint(ctx, seed, k, true, pts, refLabels)
		if pr.Outcome != OutcomeOK {
			t.Errorf("seed %d crash@%d: %s", seed, k, pr.Reason)
		}
	}
}

// TestMutationLyingCheckpointSyncFails removes (in effect) the fsync of
// checkpoint files — Sync succeeds but persists nothing — and requires
// the campaign to FAIL. A crash harness that stays green under a lying
// fsync would prove nothing.
func TestMutationLyingCheckpointSyncFails(t *testing.T) {
	rep := Run(context.Background(), Campaign{Seeds: Seeds(1, 2)}, CrashOptions{
		Points:             500,
		Leaves:             2,
		CrashPoints:        8,
		JournalCrashPoints: -1,
		// The store fsyncs the ".ckpt.tmp" name before renaming it into
		// place, so the pattern must cover both.
		DropSyncs: "*.ckpt*",
	})
	if rep.Failed == 0 {
		t.Fatal("campaign stayed green with checkpoint fsyncs dropped; the harness is not sensitive to the sync-ordering discipline")
	}
}

// TestMutationLyingDirSyncFails drops every directory sync — renames
// and creates never become durable — and requires the campaign to FAIL.
func TestMutationLyingDirSyncFails(t *testing.T) {
	rep := Run(context.Background(), Campaign{Seeds: Seeds(1, 3)}, CrashOptions{
		Points:             500,
		Leaves:             2,
		CrashPoints:        6,
		JournalCrashPoints: 2,
		JournalJobs:        2,
		DropDirSyncs:       true,
	})
	if rep.Failed == 0 {
		t.Fatal("campaign stayed green with directory syncs dropped; the harness is not sensitive to the sync-ordering discipline")
	}
}

// TestCrashOptionsDisableLegs checks the <0 escape hatches.
func TestCrashOptionsDisableLegs(t *testing.T) {
	c := Campaign{Seeds: Seeds(1, 1), RunTimeout: time.Minute}
	rep := Run(context.Background(), c, CrashOptions{
		Points: 300, Leaves: 2,
		CrashPoints: -1, JournalCrashPoints: 2, JournalJobs: 2,
	}).Runs[0]
	if len(rep.Points) != 0 {
		t.Fatalf("pipeline leg ran despite CrashPoints<0: %d points", len(rep.Points))
	}
	if len(rep.Journal) == 0 {
		t.Fatal("journal leg did not run")
	}
}
