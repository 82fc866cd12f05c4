package chaos

import (
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestOverloadSeed drives one full overload lifecycle — multi-tenant
// burst past queue capacity, seeded transient and fatal faults, a
// mid-campaign drain and restart — and requires the serving contract to
// hold: typed rejections only, zero silent drops, floors met.
func TestOverloadSeed(t *testing.T) {
	c := Campaign{Seeds: Seeds(1, 1), RunTimeout: time.Minute, Logf: t.Logf}
	rep := Run(context.Background(), c, OverloadOptions{}).Runs[0]
	if rep.Outcome != OutcomeOK {
		t.Fatalf("overload seed 1: %s: %s", rep.Outcome, rep.Reason)
	}
	if rep.Admitted == 0 {
		t.Fatal("overload campaign admitted nothing — the storm never formed")
	}
	if rep.Completed+rep.Failed != rep.Admitted {
		t.Fatalf("accounting: admitted %d != completed %d + failed %d",
			rep.Admitted, rep.Completed, rep.Failed)
	}
	t.Logf("admitted=%d rejected=%v completed=%d failed=%d resumed=%d suspended=%d minQ=%.4f",
		rep.Admitted, rep.Rejected, rep.Completed, rep.Failed,
		rep.Resumed, rep.SuspendedAtDrain, rep.MinQuality)
}

// TestOverloadCampaign runs a few seeds and checks the aggregate report
// marshals and carries per-seed audits.
func TestOverloadCampaign(t *testing.T) {
	c := Campaign{Seeds: Seeds(100, 2), RunTimeout: time.Minute, Logf: t.Logf}
	rpt := Run(context.Background(), c, OverloadOptions{})
	if rpt.Failed != 0 {
		for _, r := range rpt.Runs {
			if r.Outcome == OutcomeFail {
				t.Errorf("seed %d: %s", r.Seed, r.Reason)
			}
		}
		t.Fatalf("%d/%d overload seeds failed", rpt.Failed, len(rpt.Runs))
	}
	if _, err := json.Marshal(rpt); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
	// Across the campaign the storm must actually have exercised the
	// overload machinery somewhere: at least one typed rejection or a
	// job suspended at the drain proves the queues really saturated.
	exercised := false
	for _, r := range rpt.Runs {
		if len(r.Rejected) > 0 || r.SuspendedAtDrain > 0 {
			exercised = true
		}
	}
	if !exercised {
		t.Fatal("no seed saturated the server — the campaign is not an overload test")
	}
}
