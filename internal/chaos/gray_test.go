package chaos

import (
	"context"
	"testing"
	"time"
)

// One seeded gray campaign must pass all five legs: the limping worker
// quarantined with labels intact and wall time bounded, the transient
// limper walking quarantine → probation → healthy, the flapping link
// preemptively re-parented, the slow OST excluded from the partition file's placement,
// and the phase-retry budget enforced loudly.
func TestGrayCampaignInvariants(t *testing.T) {
	c := Campaign{Seeds: Seeds(1, 1), RunTimeout: time.Minute, Logf: t.Logf}
	rpt := Run(context.Background(), c, GrayOptions{Points: 3000})
	if rpt.Failed != 0 {
		for _, r := range rpt.Runs {
			for _, l := range r.Legs {
				if !l.OK {
					t.Errorf("seed %d leg %s: %s", r.Seed, l.Name, l.Reason)
				}
			}
		}
	}
	for _, r := range rpt.Runs {
		for _, l := range r.Legs {
			if l.OK && len(l.Quarantined) > 1 {
				t.Errorf("seed %d leg %s: multiple quarantines %v", r.Seed, l.Name, l.Quarantined)
			}
		}
	}
}
