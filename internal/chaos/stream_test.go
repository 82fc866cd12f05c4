package chaos

import (
	"context"
	"testing"
)

func TestStreamCampaign(t *testing.T) {
	c := Campaign{Seeds: Seeds(1, 4), Logf: t.Logf}
	rpt := Run(context.Background(), c, StreamOptions{Ticks: 10, PerTick: 200})
	if rpt.Failed != 0 {
		for _, r := range rpt.Runs {
			if r.Outcome == OutcomeFail {
				t.Errorf("seed %d: %s", r.Seed, r.Reason)
			}
		}
		t.Fatalf("%d of %d stream seeds failed", rpt.Failed, len(rpt.Runs))
	}
	for _, r := range rpt.Runs {
		if r.Points == 0 || r.FinalClusters == 0 {
			t.Fatalf("seed %d: degenerate run: %+v", r.Seed, r)
		}
	}
}
