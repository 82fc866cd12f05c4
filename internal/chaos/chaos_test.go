package chaos

import (
	"context"
	"testing"
	"time"
)

// A small campaign must finish with zero invariant failures: every run
// either produces reference-quality labels or fail-stops loudly, and
// the corruption ledger balances exactly.
func TestCampaignInvariants(t *testing.T) {
	c := Campaign{Seeds: Seeds(1, 4), RunTimeout: time.Minute, Logf: t.Logf}
	rpt := Run(context.Background(), c, Options{Points: 2500, Leaves: 4})
	if rpt.Failed != 0 {
		for _, r := range rpt.Runs {
			if r.Outcome == OutcomeFail {
				t.Errorf("seed %d: %s (spec %v)", r.Seed, r.Reason, r.Spec)
			}
		}
	}
	if rpt.OK == 0 {
		t.Error("campaign produced no clean runs — schedules may be too hot to be informative")
	}
	for _, r := range rpt.Runs {
		if r.Escapes != 0 {
			t.Errorf("seed %d: %d silent corruption escapes", r.Seed, r.Escapes)
		}
	}
}

// The schedule generator is a pure function of the seed.
func TestScheduleDeterministic(t *testing.T) {
	c := Campaign{Seeds: []int64{7, 7}, RunTimeout: time.Minute}
	rpt := Run(context.Background(), c, Options{Points: 2000, Leaves: 2})
	a, b := rpt.Runs[0], rpt.Runs[1]
	if len(a.Spec) != len(b.Spec) {
		t.Fatalf("replay armed a different schedule: %v vs %v", a.Spec, b.Spec)
	}
	for i := range a.Spec {
		if a.Spec[i] != b.Spec[i] {
			t.Fatalf("replay spec[%d] = %q, want %q", i, b.Spec[i], a.Spec[i])
		}
	}
	if a.Escapes != 0 || b.Escapes != 0 {
		t.Fatalf("escapes: %d and %d, want 0", a.Escapes, b.Escapes)
	}
}

func TestSeeds(t *testing.T) {
	s := Seeds(10, 3)
	if len(s) != 3 || s[0] != 10 || s[2] != 12 {
		t.Fatalf("Seeds(10,3) = %v", s)
	}
}
