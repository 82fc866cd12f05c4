package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// The parent's per-seed entry points, as test helpers: seeded_test.go
// was written against the commit before the runner existed and must
// compile unmodified on both sides of it.

func RunSeed(seed int64, o Options) *RunReport {
	return Run(context.Background(), Campaign{Seeds: []int64{seed}}, o).Runs[0]
}

func RunStreamSeed(seed int64, o StreamOptions) *StreamRunReport {
	return Run(context.Background(), Campaign{Seeds: []int64{seed}}, o).Runs[0]
}

func RunCrashSeed(seed int64, o CrashOptions) *CrashRunReport {
	return Run(context.Background(), Campaign{Seeds: []int64{seed}}, o).Runs[0]
}

// fakeScenario has one seed of each fate: 1 passes, 2 fail-stops, 3
// breaks an invariant, 4 reports success but only after its deadline.
type fakeScenario struct {
	budgets map[int64]time.Duration // seed -> time to its deadline at entry
}

type fakeReport struct {
	Header
	Double int64 `json:"double"`
}

func (fakeScenario) summarize(rpt *Report[*fakeReport]) (string, map[string]int) {
	line, _ := plainSummary("fake", rpt)
	return line, map[string]int{"faulted": rpt.Faulted}
}

func (s fakeScenario) run(ctx context.Context, seed int64) *fakeReport {
	if deadline, ok := ctx.Deadline(); ok {
		s.budgets[seed] = time.Until(deadline)
	}
	rep := &fakeReport{Double: 2 * seed}
	rep.Outcome = OutcomeOK
	switch seed {
	case 2:
		rep.Outcome = OutcomeFaulted
	case 3:
		return failf(rep, "invariant %d broke", seed)
	case 4:
		<-ctx.Done()
	}
	return rep
}

func TestRunnerContract(t *testing.T) {
	const budget = 50 * time.Millisecond
	var lines []string
	s := fakeScenario{budgets: map[int64]time.Duration{}}
	c := Campaign{
		Seeds:      Seeds(1, 4),
		RunTimeout: budget,
		Logf:       func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	}
	rpt := Run(context.Background(), c, s)

	if rpt.OK != 1 || rpt.Faulted != 1 || rpt.Failed != 2 || len(rpt.Runs) != 4 {
		t.Fatalf("tally ok=%d faulted=%d failed=%d over %d runs, want 1/1/2 over 4", rpt.OK, rpt.Faulted, rpt.Failed, len(rpt.Runs))
	}
	wantOutcomes := []Outcome{OutcomeOK, OutcomeFaulted, OutcomeFail, OutcomeFail}
	for i, r := range rpt.Runs {
		if r.Seed != int64(i+1) || r.Outcome != wantOutcomes[i] || r.Elapsed <= 0 {
			t.Errorf("run %d: seed %d outcome %s elapsed %v, want seed %d outcome %s, elapsed stamped",
				i, r.Seed, r.Outcome, r.Elapsed, i+1, wantOutcomes[i])
		}
	}

	// The deadline is the runner's: every seed starts with the whole
	// budget, and the one that sat it out fails for that reason even
	// though the scenario called it ok.
	for seed := int64(1); seed <= 4; seed++ {
		if got := s.budgets[seed]; got <= budget/2 || got > budget {
			t.Errorf("seed %d entered run with %v to its deadline, want the campaign's %v", seed, got, budget)
		}
	}
	if late := rpt.Runs[3]; !strings.Contains(late.Reason, "outlived its 50ms budget") || late.Elapsed < budget {
		t.Errorf("late seed: reason %q after %v", late.Reason, late.Elapsed)
	}
	if got := rpt.Runs[2].Reason; got != "invariant 3 broke" {
		t.Errorf("failed seed keeps the scenario's reason, got %q", got)
	}

	if len(lines) != 4 {
		t.Fatalf("%d log lines for 4 seeds: %q", len(lines), lines)
	}
	for i, want := range []string{
		"seed 1: ok in ",
		"seed 2: faulted in ",
		"seed 3: FAIL: invariant 3 broke in ",
		"seed 4: FAIL: seed outlived its 50ms budget: context deadline exceeded in ",
	} {
		if !strings.HasPrefix(lines[i], want) {
			t.Errorf("log line %d = %q, want prefix %q", i, lines[i], want)
		}
	}

	if got, want := rpt.Summary(), "chaos fake: 4 runs: 1 ok, 2 FAILED"; got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
	if got := rpt.Failures(); len(got) != 2 || got[0] != "seed 3: invariant 3 broke" || !strings.HasPrefix(got[1], "seed 4: seed outlived") {
		t.Errorf("failures %q", got)
	}

	// Report shape: runs/ok/failed from the runner, the scenario's own
	// totals beside them, the header flattened into each run.
	data, err := json.Marshal(rpt)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if got := keys(top); !reflect.DeepEqual(got, []string{"failed", "faulted", "ok", "runs"}) {
		t.Errorf("report keys %v", got)
	}
	var runs []map[string]json.RawMessage
	if err := json.Unmarshal(top["runs"], &runs); err != nil {
		t.Fatal(err)
	}
	if got := keys(runs[0]); !reflect.DeepEqual(got, []string{"double", "elapsed_ns", "outcome", "seed"}) {
		t.Errorf("ok run keys %v", got)
	}
	if got := keys(runs[2]); !reflect.DeepEqual(got, []string{"double", "elapsed_ns", "outcome", "reason", "seed"}) {
		t.Errorf("failed run keys %v", got)
	}
}

// A cancelled caller stops the campaign's seeds, not just the deadline.
func TestRunnerHonoursCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := fakeScenario{budgets: map[int64]time.Duration{}}
	rpt := Run(ctx, Campaign{Seeds: []int64{4}, RunTimeout: time.Minute}, s)
	if rpt.Failed != 1 || rpt.Runs[0].Elapsed > 10*time.Second {
		t.Fatalf("seed under a cancelled context: %+v", rpt.Runs[0])
	}
}

func keys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
