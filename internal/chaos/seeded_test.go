package chaos

import (
	"reflect"
	"testing"
)

// The seeded decisions of three campaigns, pinned as values. A schedule
// that merely replays itself (TestScheduleDeterministic) would also
// replay a reordered RNG draw; these fail when a seed starts meaning
// something else than it did at the commit that wrote them. Every
// option is at its default, which is what the Makefile targets run.

func TestSeededPipelineSchedules(t *testing.T) {
	want := []struct {
		seed    int64
		outcome Outcome
		spec    []string
	}{
		{1, OutcomeOK, []string{"error mrnet.hop after=8", "error gpusim.launch after=1"}},
		{2, OutcomeFaulted, []string{"corrupt lustre.read times=2 after=22", "corrupt lustre.write times=1 after=0", "corrupt mrnet.hop times=1 after=6"}},
		{3, OutcomeOK, []string{"error lustre.read after=2"}},
		{4, OutcomeOK, []string{"corrupt lustre.read times=2 after=38", "corrupt gpusim.transfer times=2 after=1", "kill mrnet.node after=0", "straggle lustre.read delay=6ms times=2"}},
		{5, OutcomeOK, []string{"corrupt lustre.write times=1 after=44", "kill mrnet.node after=3", "fatal mrscan.phase.cluster (then resume)"}},
		{6, OutcomeOK, []string{"corrupt lustre.read times=1 after=22", "corrupt lustre.write times=1 after=41", "corrupt mrnet.hop times=2 after=5", "corrupt mrnet.frame times=1 after=1 (merge over TCP)", "error lustre.read after=37", "kill mrnet.node after=3"}},
		{7, OutcomeOK, []string{"corrupt lustre.write times=1 after=39", "corrupt mrnet.hop times=2 after=2", "corrupt mrnet.frame times=2 after=3 (merge over TCP)", "error mrnet.hop after=2", "error gpusim.launch after=1"}},
		{8, OutcomeFaulted, []string{"corrupt lustre.read times=2 after=11", "corrupt lustre.write times=2 after=12", "corrupt gpusim.transfer times=1 after=9", "corrupt mrnet.hop times=1 after=6", "corrupt mrnet.frame times=2 after=3 (merge over TCP)"}},
		{9, OutcomeOK, []string{"corrupt lustre.read times=1 after=10", "corrupt gpusim.transfer times=1 after=14", "kill mrnet.node after=1"}},
		{10, OutcomeOK, []string{"corrupt lustre.write times=2 after=59", "error gpusim.launch after=6", "kill mrnet.node after=0"}},
		{11, OutcomeOK, []string{"corrupt lustre.read times=1 after=59", "corrupt mrnet.hop times=2 after=8", "error mrnet.hop after=6", "fatal mrscan.phase.cluster (then resume)"}},
		{12, OutcomeOK, []string{"corrupt lustre.write times=2 after=26", "corrupt mrnet.hop times=2 after=8", "corrupt mrnet.frame times=2 after=1 (merge over TCP)", "error lustre.read after=33", "straggle lustre.read delay=4ms times=2"}},
		{13, OutcomeOK, []string{"corrupt lustre.read times=1 after=52", "corrupt mrnet.frame times=3 after=5 (merge over TCP)", "error gpusim.launch after=1"}},
		{14, OutcomeOK, []string{"corrupt mrnet.frame times=1 after=5 (merge over TCP)", "kill mrnet.node after=1", "straggle lustre.read delay=7ms times=2"}},
		{15, OutcomeOK, []string{"corrupt lustre.read times=1 after=52", "corrupt mrnet.hop times=2 after=6", "kill mrnet.node after=1"}},
		{16, OutcomeOK, []string{"corrupt mrnet.hop times=2 after=6", "error gpusim.launch after=3"}},
		{17, OutcomeOK, []string{"corrupt lustre.read times=2 after=56", "corrupt lustre.write times=1 after=44", "corrupt gpusim.transfer times=1 after=16", "error gpusim.launch after=5"}},
		{18, OutcomeOK, []string{"corrupt lustre.read times=1 after=32", "corrupt lustre.write times=2 after=30", "corrupt mrnet.hop times=1 after=8", "error gpusim.launch after=4"}},
		{19, OutcomeOK, []string{"error mrnet.hop after=3", "straggle lustre.read delay=7ms times=2"}},
		{20, OutcomeFaulted, []string{"corrupt lustre.read times=2 after=4", "corrupt lustre.write times=1 after=10", "corrupt gpusim.transfer times=1 after=10", "kill mrnet.node after=1", "straggle lustre.read delay=7ms times=2"}},
	}
	for _, w := range want {
		r := RunSeed(w.seed, Options{})
		if !reflect.DeepEqual(r.Spec, w.spec) {
			t.Errorf("seed %d armed %q, want %q", w.seed, r.Spec, w.spec)
		}
		if r.Outcome != w.outcome {
			t.Errorf("seed %d: outcome %s (%s%s), want %s", w.seed, r.Outcome, r.Reason, r.Err, w.outcome)
		}
	}
}

func TestSeededStreamDecisions(t *testing.T) {
	// restart tick, strike tick, invalid batches rejected, final clusters
	want := [][4]int{{7, 11, 4, 6}, {9, 10, 5, 7}, {6, 9, 1, 7}, {9, 10, 1, 6}, {5, 10, 2, 6}}
	for i, w := range want {
		seed := int64(i + 1)
		r := RunStreamSeed(seed, StreamOptions{})
		if r.Outcome != OutcomeOK {
			t.Errorf("seed %d: %s: %s", seed, r.Outcome, r.Reason)
		}
		got := [4]int{r.RestartAtTick, r.StrikeAtTick, r.InvalidRejected, r.FinalClusters}
		if got != w {
			t.Errorf("seed %d: (restart, strike, invalid_rejected, final_clusters) = %v, want %v", seed, got, w)
		}
		if r.Ticks != 12 || r.Points != 3600 {
			t.Errorf("seed %d: %d ticks, %d points; the defaults are 12 ticks of 300", seed, r.Ticks, r.Points)
		}
	}
}

func TestSeededCrashPoints(t *testing.T) {
	want := []struct {
		pipelineOps, journalOps int64
		points, journal         []int64
	}{
		{56, 41, []int64{2, 4, 7, 10, 11, 17, 18, 19, 20, 22, 23, 27, 28, 31, 37, 42, 48, 51, 54, 56}, []int64{8, 12, 15, 33}},
		{58, 41, []int64{2, 3, 5, 8, 9, 18, 22, 26, 27, 29, 30, 33, 34, 35, 40, 45, 47, 50, 51, 56}, []int64{9, 28, 32, 39}},
	}
	for i, w := range want {
		seed := int64(i + 1)
		r := RunCrashSeed(seed, CrashOptions{})
		if r.Outcome != OutcomeOK {
			t.Errorf("seed %d: %s: %s", seed, r.Outcome, r.Reason)
		}
		if r.PipelineOps != w.pipelineOps || r.JournalOps != w.journalOps {
			t.Errorf("seed %d: op spaces %d/%d, want %d/%d", seed, r.PipelineOps, r.JournalOps, w.pipelineOps, w.journalOps)
		}
		var points, journal []int64
		for j, p := range r.Points {
			points = append(points, p.Seq)
			// Every third point (RecoveryCrashEvery) is a double crash.
			if p.DoubleCrash != ((j+1)%3 == 0) {
				t.Errorf("seed %d point %d (seq %d): double_crash = %v", seed, j, p.Seq, p.DoubleCrash)
			}
		}
		for _, p := range r.Journal {
			journal = append(journal, p.Seq)
		}
		if !reflect.DeepEqual(points, w.points) {
			t.Errorf("seed %d: pipeline crash points %v, want %v", seed, points, w.points)
		}
		if !reflect.DeepEqual(journal, w.journal) {
			t.Errorf("seed %d: journal crash points %v, want %v", seed, journal, w.journal)
		}
	}
}
