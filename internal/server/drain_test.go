package server

import (
	"context"
	"errors"
	"os"
	"path"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrscan"
	"repro/internal/ptio"
	"repro/internal/quality"
	"repro/internal/telemetry"
)

// TestDrainSuspendsAndResumes is the SIGTERM story end to end: a job is
// killed mid-run by a drain, suspended with its checkpoints staged to
// the state directory, and a fresh server on the same directory resumes
// it from the completed-phase prefix and finishes it with labels
// matching the fault-free reference.
func TestDrainSuspendsAndResumes(t *testing.T) {
	stateDir := t.TempDir()
	s, err := New(Config{Workers: 1, StateDir: stateDir, DrainTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	pts := testPoints(2500, 21)
	spec := testSpec("acme", pts)
	// A straggler rule at the cluster phase: partition completes (and is
	// checkpointed), then the job parks for long enough that the drain
	// deadline strikes mid-run, deterministically.
	spec.FaultPlan = faultinject.New(3).Arm(mrscan.PhaseSite(mrscan.PhaseCluster),
		faultinject.Rule{Times: 1, Delay: 500 * time.Millisecond})
	id, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Also leave a job queued behind the in-flight one: a drain must
	// suspend it too, not drop it.
	queuedID, err := s.Submit(testSpec("acme", testPoints(1000, 22)))
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the partition phase of the in-flight job has finished
	// (its span has ended on the job's private hub) so the suspension
	// has a checkpointed prefix to resume from.
	s.mu.Lock()
	hub := s.jobs[id].hub
	s.mu.Unlock()
	for start := time.Now(); ; {
		if len(hub.Trace.FindSpans("phase:"+mrscan.PhasePartition)) > 0 {
			break
		}
		if time.Since(start) > 30*time.Second {
			t.Fatal("partition phase never completed")
		}
		time.Sleep(time.Millisecond)
	}

	s.Drain()
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateSuspended {
		t.Fatalf("in-flight job after drain: state = %s (err %q), want suspended", st.State, st.Err)
	}
	if qst, _ := s.Status(queuedID); qst.State != StateSuspended {
		t.Fatalf("queued job after drain: state = %s, want suspended", qst.State)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err = %v, want ErrDraining", err)
	}
	s.Close()

	// Restart against the same state directory: both suspended jobs are
	// re-admitted and finish.
	s2, err := New(Config{Workers: 1, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st = waitTerminal(t, s2, id)
	if st.State != StateCompleted {
		t.Fatalf("resumed job state = %s (err %q), want completed", st.State, st.Err)
	}
	if !st.Resumed {
		t.Fatalf("restarted job not marked resumed")
	}
	if len(st.RestoredPhases) == 0 {
		t.Fatalf("resumed job restored no phases; completed=%v", st.CompletedPhases)
	}
	if qst := waitTerminal(t, s2, queuedID); qst.State != StateCompleted {
		t.Fatalf("recovered queued job state = %s (err %q)", qst.State, qst.Err)
	}

	labels, err := s2.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quality.Score(referenceLabels(t, pts, spec), labels)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.995 {
		t.Fatalf("resumed job quality %.4f vs fault-free reference, want >= 0.995", q)
	}
	if got := s2.Hub().Counter("server_jobs_resumed_total", "tenant", "acme").Value(); got != 2 {
		t.Fatalf("server_jobs_resumed_total after restart = %d, want 2", got)
	}
}

// TestResumeGobStateDir: a state directory a drain left at 872bd60 —
// job-000001 suspended after its merge phase, its partition, cluster and
// merge snapshots staged out in gob under that revision's run ID
// (testdata/gobstate-872bd60) — is recovered by a server of the record
// format: the job resumes, recomputes every phase instead of restoring a
// snapshot it cannot read, and completes with the labels of a fresh run.
func TestResumeGobStateDir(t *testing.T) {
	const src = "testdata/gobstate-872bd60"
	stateDir := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(stateDir, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(stateDir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	in, err := os.Open(filepath.Join(src, "jobs/job-000001/input.mrsc"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	pts, err := ptio.ReadDataset(in)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Workers: 1, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := waitTerminal(t, s, "job-000001")
	if st.State != StateCompleted || !st.Resumed {
		t.Fatalf("recovered job: state = %s (err %q), resumed = %t; want completed, resumed", st.State, st.Err, st.Resumed)
	}
	if len(st.RestoredPhases) != 0 {
		t.Fatalf("restored %v from gob snapshots, want every phase recomputed", st.RestoredPhases)
	}
	labels, err := s.Result("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceLabels(t, pts, testSpec("acme", pts)); !slices.Equal(labels, want) {
		t.Fatal("resumed job's labels differ from a fresh run's")
	}
}

// TestDrainIdle: draining a quiet server returns promptly and further
// submissions are rejected with the typed error.
func TestDrainIdle(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { s.Drain(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain of an idle server hung")
	}
	if _, err := s.Submit(testSpec("acme", testPoints(100, 1))); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	s.Close()
}

// TestRecoverParentDegradedJob: a state directory written before
// degraded mode was removed holds a suspended degraded job — its spec
// carries no_degrade, degraded and sample_rate, and its staged snapshots
// come from a run over a 0.4 subsample of its input at MinPts scaled to
// match. A server of this revision decodes the spec without error,
// restores none of those snapshots (their RunID fingerprints the
// subsample's size and MinPts), and completes the job at full quality.
func TestRecoverParentDegradedJob(t *testing.T) {
	const id = "job-000001"
	stateDir := t.TempDir()
	port, err := checkpoint.DirFS(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	j := newJournal(port, telemetry.New(nil))
	pts := testPoints(2000, 23)
	spec := testSpec("acme", pts)
	if err := j.writeSpec(id, persistedSpec{Tenant: spec.Tenant, Eps: spec.Eps, MinPts: spec.MinPts, Leaves: spec.Leaves}, pts); err != nil {
		t.Fatal(err)
	}
	parentSpec := `{"tenant":"acme","eps":0.1,"min_pts":20,"leaves":2,"no_degrade":true,"degraded":true,"sample_rate":0.4}`
	if err := port.WriteFile(path.Join(jobDir(id), "spec.json"), []byte(parentSpec)); err != nil {
		t.Fatal(err)
	}

	var sample []geom.Point
	for i, p := range pts {
		if i%5 < 2 {
			sample = append(sample, p)
		}
	}
	fs := lustre.New(lustre.Titan(), nil)
	if err := ptio.WriteDataset(fs.Create("input.mrsc"), sample, false); err != nil {
		t.Fatal(err)
	}
	cfg := mrscan.Default(spec.Eps, 8, spec.Leaves) // round(0.4 × 20)
	cfg.IncludeNoise = true
	cfg.Checkpoint = true
	if _, err := mrscan.RunContext(context.Background(), fs, "input.mrsc", "output.mrsl", cfg); err != nil {
		t.Fatal(err)
	}
	if err := mrscan.StageStateOut(fs, port, ckptDir(id)); err != nil {
		t.Fatal(err)
	}
	if staged, err := port.List(ckptDir(id)); err != nil || len(staged) == 0 {
		t.Fatalf("setup: no snapshots staged (%v)", err)
	}
	if err := j.setState(id, string(StateSuspended)); err != nil {
		t.Fatal(err)
	}

	s := mustServer(t, Config{Workers: 1, StateDir: stateDir})
	st := waitTerminal(t, s, id)
	if st.State != StateCompleted || st.Err != "" {
		t.Fatalf("recovered job: state = %s (err %q), want completed", st.State, st.Err)
	}
	if len(st.RestoredPhases) != 0 || st.Degraded || st.SampleRate != 0 {
		t.Fatalf("recovered job: restored %v, degraded %t, sample rate %g; want none, false, 0",
			st.RestoredPhases, st.Degraded, st.SampleRate)
	}
	labels, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceLabels(t, pts, spec); !slices.Equal(labels, want) {
		t.Fatal("recovered job's labels differ from a full-quality run's")
	}
}
