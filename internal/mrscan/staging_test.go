package mrscan

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/checkpoint"
)

// syncRecorder is a storage port that records the directories it syncs.
type syncRecorder struct {
	checkpoint.FS
	synced []string
}

func (r *syncRecorder) SyncDir(dir string) error {
	r.synced = append(r.synced, dir)
	return r.FS.SyncDir(dir)
}

// TestIsStateFile: the checkpoint files and the partition file with its
// metadata are pipeline state; the run's input and output are not, and
// neither is a segment file an older aggregated run left beside the
// partition file — no reader of it remains, so staging leaves it behind.
func TestIsStateFile(t *testing.T) {
	for _, tc := range []struct {
		name, file string
		want       bool
	}{
		{"partition-file", partitionFile, true},
		{"metadata-file", metadataFile, true},
		{"snapshot", "ckpt-" + PhaseCluster + ".ckpt", true},
		{"snapshot-tmp", "ckpt-" + PhaseCluster + ".ckpt.tmp", true},
		{"manifest", checkpoint.ManifestName, true},
		{"output", "output.mrsl", false},
		{"input", "input.mrsc", false},
		{"aggregated-segment", partitionFile + ".seg0", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsStateFile(tc.file); got != tc.want {
				t.Errorf("IsStateFile(%q) = %t, want %t", tc.file, got, tc.want)
			}
		})
	}
}

// TestStageStateRoundTrip stages a checkpointed run's state out into a
// directory staging creates and back onto a fresh file system. Staging
// out must sync the directory and then its parent, which holds the new
// directory's name — without that a power cut could take the whole
// directory — and staging in must bring back every state file, byte for
// byte.
func TestStageStateRoundTrip(t *testing.T) {
	fs := writeInput(t)
	if _, err := Run(fs, "input.mrsc", "output.mrsl", ckptConfig()); err != nil {
		t.Fatal(err)
	}
	dir, err := checkpoint.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	port := &syncRecorder{FS: dir}
	if err := StageStateOut(fs, port, "run/ckpt"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"run/ckpt", "run"}; !slices.Equal(port.synced, want) {
		t.Fatalf("staging out synced %q, want %q", port.synced, want)
	}

	fresh := writeInput(t)
	if err := StageStateIn(fresh, port, "run/ckpt"); err != nil {
		t.Fatal(err)
	}
	var staged int
	for _, name := range fs.List() {
		if !IsStateFile(name) {
			continue
		}
		staged++
		if !bytes.Equal(fileBytes(t, fresh, name), fileBytes(t, fs, name)) {
			t.Fatalf("%s came back different", name)
		}
	}
	if staged == 0 {
		t.Fatal("the checkpointed run left no state to stage")
	}
	if err := StageStateIn(writeInput(t), port, "never/staged"); err != nil {
		t.Fatalf("staging in from a missing directory: %v", err)
	}
}
