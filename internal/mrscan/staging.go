package mrscan

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lustre"
)

// Checkpoint state staging: the pipeline's durable state (checkpoint
// snapshots plus the partition artifacts a file-mode resume re-reads)
// lives on the simulated parallel file system, which dies with the
// process. Long-lived callers — the CLI across invocations, the job
// server across drain/restart cycles — carry that state over a real OS
// directory: StageStateOut after a checkpointed (or aborted) run,
// StageStateIn before a resumed one.

// StageStateIn copies durable pipeline state (checkpoint snapshots and
// partition artifacts, per IsStateFile) from dir onto fs, so a resumed
// process sees what the previous one left behind. A missing dir is not
// an error — there is simply nothing to resume from.
func StageStateIn(fs *lustre.FS, dir string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !IsStateFile(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return err
		}
		// One write of a fresh file allocates exactly len(b): nothing to Grow.
		if _, err := fs.Create(e.Name()).WriteAt(b, 0); err != nil {
			return fmt.Errorf("staging %s in: %w", e.Name(), err)
		}
	}
	return nil
}

// StageStateOut copies durable pipeline state off fs into dir (created
// if missing). Call it even after a failed run — the checkpoints written
// before the failure are exactly what the next resumed run needs.
// Staged files are fsynced and the directory synced before returning:
// staging out is the last act before a process exits (drain, crash
// handoff), so "returned" must mean "on stable storage".
func StageStateOut(fs *lustre.FS, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range fs.List() {
		if !IsStateFile(name) {
			continue
		}
		h, err := fs.Open(name)
		if err != nil {
			return err
		}
		err = h.View(0, h.Size(), func(b []byte) error {
			return writeFileSync(filepath.Join(dir, name), b)
		})
		if err != nil {
			return err
		}
	}
	return syncOSDir(dir)
}

// writeFileSync is os.WriteFile plus an fsync before close.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncOSDir fsyncs a directory so freshly created names are durable.
func syncOSDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
