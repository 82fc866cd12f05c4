package mrscan

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"

	"repro/internal/checkpoint"
	"repro/internal/lustre"
)

// The pipeline's durable state lives on the simulated file system, which
// dies with the process. The CLI across invocations and the job server
// across restarts carry it over a directory of their storage port.

// StageStateIn copies durable pipeline state (checkpoint snapshots and
// partition artifacts, per IsStateFile) from dir on port onto fs, so a
// resumed process sees what the previous one left behind. A missing dir
// is not an error — there is simply nothing to resume from.
func StageStateIn(fs *lustre.FS, port checkpoint.FS, dir string) error {
	names, err := port.List(dir)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, name := range names {
		if !IsStateFile(name) {
			continue
		}
		b, err := port.ReadFile(path.Join(dir, name))
		if err != nil {
			return err
		}
		// One write of a fresh file allocates exactly len(b): nothing to Grow.
		if _, err := fs.Create(name).WriteAt(b, 0); err != nil {
			return fmt.Errorf("staging %s in: %w", name, err)
		}
	}
	return nil
}

// StageStateOut copies durable pipeline state off fs into dir on port.
// Call it even after a failed run — the checkpoints written before the
// failure are exactly what the next resumed run needs. Staging out is the
// last act before a process exits (drain, crash handoff), so "returned"
// must mean "on stable storage": every staged file is fsynced, then dir
// is synced, then dir's parent, which holds dir's own name when the
// staging created it.
func StageStateOut(fs *lustre.FS, port checkpoint.FS, dir string) error {
	staged := false
	for _, name := range fs.List() {
		if !IsStateFile(name) {
			continue
		}
		h, err := fs.Open(name)
		if err != nil {
			return err
		}
		err = h.View(0, h.Size(), func(b []byte) error {
			return port.WriteFile(path.Join(dir, name), b)
		})
		if err != nil {
			return err
		}
		staged = true
	}
	// A run that left no state staged nothing, so dir may not exist.
	if err := port.SyncDir(dir); err != nil && (staged || !errors.Is(err, iofs.ErrNotExist)) {
		return err
	}
	return port.SyncDir(path.Dir(dir))
}
