package checkpoint

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/lustre"
)

// FS is the one storage port every durable writer goes through: the
// pipeline's checkpoint store, the job server's journal and stream
// stores, and the staging of pipeline state between processes. Two
// backends implement it — DirFS over a real OS directory and LustreFS
// over the simulated parallel file system, whose crash simulator can then
// cut power under any of those writers.
//
// Names are slash-separated paths relative to the port's root, as
// io/fs.ValidPath has them. An absolute name, or one with a "." or ".."
// element, is refused with ErrOutsideRoot. Directories are implicit: a
// write creates its name's missing parent directories.
//
// The durability contract is POSIX's. WriteFile and AppendFile return
// only once the file's bytes are on stable storage (fsync). A created,
// renamed or removed name is durable only after SyncDir of its parent
// directory; Rename is atomic but not durable until then. Reading,
// listing or renaming a name that does not exist fails with an error
// matching fs.ErrNotExist; removing one succeeds.
//
// WriteFile and AppendFile keep no reference to their chunks once they
// return, whatever they return: a caller may overwrite the bytes or give
// their buffer back to bufpool at once (the checkpoint store and the job
// journal do).
type FS interface {
	// WriteFile creates or truncates name, writes chunks in order (one
	// write each) and fsyncs the file.
	WriteFile(name string, chunks ...[]byte) error
	// AppendFile appends data to name, creating it if missing, and fsyncs
	// the file.
	AppendFile(name string, data []byte) error
	// ReadFile returns the whole contents of name.
	ReadFile(name string) ([]byte, error)
	// List returns the sorted names of the entries directly under dir,
	// files and directories alike.
	List(dir string) ([]string, error)
	Rename(oldname, newname string) error
	// Remove deletes a file or an empty directory.
	Remove(name string) error
	// SyncDir makes the creates, renames and removals under dir durable.
	SyncDir(dir string) error
}

// ErrOutsideRoot reports a name that is not a plain path inside the
// port's root: absolute, empty, or with a "." or ".." element.
var ErrOutsideRoot = fmt.Errorf("checkpoint: name outside the store root: %w", iofs.ErrInvalid)

func checkName(names ...string) error {
	for _, name := range names {
		if !iofs.ValidPath(name) {
			return fmt.Errorf("%w: %q", ErrOutsideRoot, name)
		}
	}
	return nil
}

// dirFS implements FS on a real OS directory, for state that must
// survive process restarts.
type dirFS struct{ root string }

// DirFS returns the port of an OS directory, created if missing.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", dir, err)
	}
	return dirFS{dir}, nil
}

func (d dirFS) path(name string) (string, error) {
	if err := checkName(name); err != nil {
		return "", err
	}
	return d.join(name), nil
}

func (d dirFS) join(name string) string { return filepath.Join(d.root, filepath.FromSlash(name)) }

func (d dirFS) WriteFile(name string, chunks ...[]byte) error {
	return d.write(name, os.O_TRUNC, chunks)
}
func (d dirFS) AppendFile(name string, data []byte) error {
	return d.write(name, os.O_APPEND, [][]byte{data})
}

// write opens name with flag (creating it, and its parent directories
// when they are missing), writes chunks, fsyncs and closes.
func (d dirFS) write(name string, flag int, chunks [][]byte) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	flag |= os.O_WRONLY | os.O_CREATE
	f, err := os.OpenFile(p, flag, 0o644)
	if errors.Is(err, iofs.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(p), 0o755); err == nil {
			f, err = os.OpenFile(p, flag, 0o644)
		}
	}
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (d dirFS) ReadFile(name string) ([]byte, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(p)
}

func (d dirFS) List(dir string) ([]string, error) {
	p, err := d.path(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(p)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (d dirFS) Rename(oldname, newname string) error {
	if err := checkName(oldname, newname); err != nil {
		return err
	}
	return os.Rename(d.join(oldname), d.join(newname))
}

func (d dirFS) Remove(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	return nil
}

func (d dirFS) SyncDir(dir string) error {
	p, err := d.path(dir)
	if err != nil {
		return err
	}
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// lustreFS implements FS on the simulated parallel file system, whose
// namespace is flat: a slash-separated name is just a file name, a
// directory exists while a name lies under it, and SyncDir is the
// crash simulator's per-directory namespace sync. Every byte is charged
// to the simulated clock like any other file traffic, so checkpoint
// overhead shows up in the evaluation.
type lustreFS struct{ fs *lustre.FS }

// LustreFS returns the port of a simulated parallel file system.
func LustreFS(fs *lustre.FS) FS { return lustreFS{fs} }

func (l lustreFS) WriteFile(name string, chunks ...[]byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	h := l.fs.Create(name)
	var off int64
	for _, c := range chunks {
		if _, err := h.WriteAt(c, off); err != nil {
			return err
		}
		off += int64(len(c))
	}
	return h.Sync()
}

func (l lustreFS) AppendFile(name string, data []byte) error {
	if err := checkName(name); err != nil {
		return err
	}
	h := l.fs.OpenOrCreate(name)
	if _, err := h.WriteAt(data, h.Size()); err != nil {
		return err
	}
	return h.Sync()
}

func (l lustreFS) ReadFile(name string) ([]byte, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	h, err := l.fs.Open(name)
	if err != nil {
		return nil, err
	}
	data := make([]byte, h.Size())
	if len(data) > 0 {
		if _, err := h.ReadAt(data, 0); err != nil {
			return nil, err
		}
	}
	return data, nil
}

func (l lustreFS) List(dir string) ([]string, error) {
	if err := checkName(dir); err != nil {
		return nil, err
	}
	prefix := strings.TrimPrefix(dir+"/", "./") // "" for the root
	var names []string
	for _, n := range l.fs.List() {
		if rest, ok := strings.CutPrefix(n, prefix); ok {
			first, _, _ := strings.Cut(rest, "/")
			names = append(names, first)
		}
	}
	if len(names) == 0 && dir != "." {
		return nil, fmt.Errorf("%w: directory %q", lustre.ErrNotExist, dir)
	}
	slices.Sort(names)
	return slices.Compact(names), nil
}

func (l lustreFS) Rename(oldname, newname string) error {
	if err := checkName(oldname, newname); err != nil {
		return err
	}
	return l.fs.Rename(oldname, newname)
}

func (l lustreFS) Remove(name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	l.fs.Remove(name)
	if l.fs.Crashed() {
		return fmt.Errorf("lustre: remove %q: %w", name, lustre.ErrCrashed)
	}
	return nil
}

func (l lustreFS) SyncDir(dir string) error {
	if err := checkName(dir); err != nil {
		return err
	}
	return l.fs.SyncDir(dir)
}

// Sub returns the port of directory dir inside fsys: its names are
// taken relative to dir. A stream's store is the Sub of its directory
// under the server's state port.
func Sub(fsys FS, dir string) FS { return subFS{fsys, dir} }

type subFS struct {
	fs  FS
	dir string
}

// join places name under the sub-root; a name that is not a valid path
// goes through unchanged, for the backend to refuse.
func (s subFS) join(name string) string {
	if !iofs.ValidPath(name) {
		return name
	}
	return path.Join(s.dir, name)
}

func (s subFS) WriteFile(name string, chunks ...[]byte) error {
	return s.fs.WriteFile(s.join(name), chunks...)
}
func (s subFS) AppendFile(name string, data []byte) error { return s.fs.AppendFile(s.join(name), data) }
func (s subFS) ReadFile(name string) ([]byte, error)      { return s.fs.ReadFile(s.join(name)) }
func (s subFS) List(dir string) ([]string, error)         { return s.fs.List(s.join(dir)) }
func (s subFS) Rename(o, n string) error                  { return s.fs.Rename(s.join(o), s.join(n)) }
func (s subFS) Remove(name string) error                  { return s.fs.Remove(s.join(name)) }
func (s subFS) SyncDir(dir string) error                  { return s.fs.SyncDir(s.join(dir)) }
