package checkpoint

import (
	"errors"
	iofs "io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/lustre"
)

// contractBackends are the ports the FS contract is checked on: both
// backends at their root and under Sub, the simulated one also with its
// crash model counting.
func contractBackends(t *testing.T) map[string]func() FS {
	dir := func() FS {
		fs, err := DirFS(filepath.Join(t.TempDir(), "root"))
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	sim := func() FS { return LustreFS(lustre.New(lustre.Titan(), nil)) }
	return map[string]func() FS{
		"dir":    dir,
		"lustre": sim,
		"lustre-crashsim": func() FS {
			fs := lustre.New(lustre.Titan(), nil)
			fs.EnableCrashSim(1)
			return LustreFS(fs)
		},
		"dir-sub":    func() FS { return Sub(dir(), "state/x") },
		"lustre-sub": func() FS { return Sub(sim(), "state/x") },
	}
}

func mustRead(t *testing.T, fs FS, name, want string) {
	t.Helper()
	got, err := fs.ReadFile(name)
	if err != nil || string(got) != want {
		t.Fatalf("ReadFile(%q) = %q, %v; want %q", name, got, err, want)
	}
}

func mustList(t *testing.T, fs FS, dir string, want ...string) {
	t.Helper()
	got, err := fs.List(dir)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("List(%q) = %q, %v; want %q", dir, got, err, want)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func missing(t *testing.T, op string, err error) {
	t.Helper()
	if !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("%s: err = %v, want fs.ErrNotExist", op, err)
	}
}

// TestFSContract runs one table of the port's contract against every
// backend: the same calls must give the same results on a real directory
// and on the simulated file system.
func TestFSContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, fs FS)
	}{
		{"write creates parents and truncates", func(t *testing.T, fs FS) {
			must(t, fs.WriteFile("a/b/c.ckpt", []byte("he"), nil, []byte("llo")))
			mustRead(t, fs, "a/b/c.ckpt", "hello")
			must(t, fs.WriteFile("a/b/c.ckpt", []byte("x")))
			mustRead(t, fs, "a/b/c.ckpt", "x")
			must(t, fs.WriteFile("empty"))
			mustRead(t, fs, "empty", "")
		}},
		{"append creates and extends", func(t *testing.T, fs FS) {
			must(t, fs.AppendFile("logs/journal.log", []byte("ab")))
			must(t, fs.AppendFile("logs/journal.log", []byte("cd")))
			mustRead(t, fs, "logs/journal.log", "abcd")
		}},
		{"writes keep no reference to their chunks", func(t *testing.T, fs FS) {
			// What the checkpoint store and the journal rely on to give a
			// payload's buffer back to bufpool as soon as the call returns.
			head, tail, more := []byte("snap"), []byte("shot"), []byte("+log")
			must(t, fs.WriteFile("d/f", head, tail))
			must(t, fs.AppendFile("d/f", more))
			for _, b := range [][]byte{head, tail, more} {
				copy(b, "XXXX")
			}
			mustRead(t, fs, "d/f", "snapshot+log")
		}},
		{"list names entries directly under a directory", func(t *testing.T, fs FS) {
			for _, n := range []string{"d/y", "d/x", "d/sub/z", "d.x", "top"} {
				must(t, fs.WriteFile(n, []byte(n)))
			}
			mustList(t, fs, "d", "sub", "x", "y")
			mustList(t, fs, "d/sub", "z")
			mustList(t, fs, ".", "d", "d.x", "top")
		}},
		{"rename replaces the target", func(t *testing.T, fs FS) {
			must(t, fs.WriteFile("d/a.tmp", []byte("new")))
			must(t, fs.WriteFile("d/a", []byte("old")))
			must(t, fs.Rename("d/a.tmp", "d/a"))
			mustRead(t, fs, "d/a", "new")
			_, err := fs.ReadFile("d/a.tmp")
			missing(t, "ReadFile of the renamed name", err)
			mustList(t, fs, "d", "a")
		}},
		{"remove files, then the empty directory", func(t *testing.T, fs FS) {
			must(t, fs.WriteFile("d/a", []byte("a")))
			must(t, fs.WriteFile("d/b", []byte("b")))
			must(t, fs.Remove("d/a"))
			_, err := fs.ReadFile("d/a")
			missing(t, "ReadFile of a removed file", err)
			must(t, fs.Remove("d/a")) // again: removing what is gone succeeds
			must(t, fs.Remove("d/b"))
			must(t, fs.Remove("d"))
			_, err = fs.List("d")
			missing(t, "List of a removed directory", err)
		}},
		{"syncdir", func(t *testing.T, fs FS) {
			must(t, fs.WriteFile("d/a", []byte("a")))
			must(t, fs.SyncDir("d"))
			must(t, fs.SyncDir("."))
		}},
		{"missing names", func(t *testing.T, fs FS) {
			must(t, fs.WriteFile("d/a", []byte("a")))
			_, err := fs.ReadFile("d/nope")
			missing(t, "ReadFile", err)
			_, err = fs.List("nodir")
			missing(t, "List", err)
			missing(t, "Rename", fs.Rename("d/nope", "d/b"))
		}},
		{"names outside the root are refused", func(t *testing.T, fs FS) {
			must(t, fs.WriteFile("d/a", []byte("a")))
			for _, bad := range []string{"/abs", "../up", "d/../../up", "d/./a", "", "d/"} {
				ops := map[string]error{
					"WriteFile":  fs.WriteFile(bad, []byte("x")),
					"AppendFile": fs.AppendFile(bad, []byte("x")),
					"Rename to":  fs.Rename("d/a", bad),
					"Rename":     fs.Rename(bad, "d/b"),
					"Remove":     fs.Remove(bad),
					"SyncDir":    fs.SyncDir(bad),
				}
				_, ops["ReadFile"] = fs.ReadFile(bad)
				_, ops["List"] = fs.List(bad)
				for op, err := range ops {
					if !errors.Is(err, ErrOutsideRoot) {
						t.Errorf("%s(%q): err = %v, want ErrOutsideRoot", op, bad, err)
					}
				}
			}
			mustRead(t, fs, "d/a", "a")
		}},
	}
	for name, backend := range contractBackends(t) {
		for _, row := range rows {
			t.Run(name+"/"+row.name, func(t *testing.T) { row.run(t, backend()) })
		}
	}
}

// TestDirFSStaysInsideRoot: a refused name leaves nothing beside the
// root, where "../" would have put it.
func TestDirFSStaysInsideRoot(t *testing.T) {
	parent := t.TempDir()
	fs, err := DirFS(filepath.Join(parent, "root"))
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("../escaped", []byte("x")); !errors.Is(err, ErrOutsideRoot) {
		t.Fatalf("WriteFile(../escaped): %v", err)
	}
	if _, err := os.Stat(filepath.Join(parent, "escaped")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a file escaped the root: %v", err)
	}
}
