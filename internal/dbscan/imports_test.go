package dbscan_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// imports lists the non-test imports of the package at an import path of
// this module.
func imports(t *testing.T, path string) []string {
	t.Helper()
	pkg, err := build.ImportDir(filepath.Join("..", "..", strings.TrimPrefix(path, "repro/")), 0)
	if err != nil {
		t.Fatal(err)
	}
	return pkg.Imports
}

// TestImportBoundary keeps the oracle independent of what it judges. Its
// own non-test code imports geom and the standard library only, so no
// grid, KD-tree or rounding bug of the pipeline moves both sides of a
// comparison. And no pipeline package reaches it, directly or through
// another package of this module.
func TestImportBoundary(t *testing.T) {
	for _, imp := range imports(t, "repro/internal/dbscan") {
		thirdParty := strings.Contains(strings.Split(imp, "/")[0], ".")
		if imp != "repro/internal/geom" && (strings.HasPrefix(imp, "repro/") || thirdParty) {
			t.Errorf("internal/dbscan imports %s", imp)
		}
	}
	for _, name := range []string{"gdbscan", "mrscan", "distrib", "partition", "merge", "sweep", "kdtree", "grid"} {
		seen := map[string]bool{}
		var walk func(path string, via []string)
		walk = func(path string, via []string) {
			if seen[path] {
				return
			}
			seen[path] = true
			for _, imp := range imports(t, path) {
				switch {
				case imp == "repro/internal/dbscan":
					t.Errorf("internal/%s reaches internal/dbscan via %v", name, append(via, path))
				case strings.HasPrefix(imp, "repro/"):
					walk(imp, append(via, path))
				}
			}
		}
		walk("repro/internal/"+name, nil)
	}
}
