package lustre

import (
	"bytes"
	"io"
	"testing"
	"unsafe"
)

// secretLen fills most of a 64 KiB pool class, so the run after the
// release draws the released image for any request of 32–64 KiB.
const secretLen = 48 << 10

// leakSecret plays run A: it writes a secret file, releases its file
// system, and returns the address of the image it gave back to the pool.
func leakSecret(t *testing.T) *byte {
	t.Helper()
	fs := New(testConfig(), nil)
	h := fs.Create("secret")
	if _, err := h.WriteAt(bytes.Repeat([]byte{0x5A}, secretLen), 0); err != nil {
		t.Fatal(err)
	}
	array := unsafe.SliceData(h.f.data)
	fs.Release()
	return array
}

// checkNoSecret fails if b holds a byte of the secret.
func checkNoSecret(t *testing.T, what string, b []byte) {
	t.Helper()
	if i := bytes.IndexByte(b, 0x5A); i >= 0 {
		t.Fatalf("%s: byte %d holds run A's secret", what, i)
	}
}

// TestReleasedSecretNeverReadable: run A's secret goes back to the pool
// with its file system, run B's file system draws that very array, and
// still no read of run B returns a byte of it — not the hole below a
// write past EOF, not the spare capacity Grow reserved, not a View past
// EOF, and not the private buffer of a copying View.
func TestReleasedSecretNeverReadable(t *testing.T) {
	t.Run("hole below a write past EOF", func(t *testing.T) {
		array := leakSecret(t)
		fs := New(testConfig(), nil)
		h := fs.Create("b")
		if _, err := h.WriteAt([]byte{1}, secretLen-1); err != nil {
			t.Fatal(err)
		}
		if unsafe.SliceData(h.f.data) != array {
			t.Fatal("run B's file did not draw run A's image: the test cannot see reuse")
		}
		got := readBack(t, fs, "b")
		checkNoSecret(t, "the hole", got)
		if len(got) != secretLen || got[secretLen-1] != 1 {
			t.Fatalf("file reads %d bytes ending in %d, want %d ending in 1", len(got), got[len(got)-1], secretLen)
		}
	})
	t.Run("Grow's spare capacity", func(t *testing.T) {
		array := leakSecret(t)
		fs := New(testConfig(), nil)
		h := fs.Create("b")
		h.Grow(secretLen)
		if unsafe.SliceData(h.f.data) != array {
			t.Fatal("Grow did not draw run A's image: the test cannot see reuse")
		}
		if _, err := h.WriteAt([]byte("written"), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, err := h.ReadAt(buf, 0)
		if n != len("written") || err != io.EOF {
			t.Fatalf("ReadAt across EOF = %d, %v; want 7, io.EOF", n, err)
		}
		checkNoSecret(t, "ReadAt across EOF", buf)
		if n, err := h.ReadAt(buf, 7); n != 0 || err != io.EOF {
			t.Fatalf("ReadAt at EOF = %d, %v; want 0, io.EOF", n, err)
		}
		// A write that lands inside the reserved capacity, past EOF,
		// exposes the bytes between: they must read as zeros.
		if _, err := h.WriteAt([]byte{2}, 1000); err != nil {
			t.Fatal(err)
		}
		checkNoSecret(t, "the capacity a later write exposed", readBack(t, fs, "b"))
	})
	t.Run("View past EOF", func(t *testing.T) {
		array := leakSecret(t)
		fs := New(testConfig(), nil)
		h := fs.Create("b")
		h.Grow(secretLen)
		if unsafe.SliceData(h.f.data) != array {
			t.Fatal("Grow did not draw run A's image: the test cannot see reuse")
		}
		if _, err := h.WriteAt([]byte("written"), 0); err != nil {
			t.Fatal(err)
		}
		called := false
		if err := h.View(0, secretLen, func([]byte) error { called = true; return nil }); err != io.EOF || called {
			t.Fatalf("View past EOF = %v (fn called: %t), want io.EOF without fn", err, called)
		}
		err := h.View(0, 7, func(b []byte) error {
			if cap(b) != 7 {
				t.Errorf("View lent capacity %d past the 7 bytes asked for", cap(b))
			}
			checkNoSecret(t, "View", b[:cap(b)])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	t.Run("copying View's buffer", func(t *testing.T) {
		fs := New(testConfig(), nil)
		fs.EnableIntegrity() // View reads through ReadAt into a private buffer
		leakSecret(t)        // drawn by the file's image below
		h := fs.Create("b")
		want := bytes.Repeat([]byte{0x11}, secretLen)
		if _, err := h.WriteAt(want, 0); err != nil {
			t.Fatal(err)
		}
		array := leakSecret(t) // drawn by View's private buffer, and back after each View
		called := false
		if err := h.View(0, secretLen+1, func([]byte) error { called = true; return nil }); err != io.EOF || called {
			t.Fatalf("copying View past EOF = %v (fn called: %t), want io.EOF without fn", err, called)
		}
		err := h.View(0, secretLen, func(b []byte) error {
			if unsafe.SliceData(b) != array {
				t.Error("View's private buffer did not come from the pool")
			}
			if !bytes.Equal(b, want) {
				t.Error("copying View does not read what was written")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestHandleAfterRelease: a handle still open when its file system is
// released sees an empty file.
func TestHandleAfterRelease(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("f")
	if _, err := h.WriteAt(bytes.Repeat([]byte{0x5A}, secretLen), 0); err != nil {
		t.Fatal(err)
	}
	fs.Release()
	if h.Size() != 0 {
		t.Errorf("Size after Release = %d, want 0", h.Size())
	}
	if n, err := fs.Size("f"); n != 0 || err != nil {
		t.Errorf("FS.Size after Release = %d, %v; want 0, nil", n, err)
	}
	buf := make([]byte, 16)
	if n, err := h.ReadAt(buf, 0); n != 0 || err != io.EOF {
		t.Errorf("ReadAt after Release = %d, %v; want 0, io.EOF", n, err)
	}
	checkNoSecret(t, "ReadAt after Release", buf)
	called := false
	if err := h.View(0, 16, func([]byte) error { called = true; return nil }); err != io.EOF || called {
		t.Errorf("View after Release = %v (fn called: %t), want io.EOF without fn", err, called)
	}
}

// TestReleaseRecyclesUnlinkedImages: the image a Rename replaces and the
// one a Remove unlinks go back to the pool at Release, not to the garbage
// collector, and a handle still open on either then reads an empty file.
func TestReleaseRecyclesUnlinkedImages(t *testing.T) {
	for _, unlink := range []string{"rename", "remove"} {
		t.Run(unlink, func(t *testing.T) {
			fs := New(testConfig(), nil)
			h := fs.Create("old")
			if _, err := h.WriteAt(bytes.Repeat([]byte{0x5A}, secretLen), 0); err != nil {
				t.Fatal(err)
			}
			array := unsafe.SliceData(h.f.data)
			if unlink == "rename" {
				if _, err := fs.Create("new").WriteAt([]byte("replacement"), 0); err != nil {
					t.Fatal(err)
				}
				if err := fs.Rename("new", "old"); err != nil {
					t.Fatal(err)
				}
			} else {
				fs.Remove("old")
			}
			fs.Release()
			if h.Size() != 0 {
				t.Errorf("a handle on the unlinked file sees %d bytes after Release, want 0", h.Size())
			}
			next := New(testConfig(), nil).Create("next")
			next.Grow(secretLen)
			if unsafe.SliceData(next.f.data) != array {
				t.Fatal("the next file system did not draw the unlinked image from the pool")
			}
		})
	}
}
