package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/geom"
	"repro/internal/lustre"
)

type snap struct {
	Phase  string
	Points []geom.Point
	Labels []int32
}

func testSnap(n int) *snap {
	s := &snap{Phase: "cluster"}
	for i := 0; i < n; i++ {
		s.Points = append(s.Points, geom.Point{ID: uint64(i), X: float64(i), Y: float64(-i)})
		s.Labels = append(s.Labels, int32(i%7))
	}
	return s
}

func newLustreStore(t *testing.T, runID string) (*lustre.FS, *Store) {
	t.Helper()
	fs := lustre.New(lustre.Titan(), nil)
	return fs, NewStore(LustreFS(fs), runID)
}

func TestRoundTrip(t *testing.T) {
	_, st := newLustreStore(t, "run1")
	want := testSnap(100)
	if err := st.Save("cluster", want); err != nil {
		t.Fatal(err)
	}
	var got snap
	if err := st.Load("cluster", &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 100 || got.Points[42] != want.Points[42] || got.Labels[99] != want.Labels[99] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if c := st.Completed(); len(c) != 1 || c[0] != "cluster" {
		t.Fatalf("Completed = %v", c)
	}
	if !st.Has("cluster") || st.Has("merge") {
		t.Fatal("Has is wrong")
	}
}

// rawSnap encodes itself; an empty payload is its decoder's refusal.
type rawSnap struct{ b []byte }

func (r *rawSnap) BinarySize() int { return len(r.b) }

func (r *rawSnap) AppendBinary(b []byte) ([]byte, error) { return append(b, r.b...), nil }

func (r *rawSnap) UnmarshalBinary(p []byte) error {
	if len(p) == 0 {
		return errors.New("rawSnap: empty")
	}
	r.b = bytes.Clone(p)
	return nil
}

// TestBinaryPayloadStoredVerbatim: a payload that marshals itself is the
// envelope's payload byte for byte — no gob around it — and comes back
// through UnmarshalBinary; its decoder's refusal is ErrCorrupt.
func TestBinaryPayloadStoredVerbatim(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	want := []byte("fixed records")
	if err := st.Save("cluster", &rawSnap{want}); err != nil {
		t.Fatal(err)
	}
	h, err := fs.Open(phaseFile("cluster"))
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, h.Size())
	if _, err := h.ReadAt(img, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(img[headerSize:], want) {
		t.Fatalf("envelope payload %q, want the marshalled bytes %q", img[headerSize:], want)
	}
	var got rawSnap
	if err := st.Load("cluster", &got); err != nil || !bytes.Equal(got.b, want) {
		t.Fatalf("Load = %q, %v; want %q", got.b, err, want)
	}
	if err := st.Save("merge", &rawSnap{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Load("merge", &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("refused payload: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadMissing(t *testing.T) {
	_, st := newLustreStore(t, "run1")
	var got snap
	if err := st.Load("nope", &got); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load(missing) = %v, want ErrNoCheckpoint", err)
	}
}

// TestBitFlipDetected corrupts one byte of a published snapshot on the
// simulated FS and checks Load reports ErrCorrupt — the acceptance
// criterion's "corrupted checkpoint is detected via checksum".
func TestBitFlipDetected(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	if err := st.Save("merge", testSnap(50)); err != nil {
		t.Fatal(err)
	}
	name := phaseFile("merge")
	size, err := fs.Size(name)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the payload region (past the header) of every
	// position in turn would be slow; hit a handful spread over the file.
	for _, off := range []int64{20, size / 2, size - 1} {
		fs2, st2 := newLustreStore(t, "run1")
		if err := st2.Save("merge", testSnap(50)); err != nil {
			t.Fatal(err)
		}
		h, err := fs2.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 1)
		if _, err := h.ReadAt(b, off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		b[0] ^= 0x40
		if _, err := h.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
		var got snap
		if err := st2.Load("merge", &got); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: Load = %v, want ErrCorrupt", off, err)
		}
		if err := st2.Verify("merge"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at %d: Verify = %v, want ErrCorrupt", off, err)
		}
	}
}

// TestTruncationDetected chops the snapshot short — a torn write that
// somehow bypassed the rename protocol must still be caught.
func TestTruncationDetected(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	if err := st.Save("partition", testSnap(50)); err != nil {
		t.Fatal(err)
	}
	name := phaseFile("partition")
	h, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, h.Size())
	if _, err := h.ReadAt(data, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	trunc := fs.Create(name) // Create truncates
	if _, err := trunc.WriteAt(data[:len(data)/2], 0); err != nil {
		t.Fatal(err)
	}
	var got snap
	if err := st.Load("partition", &got); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(truncated) = %v, want ErrCorrupt", err)
	}
}

// TestTornWriteLeavesOldState simulates a crash mid-save: the tmp file
// holds garbage but the published snapshot and manifest are intact, so
// loads still see the previous state.
func TestTornWriteLeavesOldState(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	want := testSnap(10)
	if err := st.Save("cluster", want); err != nil {
		t.Fatal(err)
	}
	// A later save dies mid-write: only the tmp name has the new bytes.
	tmp := fs.Create(phaseFile("cluster") + ".tmp")
	if _, err := tmp.WriteAt([]byte("partial garbage"), 0); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(LustreFS(fs), "run1") // fresh store, same FS (restart)
	var got snap
	if err := st2.Load("cluster", &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 10 {
		t.Fatalf("restored %d points, want 10", len(got.Points))
	}
}

func TestValidPrefix(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	phases := []string{"partition", "cluster", "merge"}
	if got := st.ValidPrefix(phases); got != 0 {
		t.Fatalf("empty store prefix = %d, want 0", got)
	}
	for _, ph := range phases {
		if err := st.Save(ph, testSnap(5)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.ValidPrefix(phases); got != 3 {
		t.Fatalf("full prefix = %d, want 3", got)
	}
	// Corrupt the middle phase: prefix stops before it even though the
	// later snapshot is intact (strict prefix semantics).
	h, err := fs.Open(phaseFile("cluster"))
	if err != nil {
		t.Fatal(err)
	}
	b := []byte{0xFF}
	if _, err := h.WriteAt(b, h.Size()-1); err != nil {
		t.Fatal(err)
	}
	if got := st.ValidPrefix(phases); got != 1 {
		t.Fatalf("prefix with corrupt middle = %d, want 1", got)
	}
}

func TestRunIDMismatchIgnoresManifest(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	if err := st.Save("partition", testSnap(5)); err != nil {
		t.Fatal(err)
	}
	other := NewStore(LustreFS(fs), "run2-different-config")
	if got := other.Completed(); len(got) != 0 {
		t.Fatalf("different RunID sees phases %v, want none", got)
	}
	var s snap
	if err := other.Load("partition", &s); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("Load under wrong RunID = %v, want ErrNoCheckpoint", err)
	}
	// Saving under the new RunID replaces the manifest; the old RunID's
	// view is gone after that.
	if err := other.Save("partition", testSnap(6)); err != nil {
		t.Fatal(err)
	}
	again := NewStore(LustreFS(fs), "run2-different-config")
	if err := again.Load("partition", &s); err != nil || len(s.Points) != 6 {
		t.Fatalf("new RunID state not visible: %v (%d points)", err, len(s.Points))
	}
}

func TestResaveReplacesEntry(t *testing.T) {
	_, st := newLustreStore(t, "run1")
	if err := st.Save("cluster", testSnap(5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("cluster", testSnap(9)); err != nil {
		t.Fatal(err)
	}
	var got snap
	if err := st.Load("cluster", &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 9 {
		t.Fatalf("resave kept %d points, want 9", len(got.Points))
	}
	if c := st.Completed(); len(c) != 1 {
		t.Fatalf("resave duplicated manifest entries: %v", c)
	}
}

func TestClear(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	if err := st.Save("partition", testSnap(5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Clear(); err != nil {
		t.Fatal(err)
	}
	if c := st.Completed(); len(c) != 0 {
		t.Fatalf("Clear left phases %v", c)
	}
	for _, name := range fs.List() {
		if IsCheckpointFile(name) {
			t.Fatalf("Clear left %s on the FS", name)
		}
	}
}

func TestDirFS(t *testing.T) {
	dir := t.TempDir()
	bk, err := DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(bk, "run1")
	if err := st.Save("cluster-0007", testSnap(20)); err != nil {
		t.Fatal(err)
	}
	// A different Store over the same directory (a restarted process)
	// sees the snapshot.
	bk2, err := DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(bk2, "run1")
	var got snap
	if err := st2.Load("cluster-0007", &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 20 {
		t.Fatalf("restored %d points across restart, want 20", len(got.Points))
	}
	if err := st2.Clear(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSaves exercises the store from many goroutines (the
// distributed coordinator saves per-partition snapshots concurrently).
func TestConcurrentSaves(t *testing.T) {
	_, st := newLustreStore(t, "run1")
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			done <- st.Save(fmt.Sprintf("cluster-%04d", i), testSnap(i+1))
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if c := st.Completed(); len(c) != 16 {
		t.Fatalf("%d phases recorded, want 16: %v", len(c), c)
	}
	for i := 0; i < 16; i++ {
		var got snap
		ph := fmt.Sprintf("cluster-%04d", i)
		if err := st.Load(ph, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != i+1 {
			t.Fatalf("%s: %d points, want %d", ph, len(got.Points), i+1)
		}
	}
}

// BenchmarkCheckpointRoundTrip measures the save+load cost of a
// cluster-phase-sized snapshot (per-leaf points and labels), the
// dominant checkpoint in the pipeline.
func BenchmarkCheckpointRoundTrip(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			fs := lustre.New(lustre.Titan(), nil)
			st := NewStore(LustreFS(fs), "bench")
			payload := testSnap(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Save("cluster", payload); err != nil {
					b.Fatal(err)
				}
				var got snap
				if err := st.Load("cluster", &got); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n) * 28) // approx. encoded record size
		})
	}
}
