package lustre

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func testConfig() Config {
	return Config{
		OSTs:         4,
		StripeSize:   64,
		OSTBandwidth: 1e6,
		SeekPenalty:  time.Millisecond,
	}
}

func TestCreateWriteRead(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("points.bin")
	data := []byte("hello lustre")
	if n, err := h.WriteAt(data, 0); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d,%v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := h.ReadAt(got, 0); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d,%v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read %q, want %q", got, data)
	}
	if sz, err := fs.Size("points.bin"); err != nil || sz != int64(len(data)) {
		t.Errorf("Size = %d,%v", sz, err)
	}
}

func TestOpenMissing(t *testing.T) {
	fs := New(testConfig(), nil)
	if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Open missing = %v, want ErrNotExist", err)
	}
	if _, err := fs.Size("nope"); !errors.Is(err, ErrNotExist) {
		t.Errorf("Size missing = %v, want ErrNotExist", err)
	}
}

func TestSparseWriteGrows(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("sparse")
	if _, err := h.WriteAt([]byte("x"), 1000); err != nil {
		t.Fatal(err)
	}
	if h.Size() != 1001 {
		t.Errorf("Size = %d, want 1001", h.Size())
	}
	// The hole reads as zeros.
	buf := make([]byte, 3)
	if _, err := h.ReadAt(buf, 500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Errorf("hole read %v, want zeros", buf)
	}
}

func TestReadAtEOF(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("short")
	if _, err := h.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	n, err := h.ReadAt(buf, 1)
	if n != 2 || err != io.EOF {
		t.Errorf("ReadAt past end = %d,%v, want 2,EOF", n, err)
	}
	n, err = h.ReadAt(buf, 100)
	if n != 0 || err != io.EOF {
		t.Errorf("ReadAt beyond end = %d,%v, want 0,EOF", n, err)
	}
}

func TestSequentialReadWrite(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("stream")
	for i := 0; i < 10; i++ {
		if _, err := h.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := fs.Open("stream")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[9] != 9 {
		t.Errorf("streamed read = %v", got)
	}
}

func TestSeekPenaltyChargedOnRandomWrites(t *testing.T) {
	// The §5.1.1 behaviour: the same volume written as many small random
	// writes must cost far more simulated time than one streaming write.
	cfg := testConfig()
	const total = 64 * 100

	streamFS := New(cfg, nil)
	h := streamFS.Create("stream")
	buf := make([]byte, total)
	if _, err := h.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	randomFS := New(cfg, nil)
	h2 := randomFS.Create("random")
	chunk := make([]byte, 64)
	for i := 99; i >= 0; i-- { // descending offsets: every write seeks
		if _, err := h2.WriteAt(chunk, int64(i*64)); err != nil {
			t.Fatal(err)
		}
	}
	st := streamFS.Clock().Now()
	rt := randomFS.Clock().Now()
	if rt <= st*10 {
		t.Errorf("random writes (%v) must cost much more than streaming (%v)", rt, st)
	}
	if got := randomFS.Stats().Seeks; got != 100 {
		t.Errorf("Seeks = %d, want 100", got)
	}
	if got := streamFS.Stats().Seeks; got != 1 {
		t.Errorf("streaming Seeks = %d, want 1 (initial position)", got)
	}
}

func TestStripingSpreadsLoad(t *testing.T) {
	cfg := testConfig() // 4 OSTs, 64-byte stripes
	fs := New(cfg, nil)
	h := fs.Create("wide")
	data := make([]byte, 64*8) // 8 stripes over 4 OSTs: 2 each
	if _, err := h.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// 8 stripes round-robin over 4 OSTs: every OST carries exactly 2
	// stripes' worth of traffic, so their busy times are equal and the
	// parallel clock sees per-OST time, not the serialized sum.
	first := fs.Clock().Resource("lustre/ost0")
	if first <= 0 {
		t.Fatal("ost0 received no traffic")
	}
	for ost := 1; ost < 4; ost++ {
		got := fs.Clock().Resource("lustre/ost" + string(rune('0'+ost)))
		if got != first {
			t.Errorf("ost%d busy = %v, want %v (even striping)", ost, got, first)
		}
	}
}

func TestConcurrentHandles(t *testing.T) {
	fs := New(testConfig(), nil)
	fs.Create("shared")
	const writers = 8
	const chunk = 128
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := fs.OpenOrCreate("shared")
			data := bytes.Repeat([]byte{byte('a' + w)}, chunk)
			if _, err := h.WriteAt(data, int64(w*chunk)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	h, err := fs.Open("shared")
	if err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != writers*chunk {
		t.Fatalf("file size = %d, want %d", len(all), writers*chunk)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < chunk; i++ {
			if all[w*chunk+i] != byte('a'+w) {
				t.Fatalf("byte %d = %c, want %c", w*chunk+i, all[w*chunk+i], 'a'+w)
			}
		}
	}
}

func TestRemoveAndList(t *testing.T) {
	fs := New(testConfig(), nil)
	fs.Create("b")
	fs.Create("a")
	fs.Create("c")
	if got := fs.List(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Errorf("List = %v", got)
	}
	fs.Remove("b")
	fs.Remove("missing") // no-op
	if got := fs.List(); len(got) != 2 {
		t.Errorf("List after remove = %v", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("s")
	if _, err := h.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(make([]byte, 50), 0); err != nil {
		t.Fatal(err)
	}
	st := fs.Stats()
	if st.WriteOps != 1 || st.BytesWritten != 100 {
		t.Errorf("write stats = %+v", st)
	}
	if st.ReadOps != 1 || st.BytesRead != 50 {
		t.Errorf("read stats = %+v", st)
	}
	if st.FilesCreated != 1 {
		t.Errorf("FilesCreated = %d, want 1", st.FilesCreated)
	}
}

func TestFaultPlan(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("f")
	boom := errors.New("io failure")
	// One shared counter over reads and writes, permanent once fired —
	// the lustre.io pseudo-site.
	fs.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.LustreIO, faultinject.Rule{After: 2, Err: boom}))
	if _, err := h.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("op 1 must succeed: %v", err)
	}
	if _, err := h.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("op 2 must succeed: %v", err)
	}
	if _, err := h.WriteAt([]byte("b"), 1); !errors.Is(err, boom) {
		t.Fatalf("op 3 = %v, want injected fault", err)
	}
	if _, err := h.ReadAt(make([]byte, 1), 0); !errors.Is(err, boom) {
		t.Fatalf("subsequent ops must keep failing, got %v", err)
	}
	fs.SetFaultPlan(nil)
	if _, err := h.WriteAt([]byte("c"), 2); err != nil {
		t.Fatalf("disarmed fault still fired: %v", err)
	}
}

func TestFaultPlanTransientAndPerSite(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("f")
	boom := errors.New("ost evicted")
	// Writes fail twice then recover; reads are never armed.
	fs.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.LustreWrite, faultinject.Rule{Times: 2, Err: boom}))
	if _, err := h.ReadAt(make([]byte, 1), 0); err != io.EOF {
		t.Fatalf("read must be unaffected, got %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := h.WriteAt([]byte("a"), 0); !errors.Is(err, boom) {
			t.Fatalf("write %d = %v, want fault", i, err)
		}
	}
	if _, err := h.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("transient fault must clear after 2 failures: %v", err)
	}
}

// TestFaultPlanSharedIOBudget pins the lustre.io pseudo-site semantics:
// a combined read+write op budget shared by both sites, permanent
// failure once armed, and a nil plan disarming injection.
func TestFaultPlanSharedIOBudget(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("f")
	boom := errors.New("io failure")
	fs.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.LustreIO, faultinject.Rule{After: 2, Err: boom}))
	if _, err := h.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("op 1 must succeed: %v", err)
	}
	if _, err := h.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatalf("op 2 must succeed: %v", err)
	}
	if _, err := h.WriteAt([]byte("b"), 1); !errors.Is(err, boom) {
		t.Fatalf("op 3 = %v, want injected fault", err)
	}
	fs.SetFaultPlan(nil)
	if _, err := h.WriteAt([]byte("c"), 2); err != nil {
		t.Fatalf("disarmed fault still fired: %v", err)
	}
}

func TestRename(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("a")
	if _, err := h.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("old name still opens: %v", err)
	}
	nb, err := fs.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := nb.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("renamed contents = %q, want hello", buf)
	}
	if err := fs.Rename("missing", "x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("renaming a missing file = %v, want ErrNotExist", err)
	}
}

// TestRenameOverExisting checks POSIX replace semantics: the target is
// atomically replaced, and a handle open on the replaced file keeps
// addressing the unlinked contents (descriptor follows the object).
func TestRenameOverExisting(t *testing.T) {
	fs := New(testConfig(), nil)
	old := fs.Create("dst")
	if _, err := old.WriteAt([]byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	src := fs.Create("src")
	if _, err := src.WriteAt([]byte("new"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("src", "dst"); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Open("dst")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := got.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "new" {
		t.Fatalf("dst after rename = %q, want new", buf)
	}
	// The orphaned handle still reads (and writes) the old contents.
	if _, err := old.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "old" {
		t.Fatalf("orphaned handle reads %q, want old", buf)
	}
	if _, err := fs.Open("src"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("src still exists after rename: %v", err)
	}
}

// TestRenameOfOpenHandle checks that a handle opened before the rename
// keeps operating on the file under its new name: writes through the old
// handle are visible to readers of the new name.
func TestRenameOfOpenHandle(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("tmp")
	if _, err := h.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("tmp", "final"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("xyz"), 3); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("final")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "abcxyz" {
		t.Fatalf("final = %q, want abcxyz", buf)
	}
	if n, err := fs.Size("final"); err != nil || n != 6 {
		t.Fatalf("Size(final) = %d, %v; want 6", n, err)
	}
	// Rename to the same name is a no-op, not a delete.
	if err := fs.Rename("final", "final"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("final"); err != nil {
		t.Fatalf("self-rename removed the file: %v", err)
	}
}

func TestNegativeOffsets(t *testing.T) {
	fs := New(testConfig(), nil)
	h := fs.Create("neg")
	if _, err := h.WriteAt([]byte("x"), -1); err == nil {
		t.Error("negative WriteAt offset must fail")
	}
	if _, err := h.ReadAt(make([]byte, 1), -1); err == nil {
		t.Error("negative ReadAt offset must fail")
	}
}
