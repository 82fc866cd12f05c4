package lustre

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faultinject"
)

// TestAppendAllocatesLinearly: a writer appending chunk by chunk must
// cost O(bytes) of allocation in total. Copying the whole file on every
// extending write — what WriteAt once did — allocates about chunks/2
// times the final size (here 2 000×).
func TestAppendAllocatesLinearly(t *testing.T) {
	const chunk, chunks = 4 << 10, 4 << 10
	fs := New(Titan(), nil) // 1 MiB stripes: one cost record per write
	h := fs.Create("log")
	buf := bytes.Repeat([]byte{0xAB}, chunk)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < chunks; i++ {
		if _, err := h.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const final = chunk * chunks
	if h.Size() != final {
		t.Fatalf("Size = %d, want %d", h.Size(), final)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*final {
		t.Errorf("appending %d MiB allocated %d MiB, want at most 3× the final size", final>>20, got>>20)
	}
}

// TestHolePastEOFReadsZero: a write past EOF leaves a hole that reads as
// zeros even when it lands in capacity an earlier growth left spare — and
// even if that capacity were dirty, which growTo does not assume it
// isn't. With integrity on, the hole's block checksums must verify.
func TestHolePastEOFReadsZero(t *testing.T) {
	for _, withIntegrity := range []bool{false, true} {
		t.Run(fmt.Sprintf("integrity=%v", withIntegrity), func(t *testing.T) {
			fs := New(testConfig(), nil)
			if withIntegrity {
				fs.EnableIntegrity()
			}
			h := fs.Create("holes")
			head := bytes.Repeat([]byte{1}, 5*integrityBlock)
			for off := 0; off < len(head); off += integrityBlock {
				if _, err := h.WriteAt(head[off:off+integrityBlock], int64(off)); err != nil {
					t.Fatal(err)
				}
			}
			spare := h.f.data[len(h.f.data):cap(h.f.data)]
			if len(spare) < 2*integrityBlock {
				t.Fatalf("growth left %d spare bytes; the test needs the hole to land in spare capacity", len(spare))
			}
			for i := range spare {
				spare[i] = 0xFF
			}
			tail := []byte("tail")
			tailOff := int64(len(head) + integrityBlock + 100) // a whole block and a bit of hole
			if _, err := h.WriteAt(tail, tailOff); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, h.Size())
			if _, err := h.ReadAt(got, 0); err != nil {
				t.Fatalf("reading back across the hole: %v", err)
			}
			want := append(append(append([]byte(nil), head...), make([]byte, integrityBlock+100)...), tail...)
			if !bytes.Equal(got, want) {
				t.Error("file contents differ from head + zero hole + tail")
			}
		})
	}
}

// TestSyncedImageSurvivesInCapacityAppends: the durable image taken at
// Sync shares no memory with the live contents, so appends and overwrites
// that later reuse the live slice's capacity cannot reach it.
func TestSyncedImageSurvivesInCapacityAppends(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		fs := New(testConfig(), nil)
		fs.EnableCrashSim(seed)
		h := fs.Create("dir/file")
		synced := bytes.Repeat([]byte{7}, 1000)
		for off := 0; off < len(synced); off += 200 {
			if _, err := h.WriteAt(synced[off:off+200], int64(off)); err != nil {
				t.Fatal(err)
			}
		}
		if cap(h.f.data) == len(h.f.data) {
			t.Fatal("growth left no spare capacity; the test needs appends that reuse it")
		}
		if err := h.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir("dir"); err != nil {
			t.Fatal(err)
		}
		spare := cap(h.f.data) - len(h.f.data)
		if _, err := h.WriteAt(bytes.Repeat([]byte{9}, spare), int64(len(synced))); err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt(bytes.Repeat([]byte{9}, 100), 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(h.f.durable, synced) {
			t.Fatalf("seed %d: unsynced writes reached the durable image", seed)
		}
		fs.CrashNow()
		if _, err := fs.Recover(); err != nil {
			t.Fatal(err)
		}
		r, err := fs.Open("dir/file")
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(synced))
		if _, err := r.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		// Bytes 100.. of the synced image were never rewritten: they come
		// back whatever subset of the two unsynced writes survived.
		if !bytes.Equal(got[100:], synced[100:]) {
			t.Fatalf("seed %d: synced bytes changed across the crash", seed)
		}
		if cap(r.f.durable) > 0 && &r.f.durable[:1][0] == &r.f.data[:1][0] {
			t.Fatalf("seed %d: recovered contents alias the durable image", seed)
		}
	}
}

// TestConcurrentDisjointWritesGrowOneFile is the legacy partition write
// pattern: every leaf writes its own regions of one shared file through
// its own handle, so growth races with writes into already-allocated
// regions. Every byte must read back (and -race must stay quiet).
func TestConcurrentDisjointWritesGrowOneFile(t *testing.T) {
	const writers, regions, regionLen = 16, 32, 96
	fs := New(testConfig(), nil)
	fs.Create("parts")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := fs.OpenOrCreate("parts")
			// Region r of the file is split into one run per writer.
			for r := regions - 1; r >= 0; r-- {
				off := int64((r*writers + w) * regionLen)
				if _, err := h.WriteAt(bytes.Repeat([]byte{byte(w + 1)}, regionLen), off); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h, err := fs.Open("parts")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, writers*regions*regionLen)
	if _, err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if want := byte(i/regionLen%writers + 1); b != want {
			t.Fatalf("byte %d = %d, want %d", i, b, want)
		}
	}
}

// TestGrowIsNotAWrite: Grow reserves capacity and nothing else. Two file
// systems run the same seeded script — writes under a write-corruption
// plan with integrity on, a sync, an unsynced tail — one of them calling
// Grow along the way; everything observable must agree, before and after
// a power failure.
func TestGrowIsNotAWrite(t *testing.T) {
	type observed struct {
		size      int64
		pastEnd   error
		stats     Stats
		ops       int64
		sim       time.Duration
		durable   []byte
		integrity IntegrityReport
		recovered []byte
	}
	run := func(grow bool) observed {
		fs := New(testConfig(), nil)
		fs.EnableIntegrity()
		fs.EnableCrashSim(11)
		fs.SetFaultPlan(faultinject.New(3).Arm(faultinject.LustreWrite, faultinject.Rule{Corrupt: true, After: 2, Times: 1}))
		h := fs.Create("dir/file")
		if grow {
			h.Grow(1 << 20)
		}
		for off := 0; off < 5*integrityBlock; off += integrityBlock {
			if _, err := h.WriteAt(bytes.Repeat([]byte{byte(off/integrityBlock + 1)}, integrityBlock), int64(off)); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir("dir"); err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt([]byte("unsynced tail"), 5*integrityBlock); err != nil {
			t.Fatal(err)
		}
		if grow {
			h.Grow(1 << 20) // also with content, a durable image and dirty writes in place
			if cap(h.f.data)-len(h.f.data) < 1<<20 {
				t.Fatalf("Grow(1 MiB) left %d spare bytes", cap(h.f.data)-len(h.f.data))
			}
		}
		var o observed
		o.size = h.Size()
		_, o.pastEnd = h.ReadAt(make([]byte, 8), o.size)
		o.stats, o.ops, o.sim = fs.Stats(), fs.OpCount(), fs.Clock().Total()
		o.durable = cloneBytes(h.f.durable)
		o.integrity = fs.IntegrityReport()
		fs.CrashNow()
		if _, err := fs.Recover(); err != nil {
			t.Fatal(err)
		}
		o.recovered = readBack(t, fs, "dir/file")
		return o
	}
	plain, grown := run(false), run(true)
	if plain.pastEnd != io.EOF {
		t.Fatalf("read at the end of the file: %v, want io.EOF", plain.pastEnd)
	}
	if !reflect.DeepEqual(plain, grown) {
		t.Errorf("Grow changed what the file system shows:\nwithout %+v\nwith    %+v", plain, grown)
	}
}

// TestGrownFileAllocatesOnce: after Grow(final size) the file's bytes are
// allocated — every write, sequential or concurrent and out of order,
// lands in that one array. The array may be larger than asked for (Grow
// draws it from bufpool's size classes); what is held is that it is not
// replaced.
func TestGrownFileAllocatesOnce(t *testing.T) {
	const chunk, chunks = 64 << 10, 64
	t.Run("sequential", func(t *testing.T) {
		fs := New(Titan(), nil)
		h := fs.Create("out")
		h.Grow(chunk * chunks)
		array := unsafe.SliceData(h.f.data)
		buf := bytes.Repeat([]byte{0xCD}, chunk)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < chunks; i++ {
			if _, err := h.Write(buf); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if unsafe.SliceData(h.f.data) != array || cap(h.f.data) < chunk*chunks {
			t.Error("writes into reserved capacity reallocated the file")
		}
		// The cost records and counters of 64 writes are a few KiB; one
		// more copy of the file would be 4 MiB.
		if got := after.TotalAlloc - before.TotalAlloc; got > chunk {
			t.Errorf("writing %d MiB into a grown file allocated %d bytes", chunk*chunks>>20, got)
		}
		if h.Size() != chunk*chunks {
			t.Fatalf("Size = %d, want %d", h.Size(), chunk*chunks)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		const writers, regions, regionLen = 16, 32, 96
		fs := New(testConfig(), nil)
		root := fs.Create("parts")
		root.Grow(writers * regions * regionLen)
		array := unsafe.SliceData(root.f.data)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := fs.OpenOrCreate("parts")
				for r := regions - 1; r >= 0; r-- {
					off := int64((r*writers + w) * regionLen)
					if _, err := h.WriteAt(bytes.Repeat([]byte{byte(w + 1)}, regionLen), off); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if unsafe.SliceData(root.f.data) != array || cap(root.f.data) < writers*regions*regionLen {
			t.Error("concurrent writes into reserved capacity reallocated the file")
		}
		for i, b := range readBack(t, fs, "parts") {
			if want := byte(i/regionLen%writers + 1); b != want {
				t.Fatalf("byte %d = %d, want %d", i, b, want)
			}
		}
	})
}
