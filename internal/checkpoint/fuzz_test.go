package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/integrity"
	"repro/internal/lustre"
)

// crashImages runs the crash-point sweep's save workload, loses power at
// every file-system operation in turn, and returns every file image the
// recovered store holds — published snapshots, manifests and the .tmp
// files a crash strands, whole, empty and torn: what the durable formats'
// readers find in the field.
func crashImages(tb testing.TB) [][]byte {
	probe := lustre.New(lustre.Titan(), nil)
	probe.EnableCrashSim(1)
	if err := saveWorkload(NewStore(LustreFS(probe), "run1")); err != nil {
		tb.Fatal(err)
	}
	var images [][]byte
	seen := map[string]bool{}
	for k := int64(2); k <= probe.OpCount(); k++ {
		fs := lustre.New(lustre.Titan(), nil)
		fs.EnableCrashSim(k)
		fs.ArmCrash(k)
		saveWorkload(NewStore(LustreFS(fs), "run1")) // fails at the crash
		if _, err := fs.Recover(); err != nil {
			tb.Fatal(err)
		}
		for _, name := range fs.List() {
			h, err := fs.Open(name)
			if err != nil {
				tb.Fatal(err)
			}
			img := make([]byte, h.Size())
			if len(img) > 0 {
				if _, err := h.ReadAt(img, 0); err != nil {
					tb.Fatal(err)
				}
			}
			if !seen[string(img)] {
				seen[string(img)] = true
				images = append(images, img)
			}
		}
	}
	return images
}

// allocatedBy returns the bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzCheckpointEnvelope feeds the MRCKPT envelope verifier arbitrary
// file images. It never panics; it allocates in proportion to the bytes
// it was given, whatever length the header claims (it allocates nothing:
// the payload is a subslice of the image); it fails only as
// ErrCorrupt (a short file also as integrity.ErrTorn); and what it
// accepts re-seals to the bytes it consumed.
func FuzzCheckpointEnvelope(f *testing.F) {
	for _, img := range crashImages(f) {
		f.Add(img)
	}
	huge := append([]byte(magic), 1, 0, 0, 0, 0, 0) // version 1, CRC 0
	f.Add(binary.LittleEndian.AppendUint64(huge, 1<<32))
	f.Add(binary.LittleEndian.AppendUint64(huge, 1<<32-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			payload []byte
			err     error
		)
		allocated := allocatedBy(func() { payload, err = verifyEnvelope(data, "fuzz.ckpt") })
		if limit := uint64(4*len(data)) + 64<<10; allocated > limit {
			t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), allocated)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			if len(data) < headerSize && !errors.Is(err, integrity.ErrTorn) {
				t.Fatalf("a %d-byte file is torn; got %v", len(data), err)
			}
			return
		}
		fs := lustre.New(lustre.Titan(), nil)
		if _, err := NewStore(LustreFS(fs), "run1").writeFile("fuzz.ckpt", payload); err != nil {
			t.Fatal(err)
		}
		h, err := fs.Open("fuzz.ckpt")
		if err != nil {
			t.Fatal(err)
		}
		sealed := make([]byte, h.Size())
		h.ReadAt(sealed, 0)
		if len(data) < len(sealed) || !bytes.Equal(data[:len(sealed)], sealed) {
			t.Fatalf("accepted envelope (%d-byte payload) does not re-seal to the consumed bytes", len(payload))
		}
		// The same image under a store: loading it as a manifest either
		// decodes or is ErrCorrupt.
		var m Manifest
		if err := NewStore(LustreFS(fs), "run1").loadFile("fuzz.ckpt", &m); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped error decoding the payload: %v", err)
		}
	})
}

// FuzzManifest puts arbitrary bytes where a store expects its manifest —
// inside a valid envelope, so they reach the decoder. Opening the store
// never panics and allocates within a bound; a manifest it cannot use is
// ignored; what it reports
// complete either loads or fails typed; and the store still takes, and
// gives back, a new snapshot.
func FuzzManifest(f *testing.F) {
	for _, img := range crashImages(f) {
		if payload, err := verifyEnvelope(img, "seed"); err == nil {
			f.Add(payload)
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		fs := lustre.New(lustre.Titan(), nil)
		if _, err := NewStore(LustreFS(fs), "run1").writeFile(ManifestName, payload); err != nil {
			t.Fatal(err)
		}
		st := NewStore(LustreFS(fs), "run1")
		var completed []string
		allocated := allocatedBy(func() { completed = st.Completed() })
		// encoding/gob takes a message's length prefix at its word for the
		// first 10 MB (it reads in chunks of that size), which is the floor
		// of what a hostile manifest can cost.
		if limit := uint64(64*len(payload)) + 12<<20; allocated > limit {
			t.Fatalf("opening a %d-byte manifest allocated %d bytes", len(payload), allocated)
		}
		for _, phase := range completed {
			var got snap
			if err := st.Load(phase, &got); err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("phase %q: untyped error: %v", phase, err)
			}
		}
		st.ValidPrefix([]string{"partition", "cluster"})
		want := testSnap(3)
		if err := st.Save("fuzzed", want); err != nil {
			t.Fatal(err)
		}
		var got snap
		if err := NewStore(LustreFS(fs), "run1").Load("fuzzed", &got); err != nil || len(got.Points) != len(want.Points) {
			t.Fatalf("snapshot saved over the fuzzed manifest: %d points, %v", len(got.Points), err)
		}
	})
}
