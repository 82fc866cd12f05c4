package lustre

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faultinject"
	"repro/internal/health"
)

// readOutcome is everything a read shows its caller and the file system's
// books: View must match ReadAt on all of it.
type readOutcome struct {
	data  []byte
	err   string
	stats Stats
	sim   time.Duration
	rpt   IntegrityReport
}

// viewVsReadAt runs the same reads of one seeded file system twice — once
// through ReadAt, once through View — and returns both outcomes. setup
// configures the FS (plan, integrity, budget) before the file is written.
func viewVsReadAt(t *testing.T, setup func(fs *FS), ranges [][2]int64) (readAt, view []readOutcome) {
	t.Helper()
	content := patterned(5*integrityBlock + 123)
	run := func(read func(h *Handle, off, n int64) ([]byte, error)) []readOutcome {
		fs := New(smallStripes(), nil)
		setup(fs)
		if _, err := fs.Create("f").WriteAt(content, 0); err != nil {
			t.Fatal(err)
		}
		h, err := fs.Open("f")
		if err != nil {
			t.Fatal(err)
		}
		var outs []readOutcome
		for _, r := range ranges {
			data, err := read(h, r[0], r[1])
			o := readOutcome{data: data, stats: fs.Stats(), sim: fs.Clock().Total(), rpt: fs.IntegrityReport()}
			if err != nil {
				o.err = err.Error()
			}
			outs = append(outs, o)
		}
		return outs
	}
	readAt = run(func(h *Handle, off, n int64) ([]byte, error) {
		p := make([]byte, n)
		if _, err := h.ReadAt(p, off); err != nil {
			return nil, err
		}
		return p, nil
	})
	view = run(func(h *Handle, off, n int64) (data []byte, err error) {
		err = h.View(off, n, func(b []byte) error {
			data = bytes.Clone(b)
			return nil
		})
		return data, err
	})
	return readAt, view
}

// On a file system with nothing to inject or verify, View lends the
// stored bytes and books exactly what ReadAt books: ops, bytes, seeks
// (sequential and not) and simulated cost, short ranges included.
func TestViewEqualsReadAtOnCleanFS(t *testing.T) {
	size := int64(5*integrityBlock + 123)
	ranges := [][2]int64{
		{0, 16},                  // header-sized, fresh handle: a seek
		{16, 3 * integrityBlock}, // contiguous: no seek
		{100, 5000},              // back: a seek, crosses stripes
		{size - 10, 10},          // up to EOF exactly
		{size - 10, 11},          // one byte short: io.EOF
		{size + 50, 8},           // wholly past EOF: io.EOF, zero bytes booked
		{size + 50, 0},           // empty range past EOF: fine, like ReadAt
		{0, size},                // everything
	}
	readAt, view := viewVsReadAt(t, func(*FS) {}, ranges)
	for i := range ranges {
		if !reflect.DeepEqual(readAt[i], view[i]) {
			t.Errorf("range %v:\nReadAt %+v\nView   %+v", ranges[i], readAt[i].stats, view[i].stats)
		}
	}
	if readAt[4].err != io.EOF.Error() || view[4].err != io.EOF.Error() {
		t.Errorf("short range: ReadAt %q, View %q, want io.EOF from both", readAt[4].err, view[4].err)
	}
}

// With a corrupting read plan and integrity on, View is ReadAt into a
// private buffer: the same seed gives the same healed bytes, ledger,
// rereads and simulated cost.
func TestViewEqualsReadAtUnderCorruption(t *testing.T) {
	setup := func(fs *FS) {
		fs.EnableIntegrity()
		fs.SetFaultPlan(faultinject.New(5).Arm(faultinject.LustreRead, faultinject.Rule{Corrupt: true, Times: 2}))
	}
	ranges := [][2]int64{{0, 3 * integrityBlock}, {integrityBlock, 2 * integrityBlock}, {0, 100}}
	readAt, view := viewVsReadAt(t, setup, ranges)
	if !reflect.DeepEqual(readAt, view) {
		t.Errorf("outcomes differ:\nReadAt %+v\nView   %+v", readAt, view)
	}
	last := view[len(view)-1].rpt
	if last.DetectedRead != 2 || last.Rereads != 2 {
		t.Fatalf("ledger %+v, want the plan's 2 corruptions detected and reread", last)
	}
}

// A denied reread fails View exactly as it fails ReadAt, and fn is not
// shown the corrupt bytes.
func TestViewBudgetDeniedLikeReadAt(t *testing.T) {
	setup := func(fs *FS) {
		fs.EnableIntegrity()
		fs.SetRetryBudget(health.NewBudget(0, 0))
		fs.SetFaultPlan(faultinject.New(1).Arm(faultinject.LustreRead, faultinject.Rule{Corrupt: true, Times: 1}))
	}
	readAt, view := viewVsReadAt(t, setup, [][2]int64{{0, integrityBlock}, {0, integrityBlock}})
	if !reflect.DeepEqual(readAt, view) {
		t.Errorf("outcomes differ:\nReadAt %+v\nView   %+v", readAt, view)
	}
	if view[0].data != nil || view[0].err == "" {
		t.Fatalf("denied read: data %v, err %q", view[0].data != nil, view[0].err)
	}

	fs := New(smallStripes(), nil)
	setup(fs)
	h := fs.Create("f")
	if _, err := h.WriteAt(patterned(integrityBlock), 0); err != nil {
		t.Fatal(err)
	}
	err := h.View(0, integrityBlock, func([]byte) error {
		t.Error("fn called on a read that failed verification")
		return nil
	})
	if !errors.Is(err, ErrCorruptData) || !errors.Is(err, health.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrCorruptData wrapping ErrBudgetExhausted", err)
	}
}

// The lent slice is the file's own memory with its capacity clipped: an
// append inside fn must not reach the bytes after the range. When the FS
// injects, verifies or models crashes, fn gets a private copy instead.
func TestViewLendsOnlyWhenReadsAreCopies(t *testing.T) {
	lent := func(fs *FS) bool {
		h := fs.Create("f")
		if _, err := h.WriteAt(patterned(4096), 0); err != nil {
			t.Fatal(err)
		}
		var stored bool
		err := h.View(100, 200, func(b []byte) error {
			if len(b) != 200 || cap(b) != 200 {
				t.Errorf("fn saw len %d cap %d, want 200 and 200", len(b), cap(b))
			}
			stored = unsafe.SliceData(b) == &h.f.data[100]
			_ = append(b, 0xEE) // must reallocate, not write byte 300 of the file
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := readBack(t, fs, "f"); !bytes.Equal(got, patterned(4096)) {
			t.Error("an append inside fn reached the file")
		}
		return stored
	}
	if !lent(New(smallStripes(), nil)) {
		t.Error("a clean file system copied instead of lending")
	}
	withPlan := New(smallStripes(), nil)
	withPlan.SetFaultPlan(faultinject.New(1))
	withIntegrity := New(smallStripes(), nil)
	withIntegrity.EnableIntegrity()
	withCrash := New(smallStripes(), nil)
	withCrash.EnableCrashSim(1)
	for name, fs := range map[string]*FS{"fault plan": withPlan, "integrity": withIntegrity, "crash model": withCrash} {
		if lent(fs) {
			t.Errorf("with a %s installed View lent the stored bytes", name)
		}
	}
}

// fn's error is View's; a crashed file system and a fired fault fail the
// read before fn, as they fail ReadAt.
func TestViewErrors(t *testing.T) {
	fs := New(smallStripes(), nil)
	h := fs.Create("f")
	if _, err := h.WriteAt(patterned(64), 0); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("decode failed")
	if err := h.View(0, 64, func([]byte) error { return boom }); err != boom {
		t.Errorf("fn's error came back as %v", err)
	}
	if err := h.View(-1, 4, func([]byte) error { return nil }); err == nil {
		t.Error("negative offset accepted")
	}
	if err := h.View(0, -4, func([]byte) error { return nil }); err == nil {
		t.Error("negative length accepted")
	}
	fs.SetFaultPlan(faultinject.New(1).Arm(faultinject.LustreRead, faultinject.Rule{Times: 1}))
	called := false
	if err := h.View(0, 64, func([]byte) error { called = true; return nil }); !errors.Is(err, faultinject.ErrInjected) || called {
		t.Errorf("armed lustre.read: err %v, fn called %v", err, called)
	}
	fs.EnableCrashSim(1)
	fs.CrashNow()
	if err := h.View(0, 64, func([]byte) error { called = true; return nil }); !errors.Is(err, ErrCrashed) || called {
		t.Errorf("after a crash: err %v, fn called %v", err, called)
	}
}
