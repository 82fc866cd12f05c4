package server

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stream"
)

var errInjected = errors.New("injected file-system failure")

// failFS is a checkpoint.FS over a real directory that fails on cue: a
// power cut (every operation from the failAt-th on fails — the process
// is gone) or an outage (every operation fails while down is set).
// Operations are counted whether they read or write, so a cut can land
// inside recovery too.
type failFS struct {
	checkpoint.FS
	ops    atomic.Int64
	failAt atomic.Int64 // 0 = never
	down   atomic.Bool
}

func (f *failFS) step() error {
	n := f.ops.Add(1)
	if at := f.failAt.Load(); f.down.Load() || at > 0 && n >= at {
		return errInjected
	}
	return nil
}

// open is the streamFS a test server is built with: the one stream of
// these tests gets f wrapped around its directory.
func (f *failFS) open(dir string) (checkpoint.FS, error) {
	fs, err := checkpoint.DirFS(dir)
	f.FS = fs
	return f, err
}

func (f *failFS) Create(name string) (checkpoint.File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	file, err := f.FS.Create(name)
	return &failFile{file, f}, err
}

func (f *failFS) Open(name string) (checkpoint.File, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.FS.Open(name)
}

func (f *failFS) Rename(o, n string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.Rename(o, n)
}

func (f *failFS) Remove(name string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.Remove(name)
}

func (f *failFS) List() ([]string, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.FS.List()
}

func (f *failFS) SyncDir() error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.SyncDir()
}

type failFile struct {
	checkpoint.File
	fs *failFS
}

func (f *failFile) Write(p []byte) (int, error) {
	if err := f.fs.step(); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f *failFile) Sync() error {
	if err := f.fs.step(); err != nil {
		return err
	}
	return f.File.Sync()
}

// Close always closes the real file (the test must not leak handles)
// but reports the cut.
func (f *failFile) Close() error {
	err := f.File.(io.Closer).Close()
	if stepErr := f.fs.step(); stepErr != nil {
		return stepErr
	}
	return err
}

// streamFiles counts the files in a stream's state directory.
func streamFiles(t *testing.T, s *Server, id string) int {
	t.Helper()
	entries, err := os.ReadDir(s.streamDir(id))
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

// TestStreamCrashPoints cuts power at every file-system operation of a
// short run — window fill, the tick that first drops an entry, steady
// state — and restarts a server on the directory each time. Recovery
// must succeed; the window must be the fault-free window before or
// after the interrupted tick, never anything else; every acknowledged
// tick must be there; and cutting power again anywhere inside that
// recovery (its orphan sweep included) must change nothing. At the
// parent commit a cut between the window snapshot's rename and the
// manifest's left a directory no server could open.
func TestStreamCrashPoints(t *testing.T) {
	const ticks = 5
	sp := StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 2}
	batches := dataset.Firehose(ticks, 30, 5, dataset.DefaultFirehoseOptions())
	ref := refEngine(t, sp)
	want := []stream.Snapshot{ref.Snapshot()}
	for _, b := range batches {
		if _, err := ref.Tick(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, ref.Snapshot())
	}

	// run feeds the batches until one fails and returns how many were
	// acknowledged; cutAt is counted from after CreateStream.
	run := func(dir string, cutAt int64) (id string, acked int, ops int64) {
		fs := &failFS{}
		s, err := newServer(Config{Workers: 1, StateDir: dir}, fs.open)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if id, err = s.CreateStream(sp); err != nil {
			t.Fatal(err)
		}
		created := fs.ops.Load()
		if cutAt > 0 {
			fs.failAt.Store(created + cutAt)
		}
		for _, b := range batches {
			if _, err := s.StreamTick(id, b); err != nil {
				if !errors.Is(err, errInjected) {
					t.Fatalf("cut at %d: tick %d: %v", cutAt, acked+1, err)
				}
				break // the process is gone
			}
			acked++
		}
		if files := streamFiles(t, s, id); files > sp.WindowTicks+3+1 { // + the manifest's .tmp in flight
			t.Fatalf("cut at %d: %d files in the stream directory", cutAt, files)
		}
		return id, acked, fs.ops.Load() - created
	}
	_, acked, total := run(t.TempDir(), 0)
	if acked != ticks || total < 10*ticks {
		t.Fatalf("fault-free run: %d ticks acknowledged over %d operations", acked, total)
	}

	recovered := func(dir, id, context string) stream.Snapshot {
		s, err := New(Config{Workers: 1, StateDir: dir})
		if err != nil {
			t.Fatalf("%s: restart: %v", context, err)
		}
		defer s.Close()
		snap, err := s.StreamSnapshot(id)
		if err != nil {
			t.Fatalf("%s: %v", context, err)
		}
		if files, most := streamFiles(t, s, id), sp.WindowTicks+2; files > most {
			t.Fatalf("%s: %d files left after recovery, want at most %d", context, files, most)
		}
		return snap
	}
	for cut := int64(1); cut <= total; cut++ {
		dir := t.TempDir()
		// (A cut that only hits a retired snapshot's removal fails no
		// tick: the commit stands and the sweep collects the file.)
		id, acked, _ := run(dir, cut)
		// A second cut inside recovery, at every operation it makes.
		for again := int64(1); ; again++ {
			fs := &failFS{}
			fs.failAt.Store(again)
			s, err := newServer(Config{Workers: 1, StateDir: dir}, fs.open)
			if err == nil {
				s.Close()
				break // recovery finished before the cut
			}
			// Whatever the dying process reported (a manifest it could
			// not read looks like a missing one), only the directory
			// it leaves matters — unless it failed with the cut still
			// ahead of it.
			if fs.ops.Load() < again {
				t.Fatalf("cut at %d: recovery failed on its own: %v", cut, err)
			}
		}
		context := fmt.Sprintf("cut at %d (%d ticks acknowledged)", cut, acked)
		snap := recovered(dir, id, context)
		if snap.Tick != acked && snap.Tick != acked+1 {
			t.Fatalf("%s: recovered at tick %d", context, snap.Tick)
		}
		sameSnapshot(t, snap, want[snap.Tick], context)
	}
}

// TestStreamFailedSaveCatchesUp fails exactly one tick's save. That tick
// reports the checkpoint error with the window advanced in memory; the
// next tick must make both durable, so a restart serves exactly the
// live window — the failed tick's arrivals included — and the tenant's
// quota tokens stay balanced throughout.
func TestStreamFailedSaveCatchesUp(t *testing.T) {
	dir := t.TempDir()
	sp := StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 3}
	batches := dataset.Firehose(7, 40, 9, dataset.DefaultFirehoseOptions())
	fs := &failFS{}
	s, err := newServer(Config{Workers: 1, StateDir: dir}, fs.open)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	tokens := func(s *Server) int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.tenants["acme"].tokens
	}
	for i, b := range batches {
		fs.down.Store(i == 4)
		// The caller may reuse its slice: the queued tick must not alias it.
		mine := append([]geom.Point(nil), b...)
		_, err := s.StreamTick(id, mine)
		clear(mine)
		if i == 4 {
			if !errors.Is(err, errInjected) {
				t.Fatalf("tick %d with the disk down: %v, want the checkpoint error", i+1, err)
			}
		} else if err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
		st, _ := s.StreamStatus(id)
		if st.Tick != i+1 || tokens(s) != int64(st.WindowPoints) {
			t.Fatalf("after tick %d: stream at tick %d with %d points, tenant holds %d tokens",
				i+1, st.Tick, st.WindowPoints, tokens(s))
		}
	}
	live, err := s.StreamSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.StreamSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, got, live, "restart after a failed save")
	for i := range got.Points {
		if got.Points[i] != live.Points[i] {
			t.Fatalf("restart after a failed save: point %d is %v, live engine had %v", i, got.Points[i], live.Points[i])
		}
	}
	if tokens(s2) != int64(len(live.Points)) {
		t.Fatalf("restarted tenant holds %d tokens for a %d-point window", tokens(s2), len(live.Points))
	}
}

// TestStreamRejectedTickLeavesNoTrace: a tick's save runs beside the
// engine's repair, so it must not start before the engine has admitted
// the batch. A batch the engine refuses (a duplicate ID) leaves the
// directory as it was and the window, after a restart, without it; the
// next good tick, which takes the refused one's number, commits.
func TestStreamRejectedTickLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	sp := StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 2}
	batches := dataset.Firehose(4, 30, 13, dataset.DefaultFirehoseOptions())
	s, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	ref := refEngine(t, sp)
	for i, b := range batches {
		if i == 3 {
			files := streamFiles(t, s, id)
			bad := append([]geom.Point{batches[2][0]}, b...) // an ID still in the window
			if _, err := s.StreamTick(id, bad); err == nil {
				t.Fatal("a batch repeating a live ID was accepted")
			}
			if got := streamFiles(t, s, id); got != files {
				t.Fatalf("the refused tick left %d files in the stream directory, %d before it", got, files)
			}
		}
		if _, err := s.StreamTick(id, b); err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
		if _, err := ref.Tick(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.StreamSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, got, ref.Snapshot(), "restart after a refused tick")
}

// TestStreamLegacyWindowUpgrade recovers a state directory as the
// parent commit wrote it — a "spec" and one whole-window "window"
// snapshot — with power cut at every operation of the conversion, then
// for good: the window must come back intact, as tick entries, with no
// "window" snapshot left, and keep ticking.
func TestStreamLegacyWindowUpgrade(t *testing.T) {
	sp := StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 3}
	batches := dataset.Firehose(8, 30, 21, dataset.DefaultFirehoseOptions())
	batches[4] = nil // the cursor tick of the legacy window arrived empty
	ref := refEngine(t, sp)
	for _, b := range batches[:5] {
		if _, err := ref.Tick(b); err != nil {
			t.Fatal(err)
		}
	}
	const id = "stream-000007"
	dir := t.TempDir()
	legacyFS, err := checkpoint.DirFS(dir + "/streams/" + id)
	if err != nil {
		t.Fatal(err)
	}
	legacy := checkpoint.NewStore(legacyFS, id)
	if err := legacy.Save("spec", fromSpec(sp)); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Save("window", ref.WindowState()); err != nil {
		t.Fatal(err)
	}

	for cut := int64(1); ; cut++ {
		fs := &failFS{}
		fs.failAt.Store(cut)
		s, err := newServer(Config{Workers: 1, StateDir: dir}, fs.open)
		if err == nil {
			s.Close()
			break
		}
		if fs.ops.Load() < cut {
			t.Fatalf("upgrade failed on its own: %v", err)
		}
	}
	s, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, err := s.StreamSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, got, ref.Snapshot(), "upgraded legacy directory")
	if _, err := os.Stat(s.streamDir(id) + "/ckpt-window.ckpt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the whole-window snapshot survives the upgrade: %v", err)
	}
	for _, b := range batches[5:] {
		if _, err := s.StreamTick(id, b); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Tick(b); err != nil {
			t.Fatal(err)
		}
	}
	got, _ = s.StreamSnapshot(id)
	sameSnapshot(t, got, ref.Snapshot(), "ticking on after the upgrade")
	if _, err := os.Stat(s.streamDir(id) + "/ckpt-window.ckpt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a tick wrote a whole-window snapshot again: %v", err)
	}
}

// TestStreamSteadyStateFootprint ticks a durable stream 200 times: the
// hub must not gain a series, nor the stream directory a file, after
// the window first rolls (tick WindowTicks + 1) — a tick-numbered
// metric label or a leaked tick snapshot would grow with every tick.
func TestStreamSteadyStateFootprint(t *testing.T) {
	s, err := New(Config{Workers: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sp := StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 4}
	id, err := s.CreateStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	var series, files int
	for i, b := range dataset.Firehose(200, 20, 3, dataset.DefaultFirehoseOptions()) {
		if _, err := s.StreamTick(id, b); err != nil {
			t.Fatal(err)
		}
		if i+1 == sp.WindowTicks+1 {
			series, files = len(s.hub.Metrics.Snapshot()), streamFiles(t, s, id)
		}
	}
	if got := len(s.hub.Metrics.Snapshot()); got != series {
		t.Fatalf("hub holds %d series after 200 ticks, %d after tick %d", got, series, sp.WindowTicks+1)
	}
	if got := streamFiles(t, s, id); got != files || files != sp.WindowTicks+2 {
		t.Fatalf("stream directory holds %d files after 200 ticks, %d after tick %d; want manifest + spec + %d ticks",
			got, files, sp.WindowTicks+1, sp.WindowTicks)
	}
	if n := s.hub.Counter("checkpoint_saves_total", "phase", tickSaveKind).Value(); n != 200 {
		t.Fatalf("checkpoint_saves_total{phase=%q} = %d, want 200", tickSaveKind, n)
	}
}

// BenchmarkStreamTickDurable is one served tick at the repo benchmark's
// serve_stream shape (2 000 arrivals against a 40k-point window) with a
// real StateDir: engine repair plus the tick's durable commit.
func BenchmarkStreamTickDurable(b *testing.B) {
	const window = 20
	batches := dataset.Firehose(window+b.N+1, 2000, 7, dataset.DefaultFirehoseOptions())
	s, err := New(Config{Workers: 1, StateDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id, err := s.CreateStream(StreamSpec{Eps: 0.12, MinPts: 8, WindowTicks: window})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches[:window] {
		if _, err := s.StreamTick(id, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.StreamTick(id, batches[window+i]); err != nil {
			b.Fatal(err)
		}
	}
}
