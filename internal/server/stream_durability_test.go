package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/stream"
)

var errInjected = errors.New("injected file-system failure")

// failFS is a state port over a real directory that fails on cue: a
// power cut (every operation from the failAt-th on fails — the process
// is gone) or an outage (every operation fails while down is set).
// Operations are counted whether they read or write, so a cut can land
// inside recovery too. It can only stop operations; the crash simulator
// (crashSim) also drops and tears the writes that were not synced.
type failFS struct {
	checkpoint.FS
	count  atomic.Int64
	failAt atomic.Int64 // 0 = never
	down   atomic.Bool
}

func newFailFS(t *testing.T) *failFS {
	fs, err := checkpoint.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &failFS{FS: fs}
}

func (f *failFS) step() error {
	n := f.count.Add(1)
	if at := f.failAt.Load(); f.down.Load() || at > 0 && n >= at {
		return errInjected
	}
	return nil
}

func (f *failFS) WriteFile(name string, chunks ...[]byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.WriteFile(name, chunks...)
}

func (f *failFS) AppendFile(name string, data []byte) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.AppendFile(name, data)
}

func (f *failFS) ReadFile(name string) ([]byte, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.FS.ReadFile(name)
}

func (f *failFS) List(dir string) ([]string, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	return f.FS.List(dir)
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

func (f *failFS) SyncDir(dir string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.SyncDir(dir)
}

// powerCut is a state port whose power a test can cut at the k-th
// operation from now.
type powerCut interface {
	port() checkpoint.FS
	// files is a view of the same state that no cut fails.
	files() checkpoint.FS
	ops() int64
	cutAt(k int64)
	// restore ends a cut, armed or fired: what survived is the state.
	restore(t *testing.T)
}

func (f *failFS) port() checkpoint.FS  { return f }
func (f *failFS) files() checkpoint.FS { return f.FS }
func (f *failFS) ops() int64           { return f.count.Load() }
func (f *failFS) cutAt(k int64)        { f.failAt.Store(f.count.Load() + k) }
func (f *failFS) restore(t *testing.T) { f.failAt.Store(0) }

// crashSim is the state directory on the crash-simulating file system:
// a cut there also drops, reorders and tears every write not yet synced.
type crashSim struct{ fs *lustre.FS }

func newCrashSim(seed int64) crashSim {
	fs := lustre.New(lustre.Titan(), nil)
	fs.EnableCrashSim(seed)
	return crashSim{fs}
}

func (c crashSim) port() checkpoint.FS  { return lustreState(c.fs) }
func (c crashSim) files() checkpoint.FS { return lustreState(c.fs) }
func (c crashSim) ops() int64           { return c.fs.OpCount() }
func (c crashSim) cutAt(k int64)        { c.fs.ArmCrash(c.fs.OpCount() + k) }

func (c crashSim) restore(t *testing.T) {
	t.Helper()
	c.fs.ArmCrash(0)
	if c.fs.Crashed() {
		if _, err := c.fs.Recover(); err != nil {
			t.Fatal(err)
		}
	}
}

// isCut reports an error a power cut caused.
func isCut(err error) bool { return errors.Is(err, errInjected) || errors.Is(err, lustre.ErrCrashed) }

func stateConfig(p powerCut) Config { return Config{Workers: 1, StateDir: "state", Storage: p.port()} }

// restartThroughCuts starts a server on p's state with power cut at every
// operation of its recovery in turn, restoring after each, until one
// recovery completes. A recovery must fail only at its cut.
func restartThroughCuts(t *testing.T, p powerCut, context string) {
	t.Helper()
	for again := int64(1); ; again++ {
		start := p.ops()
		p.cutAt(again)
		s, err := New(stateConfig(p))
		if err == nil {
			s.Close()
			p.restore(t)
			return
		}
		// Whatever the dying process reported (a manifest it could not
		// read looks like a missing one), only the state it leaves
		// matters — unless it failed with the cut still ahead of it.
		if p.ops()-start < again {
			t.Fatalf("%s: recovery failed on its own: %v", context, err)
		}
		p.restore(t)
	}
}

// streamFiles counts the files in a stream's state directory.
func streamFiles(t *testing.T, fs checkpoint.FS, id string) int {
	t.Helper()
	names, err := fs.List(streamDir(id))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// TestStreamCrashPoints cuts power at every file-system operation of a
// short run — window fill, the tick that first drops an entry, steady
// state — and restarts a server on the directory each time. Recovery
// must succeed; the window must be the fault-free window before or
// after the interrupted tick, never anything else; every acknowledged
// tick must be there; and cutting power again anywhere inside that
// recovery (its orphan sweep included) must change nothing. It runs on a
// real directory that fails on cue and on the crash simulator.
func TestStreamCrashPoints(t *testing.T) {
	t.Run("dir", func(t *testing.T) {
		testStreamCrashPoints(t, func(int64) powerCut { return newFailFS(t) })
	})
	t.Run("crashsim", func(t *testing.T) {
		testStreamCrashPoints(t, func(cut int64) powerCut { return newCrashSim(cut) })
	})
}

func testStreamCrashPoints(t *testing.T, newState func(cut int64) powerCut) {
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
	run := func(p powerCut, cutAt int64) (id string, acked int, ops int64) {
		s, err := New(stateConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if id, err = s.CreateStream(sp); err != nil {
			t.Fatal(err)
		}
		created := p.ops()
		if cutAt > 0 {
			p.cutAt(cutAt)
		}
		for _, b := range batches {
			if _, err := s.StreamTick(id, b); err != nil {
				if !isCut(err) {
					t.Fatalf("cut at %d: tick %d: %v", cutAt, acked+1, err)
				}
				break // the process is gone
			}
			acked++
		}
		if files := streamFiles(t, p.files(), id); files > sp.WindowTicks+3+1 { // + the manifest's .tmp in flight
			t.Fatalf("cut at %d: %d files in the stream directory", cutAt, files)
		}
		return id, acked, p.ops() - created
	}
	_, acked, total := run(newState(0), 0)
	if acked != ticks || total < 5*ticks {
		t.Fatalf("fault-free run: %d ticks acknowledged over %d operations", acked, total)
	}

	for cut := int64(1); cut <= total; cut++ {
		p := newState(cut)
		// (A cut that only hits a retired snapshot's removal fails no
		// tick: the commit stands and the sweep collects the file.)
		id, acked, _ := run(p, cut)
		p.restore(t)
		context := fmt.Sprintf("cut at %d (%d ticks acknowledged)", cut, acked)
		restartThroughCuts(t, p, context)
		s, err := New(stateConfig(p))
		if err != nil {
			t.Fatalf("%s: restart: %v", context, err)
		}
		snap, err := s.StreamSnapshot(id)
		s.Close()
		if err != nil {
			t.Fatalf("%s: %v", context, err)
		}
		if files, most := streamFiles(t, p.files(), id), sp.WindowTicks+2; files > most {
			t.Fatalf("%s: %d files left after recovery, want at most %d", context, files, most)
		}
		if snap.Tick != acked && snap.Tick != acked+1 {
			t.Fatalf("%s: recovered at tick %d", context, snap.Tick)
		}
		sameSnapshot(t, snap, want[snap.Tick], context)
	}
}

// TestStreamCreateCloseCrashPoints cuts power at every operation of a
// stream's creation, first tick and close, and of a second stream's
// creation, on the crash simulator. Every restart must succeed, and the
// manifest decides which streams it finds: an acknowledged CreateStream's
// stream is there; one cut before its manifest's rename is not, leaving
// no directory behind; a stream whose CloseStream returned never comes
// back; and the tenant holds tokens for exactly the windows that did. At
// the parent commit a cut that left a stream directory without a
// manifest, or a manifest without its spec, stopped every later server.
func TestStreamCreateCloseCrashPoints(t *testing.T) {
	sp := StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 2}
	batch := dataset.Firehose(1, 30, 9, dataset.DefaultFirehoseOptions())[0]
	const first, second = "stream-000001", "stream-000002"

	// step is where a life stopped: its call, how many operations into it
	// the cut came, and whether it returned.
	type step struct {
		call     string
		at       int64 // operations into the call before the cut, counting the cut one
		returned bool
	}
	life := func(p powerCut) (steps []step) {
		s, err := New(stateConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		calls := []struct {
			name string
			do   func() error
		}{
			{"create " + first, func() error { _, err := s.CreateStream(sp); return err }},
			{"tick", func() error { _, err := s.StreamTick(first, batch); return err }},
			{"close " + first, func() error { return s.CloseStream(first) }},
			{"create " + second, func() error { _, err := s.CreateStream(sp); return err }},
		}
		for _, c := range calls {
			start := p.ops()
			err := c.do()
			steps = append(steps, step{c.name, p.ops() - start, err == nil})
			if err != nil {
				if !isCut(err) {
					t.Fatalf("%s: %v", c.name, err)
				}
				return steps
			}
		}
		return steps
	}
	probe := newCrashSim(1)
	full := life(probe)
	createOps, closeOps := full[0].at, full[2].at
	total := probe.ops()

	for cut := int64(1); cut <= total; cut++ {
		p := newCrashSim(cut)
		p.cutAt(cut)
		steps := life(p)
		p.restore(t)
		last := steps[len(steps)-1]
		context := fmt.Sprintf("cut at %d (in %q after %d operations)", cut, last.call, last.at)
		restartThroughCuts(t, p, context)
		s, err := New(stateConfig(p))
		if err != nil {
			t.Fatalf("%s: restart: %v", context, err)
		}
		var live []string
		for _, st := range s.Streams() {
			live = append(live, st.ID)
		}
		s.mu.Lock()
		tokens := s.tenantLocked(sp.Tenant).tokens
		s.mu.Unlock()
		var window int64
		for _, id := range live {
			snap, err := s.StreamSnapshot(id)
			if err != nil {
				t.Fatal(err)
			}
			window += int64(len(snap.Points))
		}
		s.Close()
		dirs, err := p.files().List(streamsDir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		if !slices.Equal(dirs, live) {
			t.Fatalf("%s: stream directories %v, live streams %v", context, dirs, live)
		}
		if tokens != window {
			t.Fatalf("%s: tenant holds %d tokens for %d live points", context, tokens, window)
		}
		has := func(id string) bool { return slices.Contains(live, id) }
		// What each stream's fate must be, from where its calls stopped.
		fate := func(id string, create, close int) (must, mustNot bool) {
			if create >= len(steps) {
				return false, true // never created
			}
			c := steps[create]
			switch {
			case !c.returned && c.at < createOps:
				return false, true // cut before the manifest's rename ran
			case !c.returned:
				return false, false // cut at the commit's directory sync
			case close < 0 || close >= len(steps):
				return true, false
			case steps[close].returned || steps[close].at > 2:
				return false, true // the manifest's removal is durable
			case steps[close].at < 2:
				return true, false // cut before the manifest's removal ran
			}
			return false, false // cut at the removal's directory sync
		}
		for _, f := range []struct {
			id            string
			create, close int
		}{{first, 0, 2}, {second, 3, -1}} {
			must, mustNot := fate(f.id, f.create, f.close)
			if must && !has(f.id) || mustNot && has(f.id) {
				t.Fatalf("%s: %s live = %v, want live %v / gone %v", context, f.id, has(f.id), must, mustNot)
			}
		}
	}
	if createOps < 4 || closeOps < 3 {
		t.Fatalf("CreateStream took %d operations, CloseStream %d", createOps, closeOps)
	}
}

// TestStreamFailedSaveCatchesUp fails exactly one tick's save. That tick
// reports the checkpoint error with the window advanced in memory; the
// next tick must make both durable, so a restart serves exactly the
// live window — the failed tick's arrivals included — and the tenant's
// quota tokens stay balanced throughout.
func TestStreamFailedSaveCatchesUp(t *testing.T) {
	sp := StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 3}
	batches := dataset.Firehose(7, 40, 9, dataset.DefaultFirehoseOptions())
	fs := newFailFS(t)
	s, err := New(stateConfig(fs))
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

	s2, err := New(stateConfig(fs))
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
			files := streamFiles(t, s.state, id)
			bad := append([]geom.Point{batches[2][0]}, b...) // an ID still in the window
			if _, err := s.StreamTick(id, bad); err == nil {
				t.Fatal("a batch repeating a live ID was accepted")
			}
			if got := streamFiles(t, s.state, id); got != files {
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
	if err := legacy.Save("spec", sp); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Save("window", ref.WindowState()); err != nil {
		t.Fatal(err)
	}
	windowFile := filepath.Join(dir, streamDir(id), "ckpt-window.ckpt")
	root, err := checkpoint.DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(1); ; cut++ {
		fs := &failFS{FS: root}
		fs.failAt.Store(cut)
		s, err := New(stateConfig(fs))
		if err == nil {
			s.Close()
			break
		}
		if fs.count.Load() < cut {
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
	if _, err := os.Stat(windowFile); !errors.Is(err, os.ErrNotExist) {
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
	if _, err := os.Stat(windowFile); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a tick wrote a whole-window snapshot again: %v", err)
	}
}

// persistedStreamSpec is a stream spec as the server saved it while
// streams could be subsampled and re-anchored: the same gob type name and
// fields, so a spec saved from it is byte for byte what that server
// wrote.
type persistedStreamSpec struct {
	Tenant             string
	Name               string
	Eps                float64
	MinPts             int
	WindowTicks        int
	SubsampleThreshold int
	SubsampleRate      float64
	ReanchorEvery      int
	Seed               int64
}

// TestRecoverParentSampledStream recovers a stream directory written
// before subsampled ε-queries were removed: its spec turns sampling on
// at every cell population (threshold 1, rate 0.3) and asks for a
// re-anchor every two ticks. The fields are skipped by name, and the
// recovered stream must serve exactly the labels of a fresh exact engine
// fed the same ticks, then keep ticking exactly. On this input the
// sampled engine's labels differ from the exact ones.
func TestRecoverParentSampledStream(t *testing.T) {
	sp := StreamSpec{Tenant: "acme", Name: "geo", Eps: 0.05, MinPts: 8, WindowTicks: 4}
	batches := dataset.Firehose(9, 200, 29, dataset.DefaultFirehoseOptions())
	const id = "stream-000003"
	dir := t.TempDir()
	fs, err := checkpoint.DirFS(filepath.Join(dir, streamDir(id)))
	if err != nil {
		t.Fatal(err)
	}
	store := checkpoint.NewStore(fs, id)
	err = store.Save(specPhase, persistedStreamSpec{
		Tenant: sp.Tenant, Name: sp.Name, Eps: sp.Eps, MinPts: sp.MinPts, WindowTicks: sp.WindowTicks,
		SubsampleThreshold: 1, SubsampleRate: 0.3, ReanchorEvery: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := refEngine(t, sp)
	for i, b := range batches[:6] {
		tick := i + 1
		var retire []string
		if old := tick - sp.WindowTicks; old >= 1 {
			retire = append(retire, tickPhase(old))
		}
		if err := store.Rotate(tickSaveKind, tickPhase(tick), stream.TickArrivals{Tick: tick, Points: b}, retire...); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Tick(b); err != nil {
			t.Fatal(err)
		}
	}

	s, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.StreamStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Recovered || st.Tenant != sp.Tenant || st.Name != sp.Name || st.Eps != sp.Eps ||
		st.MinPts != sp.MinPts || st.WindowTicks != sp.WindowTicks || st.Tick != 6 {
		t.Fatalf("recovered status %+v does not match the spec %+v at tick 6", st, sp)
	}
	got, err := s.StreamSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, got, ref.Snapshot(), "recovered sampled stream")
	for _, b := range batches[6:] {
		if _, err := s.StreamTick(id, b); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Tick(b); err != nil {
			t.Fatal(err)
		}
		got, _ := s.StreamSnapshot(id)
		sameSnapshot(t, got, ref.Snapshot(), "ticking on after recovery")
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
			series, files = len(s.hub.Metrics.Snapshot()), streamFiles(t, s.state, id)
		}
	}
	if got := len(s.hub.Metrics.Snapshot()); got != series {
		t.Fatalf("hub holds %d series after 200 ticks, %d after tick %d", got, series, sp.WindowTicks+1)
	}
	if got := streamFiles(t, s.state, id); got != files || files != sp.WindowTicks+2 {
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
