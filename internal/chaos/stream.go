package chaos

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/server"
	"repro/internal/stream"
)

// The stream scenario audits the sliding-window engine's serving
// contract across faults: a server ingests a seeded firehose and is
// taken down twice mid-sequence — once drained between two ticks, once
// by a power cut inside a tick's save (the tick's snapshot published,
// the manifest commit not) — and each time a fresh instance on the same
// state directory recovers the stream and keeps ticking. Because the
// engine's labels are deterministic (restart-stable cluster IDs), the
// audit is exact equality — after every tick, on either side of a
// restart, the served snapshot must be bit-identical to a fault-free
// reference engine fed the same full sequence. Invalid batches
// (duplicate IDs, over-quota ticks) injected along the way must be
// rejected with typed errors and leave the window untouched.

// StreamOptions configures a stream chaos campaign.
type StreamOptions struct {
	// Seeds are the campaign seeds (one server lifecycle per seed).
	Seeds []int64
	// Ticks is the firehose length (default 12); PerTick the batch size
	// (default 300); WindowTicks the sliding window (default 4).
	Ticks       int
	PerTick     int
	WindowTicks int
	// RunTimeout bounds one seed's lifecycle (default 2m).
	RunTimeout time.Duration
	// Logf, when set, receives per-seed progress lines.
	Logf func(format string, args ...any)
}

func (o *StreamOptions) setDefaults() {
	if o.Ticks <= 0 {
		o.Ticks = 12
	}
	if o.PerTick <= 0 {
		o.PerTick = 300
	}
	if o.WindowTicks <= 0 {
		o.WindowTicks = 4
	}
	if o.RunTimeout <= 0 {
		o.RunTimeout = 2 * time.Minute
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// StreamRunReport is the audited result of one seed's lifecycle.
type StreamRunReport struct {
	Seed    int64         `json:"seed"`
	Outcome Outcome       `json:"outcome"`
	Reason  string        `json:"reason,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`

	Ticks         int `json:"ticks"`
	Points        int `json:"points"`
	RestartAtTick int `json:"restart_at_tick"`
	// StrikeAtTick is the tick whose save the power cut interrupted.
	StrikeAtTick int `json:"strike_at_tick"`
	// InvalidRejected counts injected bad batches the server rejected
	// with typed errors (every injection must land here).
	InvalidRejected int `json:"invalid_rejected"`
	FinalClusters   int `json:"final_clusters"`
}

// StreamReport aggregates a stream chaos campaign.
type StreamReport struct {
	Runs   []StreamRunReport `json:"runs"`
	OK     int               `json:"ok"`
	Failed int               `json:"failed"`
}

// RunStream executes the stream campaign.
func RunStream(o StreamOptions) *StreamReport {
	o.setDefaults()
	rpt := &StreamReport{}
	for _, seed := range o.Seeds {
		r := RunStreamSeed(seed, o)
		rpt.Runs = append(rpt.Runs, r)
		if r.Outcome == OutcomeFail {
			rpt.Failed++
			o.Logf("stream seed %d: FAIL: %s", seed, r.Reason)
		} else {
			rpt.OK++
			o.Logf("stream seed %d: ok (%d ticks, %d points, restart at tick %d, cut inside the save of tick %d, %d invalid rejected, %d clusters)",
				seed, r.Ticks, r.Points, r.RestartAtTick, r.StrikeAtTick, r.InvalidRejected, r.FinalClusters)
		}
	}
	return rpt
}

// RunStreamSeed runs one seeded firehose through a drain/restart and a
// power cut inside a save, and audits label fidelity against the
// fault-free reference.
func RunStreamSeed(seed int64, o StreamOptions) StreamRunReport {
	o.setDefaults()
	start := time.Now()
	rep := StreamRunReport{Seed: seed, Ticks: o.Ticks}
	fail := func(format string, args ...any) StreamRunReport {
		rep.Outcome = OutcomeFail
		rep.Reason = fmt.Sprintf(format, args...)
		rep.Elapsed = time.Since(start)
		return rep
	}

	stateDir, err := os.MkdirTemp("", "mrscan-stream-")
	if err != nil {
		return fail("creating state dir: %v", err)
	}
	defer os.RemoveAll(stateDir)

	rng := rand.New(rand.NewSource(seed))
	batches := dataset.Firehose(o.Ticks, o.PerTick, seed, dataset.DefaultFirehoseOptions())
	spec := server.StreamSpec{
		Tenant: "chaos", Name: "firehose", Eps: 0.12, MinPts: 8,
		WindowTicks: o.WindowTicks,
	}
	ref, err := stream.New(stream.Config{Eps: spec.Eps, MinPts: spec.MinPts, WindowTicks: spec.WindowTicks})
	if err != nil {
		return fail("building reference engine: %v", err)
	}

	// Both strikes land in the interior of the sequence so all three
	// generations tick a nonempty share: the drain between ticks cut-1
	// and cut, the power cut inside the save of tick strike.
	cut := 2 + rng.Intn(o.Ticks-3)
	strike := cut + 1 + rng.Intn(o.Ticks-1-cut)
	rep.RestartAtTick, rep.StrikeAtTick = cut, strike

	cfg := server.Config{Workers: 1, StateDir: stateDir}
	srv, err := server.New(cfg)
	if err != nil {
		return fail("starting server: %v", err)
	}
	id, err := srv.CreateStream(spec)
	if err != nil {
		srv.Close()
		return fail("creating stream: %v", err)
	}

	// feed runs one audited tick: with some probability an invalid batch
	// (duplicate in-window ID) goes first — it must be rejected with an
	// error and must not perturb the labels the valid tick then produces.
	feed := func(s *server.Server, ti int) error {
		batch := batches[ti]
		if ti > 0 && rng.Float64() < 0.3 {
			bad := make([]geom.Point, len(batch))
			copy(bad, batch)
			bad[0] = batches[ti-1][0] // still live in the window
			if _, err := s.StreamTick(id, bad); err == nil {
				return fmt.Errorf("tick %d: duplicate-ID batch accepted", ti)
			}
			rep.InvalidRejected++
		}
		if _, err := s.StreamTick(id, batch); err != nil {
			return fmt.Errorf("tick %d: %w", ti, err)
		}
		if _, err := ref.Tick(batch); err != nil {
			return fmt.Errorf("tick %d reference: %w", ti, err)
		}
		rep.Points += len(batch)
		got, err := s.StreamSnapshot(id)
		if err != nil {
			return fmt.Errorf("tick %d snapshot: %w", ti, err)
		}
		if err := sameWindow(got, ref.Snapshot()); err != nil {
			return fmt.Errorf("tick %d: %w", ti, err)
		}
		rep.FinalClusters = got.NumClusters
		return nil
	}

	for ti := 0; ti < cut; ti++ {
		if err := feed(srv, ti); err != nil {
			srv.Close()
			return fail("generation 1: %v", err)
		}
	}

	// SIGTERM: drain and shut down generation 1 with the window durable.
	srv.Drain()
	srv.Close()

	// restart starts the next generation on the same directory: it must
	// recover the stream, at tick want, with the reference's window,
	// before serving.
	restart := func(want int) (*server.Server, error) {
		next, err := server.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("restarting server: %w", err)
		}
		audit := func() error {
			st, err := next.StreamStatus(id)
			if err != nil {
				return fmt.Errorf("stream not recovered: %w", err)
			}
			if !st.Recovered || st.Tick != want {
				return fmt.Errorf("stream recovered=%v at tick %d, want tick %d", st.Recovered, st.Tick, want)
			}
			got, err := next.StreamSnapshot(id)
			if err != nil {
				return fmt.Errorf("recovered snapshot: %w", err)
			}
			return sameWindow(got, ref.Snapshot())
		}
		if err := audit(); err != nil {
			next.Close()
			return nil, err
		}
		return next, nil
	}

	srv2, err := restart(cut)
	if err != nil {
		return fail("after the drain: %v", err)
	}
	for ti := cut; ti < strike; ti++ {
		if err := feed(srv2, ti); err != nil {
			srv2.Close()
			return fail("generation 2: %v", err)
		}
	}

	// Power cut inside the save of tick strike, after the tick's snapshot
	// was published and before the manifest commit: generation 2 takes
	// the tick, then every file that existed before it is put back as it
	// was (the manifest, the snapshot the tick retired) while the files
	// the tick created stay. The tick was never acknowledged, so the
	// reference does not see it; generation 3 must come up at the tick
	// before, sweep the orphan, and take the tick again from the client.
	streamDir := filepath.Join(stateDir, "streams", id)
	before, err := readDir(streamDir)
	if err == nil {
		_, err = srv2.StreamTick(id, batches[strike])
	}
	srv2.Close()
	for name, data := range before {
		if err == nil {
			err = os.WriteFile(filepath.Join(streamDir, name), data, 0o644)
		}
	}
	if err != nil {
		return fail("staging the power cut: %v", err)
	}
	srv3, err := restart(strike)
	if err != nil {
		return fail("after the power cut: %v", err)
	}
	defer srv3.Close()
	if after, err := readDir(streamDir); err != nil || len(after) != len(before) {
		return fail("recovery left %d files in the stream directory, %d before the interrupted tick (%v)",
			len(after), len(before), err)
	}

	for ti := strike; ti < o.Ticks; ti++ {
		if err := feed(srv3, ti); err != nil {
			return fail("generation 3: %v", err)
		}
		if time.Since(start) > o.RunTimeout {
			return fail("campaign exceeded its %v wall-time bound at tick %d", o.RunTimeout, ti)
		}
	}

	if err := srv3.CloseStream(id); err != nil {
		return fail("closing stream: %v", err)
	}

	rep.Outcome = OutcomeOK
	rep.Elapsed = time.Since(start)
	return rep
}

// sameWindow requires the served snapshot to equal the reference's,
// point for point and label for label.
func sameWindow(got, want stream.Snapshot) error {
	if len(got.Points) != len(want.Points) || got.NumClusters != want.NumClusters {
		return fmt.Errorf("served window (%d pts, %d clusters) != reference (%d pts, %d clusters)",
			len(got.Points), got.NumClusters, len(want.Points), want.NumClusters)
	}
	for i := range got.Points {
		if got.Points[i].ID != want.Points[i].ID || got.Labels[i] != want.Labels[i] {
			return fmt.Errorf("point %d: served (id %d, label %d) != reference (id %d, label %d)",
				i, got.Points[i].ID, got.Labels[i], want.Points[i].ID, want.Labels[i])
		}
	}
	return nil
}

// readDir returns the contents of every file in dir by name.
func readDir(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return files, nil
}
