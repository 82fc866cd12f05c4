package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"path"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/server"
	"repro/internal/stream"
)

// The stream scenario audits the sliding-window engine's serving
// contract across faults: a server ingests a seeded firehose and is
// taken down twice mid-sequence — once drained between two ticks, once
// by a power cut inside a tick's save (the tick's snapshot published,
// the manifest commit not) — and each time a fresh instance on the same
// state directory recovers the stream and keeps ticking. The state
// directory lives on the crash-simulating file system, so the cut also
// drops and tears whatever the save had not synced. Because the
// engine's labels are deterministic (restart-stable cluster IDs), the
// audit is exact equality — after every tick, on either side of a
// restart, the served snapshot must be bit-identical to a fault-free
// reference engine fed the same full sequence. Invalid batches
// (duplicate IDs, over-quota ticks) injected along the way must be
// rejected with typed errors and leave the window untouched.

// StreamOptions are the stream scenario's knobs.
type StreamOptions struct {
	// Ticks is the firehose length (default 12); PerTick the batch size
	// (default 300); WindowTicks the sliding window (default 4).
	Ticks       int
	PerTick     int
	WindowTicks int
}

func (o StreamOptions) withDefaults() StreamOptions {
	orDefault(&o.Ticks, 12)
	orDefault(&o.PerTick, 300)
	orDefault(&o.WindowTicks, 4)
	return o
}

// StreamRunReport is the audited result of one seed's lifecycle.
type StreamRunReport struct {
	Header

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

func (StreamOptions) summarize(rpt *Report[*StreamRunReport]) (string, map[string]int) {
	return plainSummary("stream", rpt)
}

// streamRun is one seed's stream in flight: the served stream on
// whichever server generation is up, and the fault-free reference engine
// fed the same acknowledged ticks.
type streamRun struct {
	rep     *StreamRunReport
	rng     *rand.Rand
	batches [][]geom.Point
	ref     *stream.Engine
	cfg     server.Config
	id      string
}

// run feeds one seeded firehose through a drain/restart and a power cut
// inside a save, and audits label fidelity against the fault-free
// reference.
func (o StreamOptions) run(ctx context.Context, seed int64) *StreamRunReport {
	o = o.withDefaults()
	rep := &StreamRunReport{Ticks: o.Ticks}

	sfs := lustre.New(lustre.Titan(), nil)
	defer sfs.Release()
	sfs.EnableCrashSim(seed)
	r := &streamRun{
		rep:     rep,
		rng:     rand.New(rand.NewSource(seed)),
		batches: dataset.Firehose(o.Ticks, o.PerTick, seed, dataset.DefaultFirehoseOptions()),
		cfg:     server.Config{Workers: 1, StateDir: "state", Storage: stateFS(sfs)},
	}
	spec := server.StreamSpec{
		Tenant: "chaos", Name: "firehose", Eps: 0.12, MinPts: 8,
		WindowTicks: o.WindowTicks,
	}
	ref, err := stream.New(stream.Config{Eps: spec.Eps, MinPts: spec.MinPts, WindowTicks: spec.WindowTicks})
	if err != nil {
		return failf(rep, "building reference engine: %v", err)
	}
	r.ref = ref

	// Both strikes land in the interior of the sequence so all three
	// generations tick a nonempty share: the drain between ticks cut-1
	// and cut, the power cut inside the save of tick strike.
	cut := 2 + r.rng.Intn(o.Ticks-3)
	strike := cut + 1 + r.rng.Intn(o.Ticks-1-cut)
	rep.RestartAtTick, rep.StrikeAtTick = cut, strike

	srv, err := server.New(r.cfg)
	if err != nil {
		return failf(rep, "starting server: %v", err)
	}
	if r.id, err = srv.CreateStream(spec); err != nil {
		srv.Close()
		return failf(rep, "creating stream: %v", err)
	}
	if err := r.feed(ctx, srv, 0, cut); err != nil {
		srv.Close()
		return failf(rep, "generation 1: %v", err)
	}
	// SIGTERM: drain and shut down generation 1 with the window durable.
	srv.Drain()
	srv.Close()

	srv, err = r.restart(cut)
	if err != nil {
		return failf(rep, "after the drain: %v", err)
	}
	if err := r.feed(ctx, srv, cut, strike); err != nil {
		srv.Close()
		return failf(rep, "generation 2: %v", err)
	}
	files, err := r.powerCut(srv, sfs, strike)
	if err != nil {
		return failf(rep, "staging the power cut: %v", err)
	}

	srv, err = r.restart(strike)
	if err != nil {
		return failf(rep, "after the power cut: %v", err)
	}
	defer srv.Close()
	if after, err := r.streamFiles(); err != nil || after != files {
		return failf(rep, "recovery left %d files in the stream directory, %d before the interrupted tick (%v)",
			after, files, err)
	}
	if err := r.feed(ctx, srv, strike, o.Ticks); err != nil {
		return failf(rep, "generation 3: %v", err)
	}
	if err := srv.CloseStream(r.id); err != nil {
		return failf(rep, "closing stream: %v", err)
	}
	rep.Outcome = OutcomeOK
	return rep
}

// feed runs the audited ticks [from, to) on s, stopping at the first
// that breaks the contract or when the seed's budget ends.
func (r *streamRun) feed(ctx context.Context, s *server.Server, from, to int) error {
	for ti := from; ti < to; ti++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("tick %d: %w", ti, err)
		}
		if err := r.tick(s, ti); err != nil {
			return fmt.Errorf("tick %d: %w", ti, err)
		}
	}
	return nil
}

// tick runs one audited tick: with some probability an invalid batch
// (duplicate in-window ID) goes first — it must be rejected with an
// error and must not perturb the labels the valid tick then produces.
func (r *streamRun) tick(s *server.Server, ti int) error {
	batch := r.batches[ti]
	if ti > 0 && r.rng.Float64() < 0.3 {
		bad := make([]geom.Point, len(batch))
		copy(bad, batch)
		bad[0] = r.batches[ti-1][0] // still live in the window
		if _, err := s.StreamTick(r.id, bad); err == nil {
			return fmt.Errorf("duplicate-ID batch accepted")
		}
		r.rep.InvalidRejected++
	}
	if _, err := s.StreamTick(r.id, batch); err != nil {
		return err
	}
	if _, err := r.ref.Tick(batch); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.rep.Points += len(batch)
	got, err := s.StreamSnapshot(r.id)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := sameWindow(got, r.ref.Snapshot()); err != nil {
		return err
	}
	r.rep.FinalClusters = got.NumClusters
	return nil
}

// restart starts the next generation on the same directory: it must
// recover the stream, at tick want, with the reference's window, before
// serving.
func (r *streamRun) restart(want int) (*server.Server, error) {
	next, err := server.New(r.cfg)
	if err != nil {
		return nil, fmt.Errorf("restarting server: %w", err)
	}
	audit := func() error {
		st, err := next.StreamStatus(r.id)
		if err != nil {
			return fmt.Errorf("stream not recovered: %w", err)
		}
		if !st.Recovered || st.Tick != want {
			return fmt.Errorf("stream recovered=%v at tick %d, want tick %d", st.Recovered, st.Tick, want)
		}
		got, err := next.StreamSnapshot(r.id)
		if err != nil {
			return fmt.Errorf("recovered snapshot: %w", err)
		}
		return sameWindow(got, r.ref.Snapshot())
	}
	if err := audit(); err != nil {
		next.Close()
		return nil, err
	}
	return next, nil
}

// manifestCreateOp is the operation of a tick's save on the simulated
// file system that creates the manifest's temp file: the six before it
// publish and sync the tick's snapshot (create, two writes, fsync,
// rename, directory sync).
const manifestCreateOp = 7

// powerCut loses power inside the save of tick strike, as the manifest's
// temp file is created: the tick's snapshot is published, its commit is
// not. The tick was never acknowledged, so the reference does not see
// it; the next generation must come up at the tick before, sweep the
// orphan, and take the tick again from the client. It returns how many
// files the stream directory held before the tick.
func (r *streamRun) powerCut(s *server.Server, sfs *lustre.FS, strike int) (int, error) {
	before, err := r.streamFiles()
	if err != nil {
		return 0, err
	}
	sfs.ArmCrash(sfs.OpCount() + manifestCreateOp)
	_, err = s.StreamTick(r.id, r.batches[strike])
	s.Close()
	if !sfs.Crashed() {
		return 0, fmt.Errorf("tick %d's save finished before the cut (%v)", strike, err)
	}
	_, err = sfs.Recover()
	return before, err
}

// streamFiles counts the files in the stream's state directory.
func (r *streamRun) streamFiles() (int, error) {
	names, err := r.cfg.Storage.List(path.Join("streams", r.id))
	return len(names), err
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
