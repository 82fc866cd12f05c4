package server

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// Stream serving: tenants hold long-lived sliding-window clustering
// streams next to their batch jobs. Admission reuses the tenant
// machinery — the drain gate, the per-tenant point quota (a stream's
// live window holds quota tokens exactly like a queued job's input;
// arrivals charge tokens, expiries refund them), and a per-tenant cap
// on concurrent streams.
//
// Durability differs from jobs by design: instead of journal + replay,
// a stream's window is a log of its ticks in a checkpoint.Store under
// StateDir/streams/<id>/. A tick persists only its own arrivals, as one
// snapshot of fixed records (stream.TickArrivals, docs/FORMATS.md)
// named by tick number ("arrivals-<n>"), and one manifest write both
// records that snapshot and drops the tick that just left the window
// (Store.Rotate). The manifest rename is the single commit point: tick
// snapshots never reuse a name, so nothing the durable manifest
// references is ever overwritten, and a power cut anywhere inside a save
// leaves the window either before or after that tick. Files the manifest
// does not name — a snapshot published just before the cut, a retired
// one not yet removed — are swept on recovery, so the directory holds at
// most WindowTicks + 3 snapshot files. A tick's save runs beside the
// engine's repair of the same arrivals, from the moment the engine has
// admitted them, and the tick is acknowledged when both are done. Memory
// never stays ahead of disk: a tick whose save failed stays queued and
// the next successful save commits it first. There is nothing to stage
// at drain time, and a new server on the same directory restores every
// stream (stream.Restore over the listed ticks) before it starts
// serving. A directory written by an earlier, gob format — one "window"
// snapshot rewritten every tick, or gob "tick-<n>" snapshots — is
// converted the first time it is recovered. Stream state goes through
// the server's storage port like the job journal, so the crash simulator
// can stand under it too.
//
// The manifest is a stream's commit point both ways: written last by
// CreateStream, removed first by CloseStream (removeStreamDir), and a
// directory without one holds no stream (recoverStreams).

// Stream-specific typed errors.
var (
	// ErrUnknownStream: no stream with that ID.
	ErrUnknownStream = errors.New("server: unknown stream")
	// ErrStreamLimit: the tenant is at its concurrent-stream cap.
	ErrStreamLimit = errors.New("server: stream limit reached")
)

// StreamSpec describes one stream creation. It is saved, gob-encoded,
// as the "spec" phase of the stream's store; gob matches fields by name,
// so a spec that still carries fields since removed loads all the same.
type StreamSpec struct {
	// Tenant is the owning principal (empty means "default").
	Tenant string
	// Name is an optional human label recorded on status output.
	Name string
	// Eps, MinPts, WindowTicks parameterize the engine (stream.Config).
	Eps         float64
	MinPts      int
	WindowTicks int
}

// StreamStatus is a point-in-time snapshot of one stream.
type StreamStatus struct {
	ID           string  `json:"id"`
	Tenant       string  `json:"tenant"`
	Name         string  `json:"name,omitempty"`
	Eps          float64 `json:"eps"`
	MinPts       int     `json:"min_pts"`
	WindowTicks  int     `json:"window_ticks"`
	Tick         int     `json:"tick"`
	WindowPoints int     `json:"window_points"`
	NumClusters  int     `json:"num_clusters"`
	Recovered    bool    `json:"recovered,omitempty"`
}

// streamState is the server-side record of one stream. s.mu guards the
// registry and token accounting; st.mu serializes engine access so a
// slow snapshot never blocks the whole server.
type streamState struct {
	id        string
	spec      StreamSpec
	recovered bool

	mu    sync.Mutex
	eng   *stream.Engine
	store *checkpoint.Store // nil without a StateDir
	// pending queues the ticks the engine has applied and the store has
	// not (one per call unless a save failed).
	pending []stream.TickArrivals
}

// Phase names of a stream's store. tickSaveKind is the one telemetry
// label every tick save reports under: a label per tick number would
// grow the hub by two series a tick. A stream store's run ID is the
// stream ID, so it cannot carry checkpoint.RecordsTag; the record ticks'
// phase name is what tells them from the gob ticks of the earlier format.
const (
	specPhase         = "spec"
	tickSaveKind      = "tick"
	legacyWindowPhase = "window" // the whole-window gob snapshot of the first format
)

func tickPhase(tick int) string       { return "arrivals-" + strconv.Itoa(tick) }
func legacyTickPhase(tick int) string { return "tick-" + strconv.Itoa(tick) }

// tickOf is tickPhase's inverse; ok is false for any other phase.
func tickOf(phase string) (tick int, ok bool) { return phaseTick(phase, tickPhase) }

// legacyTickOf is legacyTickPhase's inverse.
func legacyTickOf(phase string) (tick int, ok bool) { return phaseTick(phase, legacyTickPhase) }

func phaseTick(phase string, name func(int) string) (int, bool) {
	tick, err := strconv.Atoi(phase[strings.IndexByte(phase, '-')+1:])
	return tick, err == nil && name(tick) == phase
}

// persist commits every pending tick, oldest first, each with the ticks
// it pushes out of the window (whatever the manifest still lists of
// them) retired in the same manifest write. It stops at the first
// failure; what is left stays pending. Callers hold st.mu.
func (st *streamState) persist() error {
	for len(st.pending) > 0 {
		ta := st.pending[0]
		var retire []string
		for _, phase := range st.store.Completed() {
			if t, ok := tickOf(phase); ok && t <= ta.Tick-st.spec.WindowTicks {
				retire = append(retire, phase)
			}
		}
		if err := st.store.Rotate(tickSaveKind, tickPhase(ta.Tick), ta, retire...); err != nil {
			return err
		}
		st.pending[0] = stream.TickArrivals{} // its points may go back to bufpool
		st.pending = st.pending[1:]
	}
	return nil
}

// engineConfig maps a StreamSpec onto the engine's Config. The engine
// reports metrics on the server hub labeled by stream ID.
func (s *Server) engineConfig(id string, sp StreamSpec) stream.Config {
	return stream.Config{
		Eps: sp.Eps, MinPts: sp.MinPts, WindowTicks: sp.WindowTicks,
		Name: id, Telemetry: s.hub,
	}
}

// streamsDir holds one directory per stream on the state port.
const streamsDir = "streams"

func streamDir(id string) string { return path.Join(streamsDir, id) }

// CreateStream admits and registers a new stream, durably persisting
// its spec before the ID is returned.
func (s *Server) CreateStream(sp StreamSpec) (string, error) {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if _, err := stream.New(stream.Config{
		Eps: sp.Eps, MinPts: sp.MinPts, WindowTicks: sp.WindowTicks,
	}); err != nil {
		return "", err
	}

	s.mu.Lock()
	reject := func(reason string, err error) (string, error) {
		s.hub.Counter("server_streams_rejected_total", "tenant", sp.Tenant, "reason", reason).Inc()
		s.mu.Unlock()
		return "", err
	}
	if s.draining || s.closed {
		return reject("draining", fmt.Errorf("%w: tenant %s", ErrDraining, sp.Tenant))
	}
	if s.cfg.StreamsPerTenant > 0 {
		active := 0
		for _, st := range s.streams {
			if st.spec.Tenant == sp.Tenant {
				active++
			}
		}
		if active >= s.cfg.StreamsPerTenant {
			return reject("stream_limit", fmt.Errorf("%w: tenant %s at %d streams",
				ErrStreamLimit, sp.Tenant, active))
		}
	}
	s.streamSeq++
	id := fmt.Sprintf("stream-%06d", s.streamSeq)
	st := &streamState{id: id, spec: sp}
	eng, err := stream.New(s.engineConfig(id, sp))
	if err != nil {
		s.mu.Unlock()
		return "", err
	}
	st.eng = eng
	s.streams[id] = st
	s.hub.Counter("server_streams_created_total", "tenant", sp.Tenant).Inc()
	s.hub.Gauge("server_streams_active", "tenant", sp.Tenant).Add(1)
	s.mu.Unlock()

	if s.state != nil {
		store := s.openStreamStore(id)
		if err := store.Save(specPhase, sp); err != nil {
			s.mu.Lock()
			delete(s.streams, id)
			s.hub.Gauge("server_streams_active", "tenant", sp.Tenant).Add(-1)
			s.mu.Unlock()
			return "", fmt.Errorf("server: persisting stream spec: %w", err)
		}
		st.mu.Lock()
		st.store = store
		st.mu.Unlock()
	}
	s.hub.Event(nil, "server.stream-created", telemetry.String("tenant", sp.Tenant),
		telemetry.String("stream", id))
	return id, nil
}

func (s *Server) openStreamStore(id string) *checkpoint.Store {
	store := checkpoint.NewStore(checkpoint.Sub(s.state, streamDir(id)), id)
	store.SetTelemetry(s.hub)
	return store
}

// removeStreamDir deletes a stream's directory, manifest first: once the
// directory sync after that removal returns, the stream is gone for good,
// and a cut anywhere after it leaves a directory recovery deletes.
func (s *Server) removeStreamDir(id string) error {
	dir := streamDir(id)
	if err := s.state.Remove(path.Join(dir, checkpoint.ManifestName)); err != nil {
		return err
	}
	if err := s.state.SyncDir(dir); err != nil {
		return err
	}
	names, err := s.state.List(dir)
	if err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return err
	}
	for _, name := range names {
		if err := s.state.Remove(path.Join(dir, name)); err != nil {
			return err
		}
	}
	return s.state.Remove(dir)
}

// lookupStream fetches a stream under s.mu.
func (s *Server) lookupStream(id string) (*streamState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownStream, id)
	}
	return st, nil
}

// precheckTick is a tick's admission run early, on what the HTTP edge
// knows before it has read the body: it refuses (and books) what
// StreamTick would refuse whatever the points — no such stream, a
// draining server — and otherwise changes nothing; StreamTick's own
// gates stay the authority (the stream can be deleted meanwhile).
func (s *Server) precheckTick(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.streams[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownStream, id)
	}
	if s.draining || s.closed {
		s.hub.Counter("server_streams_rejected_total", "tenant", st.spec.Tenant, "reason", "draining").Inc()
		return fmt.Errorf("%w: tenant %s", ErrDraining, st.spec.Tenant)
	}
	return nil
}

// StreamTick feeds one tick of arrivals into a stream. Admission gates
// apply per tick: draining rejects new points, and the tenant's point
// quota is charged for arrivals and refunded for expiries, so a
// stream's live window counts against the same budget as queued jobs.
// A batch with a bad coordinate or an ID already in use (in the batch or
// the live window) is refused with ErrInvalidInput, the window untouched.
// On success the tick is durable before returning. If the engine takes
// the tick but the save fails, the call returns the checkpoint error
// with the window advanced in memory; the tick stays queued and becomes
// durable with the next tick that saves.
func (s *Server) StreamTick(id string, pts []geom.Point) (stream.TickStats, error) {
	st, err := s.lookupStream(id)
	if err != nil {
		return stream.TickStats{}, err
	}
	tenant := st.spec.Tenant
	if err := validatePoints(pts, stream.SubBoxes(st.spec.Eps)); err != nil {
		return stream.TickStats{}, err
	}

	s.mu.Lock()
	if s.draining || s.closed {
		s.hub.Counter("server_streams_rejected_total", "tenant", tenant, "reason", "draining").Inc()
		s.mu.Unlock()
		return stream.TickStats{}, fmt.Errorf("%w: tenant %s", ErrDraining, tenant)
	}
	t := s.tenantLocked(tenant)
	need := int64(len(pts))
	if s.cfg.TenantQuota > 0 && t.tokens+need > s.cfg.TenantQuota {
		s.hub.Counter("server_streams_rejected_total", "tenant", tenant, "reason", "quota").Inc()
		s.mu.Unlock()
		return stream.TickStats{}, fmt.Errorf("%w: tenant %s holds %d of %d points, tick needs %d",
			ErrQuotaExceeded, tenant, t.tokens, s.cfg.TenantQuota, need)
	}
	t.tokens += need
	s.hub.Gauge("server_tenant_tokens", "tenant", tenant).Set(t.tokens)
	s.mu.Unlock()

	st.mu.Lock()
	// A tick's save needs its arrivals, not what the engine makes of them,
	// so it runs beside the repair, from the moment the engine has
	// admitted the batch (after which nothing can refuse it), and is
	// joined before the tick is acknowledged. After the repair instead,
	// the save's four syncs would be a third of the tick and the tick rate
	// would follow the disk's latency from one minute to the next.
	var saving chan error
	stats, err := st.eng.TickAdmitted(pts, func(tick int) {
		if st.store == nil {
			return
		}
		st.pending = append(st.pending, stream.TickArrivals{Tick: tick, Points: pts})
		saving = make(chan error, 1)
		go func() { saving <- st.persist() }()
	})
	var saveErr error
	if saving != nil {
		if saveErr = <-saving; saveErr != nil {
			// The queue outlives the call; pts is the caller's.
			last := &st.pending[len(st.pending)-1]
			last.Points = slices.Clone(last.Points)
		}
	}
	st.mu.Unlock()

	// Settle the quota: a rejected tick refunds the whole charge; a
	// successful one keeps (arrivals - expiries).
	s.mu.Lock()
	refund := need
	if err == nil {
		refund = int64(stats.Expired)
	}
	t.tokens -= refund
	if t.tokens < 0 {
		t.tokens = 0
	}
	s.hub.Gauge("server_tenant_tokens", "tenant", tenant).Set(t.tokens)
	s.mu.Unlock()
	if err != nil {
		// The batch passed validatePoints, so what the engine refused is an
		// ID still live in the window.
		return stream.TickStats{}, fmt.Errorf("%w: %v", errDuplicateID, err)
	}
	if saveErr != nil {
		return stats, fmt.Errorf("server: checkpointing stream %s: %w", id, saveErr)
	}
	s.hub.Counter("server_stream_points_total", "tenant", tenant).Add(int64(len(pts)))
	s.hub.Counter("server_stream_ticks_total", "tenant", tenant).Inc()
	return stats, nil
}

// StreamSnapshot returns the stream's full labeled window.
func (s *Server) StreamSnapshot(id string) (stream.Snapshot, error) {
	st, err := s.lookupStream(id)
	if err != nil {
		return stream.Snapshot{}, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.eng.Snapshot(), nil
}

// StreamStatus returns one stream's status.
func (s *Server) StreamStatus(id string) (StreamStatus, error) {
	st, err := s.lookupStream(id)
	if err != nil {
		return StreamStatus{}, err
	}
	return s.streamStatus(st), nil
}

func (s *Server) streamStatus(st *streamState) StreamStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StreamStatus{
		ID: st.id, Tenant: st.spec.Tenant, Name: st.spec.Name,
		Eps: st.spec.Eps, MinPts: st.spec.MinPts, WindowTicks: st.spec.WindowTicks,
		Tick:         st.eng.TickIndex(),
		WindowPoints: st.eng.Len(),
		NumClusters:  st.eng.NumClusters(),
		Recovered:    st.recovered,
	}
}

// Streams lists every stream's status, sorted by ID.
func (s *Server) Streams() []StreamStatus {
	s.mu.Lock()
	states := make([]*streamState, 0, len(s.streams))
	for _, st := range s.streams {
		states = append(states, st)
	}
	s.mu.Unlock()
	out := make([]StreamStatus, len(states))
	for i, st := range states {
		out[i] = s.streamStatus(st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// CloseStream tears a stream down: its quota tokens are refunded and
// its durable state removed. Closing is allowed while draining — it
// releases resources rather than consuming them.
func (s *Server) CloseStream(id string) error {
	s.mu.Lock()
	st, ok := s.streams[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownStream, id)
	}
	delete(s.streams, id)
	t := s.tenantLocked(st.spec.Tenant)
	st.mu.Lock()
	t.tokens -= int64(st.eng.Len())
	st.mu.Unlock()
	if t.tokens < 0 {
		t.tokens = 0
	}
	s.hub.Gauge("server_tenant_tokens", "tenant", t.name).Set(t.tokens)
	s.hub.Gauge("server_streams_active", "tenant", st.spec.Tenant).Add(-1)
	s.mu.Unlock()

	if s.state != nil {
		if err := s.removeStreamDir(id); err != nil {
			return fmt.Errorf("server: removing stream state: %w", err)
		}
	}
	s.hub.Event(nil, "server.stream-closed", telemetry.String("tenant", st.spec.Tenant),
		telemetry.String("stream", id))
	return nil
}

// recoverStreams restores every stream checkpointed by a previous
// instance on the same state directory: spec and window ticks are loaded
// and verified (CRC + manifest), the engine is rebuilt via
// stream.Restore — whose labels provably equal the pre-crash labels —
// and the tenant's quota tokens are re-acquired. A corrupt stream
// refuses startup loudly, like interior journal corruption; a directory
// without a manifest holds no stream and is deleted.
func (s *Server) recoverStreams() error {
	if s.state == nil {
		return nil
	}
	ids, err := s.state.List(streamsDir)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: scanning stream state: %w", err)
	}
	for _, id := range ids {
		names, err := s.state.List(streamDir(id))
		if err != nil {
			return fmt.Errorf("server: recovering stream %s: %w", id, err)
		}
		if !slices.Contains(names, checkpoint.ManifestName) {
			if err := s.removeStreamDir(id); err != nil {
				return fmt.Errorf("server: removing uncommitted stream %s: %w", id, err)
			}
			continue
		}
		store := s.openStreamStore(id)
		var sp StreamSpec
		if err := store.Load(specPhase, &sp); err != nil {
			return fmt.Errorf("server: recovering stream %s spec: %w", id, err)
		}
		st := &streamState{id: id, spec: sp, recovered: true, store: store}
		ws, err := st.loadWindow()
		if err != nil {
			return fmt.Errorf("server: recovering stream %s window: %w", id, err)
		}
		if st.eng, err = stream.Restore(s.engineConfig(id, sp), ws); err != nil {
			return fmt.Errorf("server: restoring stream %s: %w", id, err)
		}
		s.mu.Lock()
		s.streams[id] = st
		if seq := seqOf("stream-", id); seq > s.streamSeq {
			s.streamSeq = seq
		}
		t := s.tenantLocked(sp.Tenant)
		t.tokens += int64(st.eng.Len())
		s.hub.Gauge("server_tenant_tokens", "tenant", t.name).Set(t.tokens)
		s.hub.Counter("server_streams_recovered_total", "tenant", sp.Tenant).Inc()
		s.hub.Gauge("server_streams_active", "tenant", sp.Tenant).Add(1)
		s.mu.Unlock()
		s.hub.Event(nil, "server.stream-recovered", telemetry.String("tenant", sp.Tenant),
			telemetry.String("stream", id))
	}
	return nil
}

// loadWindow reads the window a stream's store holds — the ticks its
// manifest lists, after converting the snapshots of an earlier format —
// and sweeps the files an interrupted save left behind. A stream created
// but never ticked restores an empty window.
func (st *streamState) loadWindow() (stream.WindowState, error) {
	var ws stream.WindowState
	if err := st.upgradeLegacy(); err != nil {
		return ws, err
	}
	var ticks []int
	for _, phase := range st.store.Completed() {
		if t, ok := tickOf(phase); ok {
			ticks = append(ticks, t)
		}
	}
	sort.Ints(ticks)
	for _, t := range ticks {
		var ta stream.TickArrivals
		if err := st.store.Load(tickPhase(t), &ta); err != nil {
			return ws, err
		}
		ws.Tick = t // ascending: ends on the cursor
		if len(ta.Points) > 0 {
			ws.Ticks = append(ws.Ticks, ta)
		}
	}
	_, err := st.store.Sweep()
	return ws, err
}

// legacyTick and legacyWindow are a tick and a whole window as gob wrote
// them before ticks were records. They are local types with
// stream.TickArrivals' and stream.WindowState's field names and no
// methods, so gob decodes each tick as the struct it was written as.
type legacyTick struct {
	Tick   int
	Points []geom.Point
}

type legacyWindow struct {
	Tick  int
	Ticks []legacyTick
}

// upgradeLegacy re-commits the gob ticks of the earlier formats — a
// whole-window "window" snapshot, "tick-<n>" snapshots, or both where a
// conversion from the first to the second was cut — as record ticks,
// oldest first. Each commit retires the gob entry of its own tick, and
// the cursor tick's commit also retires "window", so a cut upgrade
// resumes where it stopped: the gob entries left are the ticks still to
// convert, and a tick already committed as records is skipped. After the
// last commit nothing writes a gob tick again.
func (st *streamState) upgradeLegacy() error {
	ticks := map[int][]geom.Point{}
	window := st.store.Has(legacyWindowPhase)
	if window {
		lw, err := st.loadLegacyWindow()
		if err != nil {
			return err
		}
		ticks[lw.Tick] = nil // an empty tick still carries the cursor
		for _, lt := range lw.Ticks {
			ticks[lt.Tick] = lt.Points
		}
	}
	for _, phase := range st.store.Completed() {
		if t, ok := legacyTickOf(phase); ok {
			var lt legacyTick
			if err := st.store.Load(phase, &lt); err != nil {
				return err
			}
			ticks[t] = lt.Points
		}
	}
	order := make([]int, 0, len(ticks))
	for t := range ticks {
		order = append(order, t)
	}
	sort.Ints(order)
	for i, t := range order {
		if st.store.Has(tickPhase(t)) {
			continue
		}
		retire := []string{legacyTickPhase(t)}
		if window && i == len(order)-1 {
			retire = append(retire, legacyWindowPhase)
		}
		ta := stream.TickArrivals{Tick: t, Points: ticks[t]}
		if err := st.store.Rotate(tickSaveKind, tickPhase(t), ta, retire...); err != nil {
			return err
		}
	}
	return nil
}

// loadLegacyWindow reads the "window" snapshot. One written by the
// server of that format holds gob structs for ticks; one gob-encoded
// from a stream.WindowState since ticks became records holds their
// record bytes, and decodes as that type.
func (st *streamState) loadLegacyWindow() (legacyWindow, error) {
	var lw legacyWindow
	err := st.store.Load(legacyWindowPhase, &lw)
	if err == nil {
		return lw, nil
	}
	var ws stream.WindowState
	if st.store.Load(legacyWindowPhase, &ws) != nil {
		return lw, err
	}
	lw.Tick = ws.Tick
	for _, ta := range ws.Ticks {
		lw.Ticks = append(lw.Ticks, legacyTick(ta))
	}
	return lw, nil
}
