// Package checkpoint provides durable, verifiable phase snapshots for
// the Mr. Scan pipeline.
//
// The paper's largest run held 8,192 nodes for 17.3 minutes; at that
// scale a mid-run process death without durable state forfeits the whole
// job. The pipeline's phase-barrier structure (partition → cluster →
// merge → sweep) makes phase boundaries the natural durable points: each
// completed phase's output is written to the (simulated) parallel file
// system as a snapshot, and a restarted run replays the longest valid
// prefix of snapshots instead of recomputing it.
//
// Durability protocol, defended against the two classic failure modes:
//
//   - Torn writes (crash mid-snapshot): every snapshot is first written
//     to a ".tmp" name, fsynced, and then atomically renamed into place,
//     with the directory synced after the rename; the manifest — itself
//     written with the same protocol — is updated only after the
//     snapshot rename. The sync ordering matters as much as the rename:
//     without the file sync a power failure can expose the *renamed*
//     name with empty or torn contents (rename is atomic but the data
//     was still in the page cache), and without the directory sync the
//     rename itself may not survive. A crash at any instant therefore
//     leaves either the old manifest (pointing at old, intact
//     snapshots) or the new one (pointing at the new, fully-written,
//     durable snapshot). Invariant: when Save returns, the snapshot and
//     the manifest entry recording it are both on stable storage.
//   - Silent corruption (bit rot, partial RAID reconstruction): every
//     snapshot carries a CRC32C (Castagnoli) checksum over its payload
//     plus a magic/version header; Load verifies both and returns
//     ErrCorrupt on any mismatch, so a damaged checkpoint re-executes
//     its phase rather than poisoning the output.
//
// The envelope does not know what its payload means. A payload type that
// appends its own fixed records (Records) and decodes them with
// encoding.BinaryUnmarshaler — the pipeline's partition, cluster and
// merge snapshots, the distributed coordinator's per-partition responses,
// the server's stream ticks (docs/FORMATS.md) — encodes itself, into a
// buffer from bufpool.Bytes that goes back once the snapshot is written;
// everything else — the manifest, the server's stream spec — is gob. A
// run ID records which format a store's snapshots are in (RecordsTag), so
// a reader never hands one to the other's decoder; a stream store, whose
// run ID is the stream's, tells its record ticks from gob ones by phase
// name instead.
//
// A phase saved again replaces its snapshot in place. A log that keeps a
// moving window of entries (the server's stream ticks) uses Rotate
// instead: entries are published under names that never repeat and
// retired in the manifest write that records their successor, so the
// manifest rename is the log's single commit point; Sweep collects what
// a crash on either side of it leaves behind.
//
// The store writes through the storage port FS (fs.go), which every
// other durable writer in the tree shares.
package checkpoint

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// Format constants. Version bumps invalidate old snapshots wholesale: a
// resumed run treats a version mismatch like corruption and recomputes.
const (
	magic   = "MRCKPT"
	version = 1
)

// RecordsTag goes into the run ID of every store whose snapshots encode
// themselves (Records). The envelope version stays 1 —
// bumping it would orphan every durable stream directory — so the tag is
// what keeps a store written with gob snapshots, under a run ID without
// it, from reaching a record decoder: the run IDs differ, and the old
// snapshots are recomputed. Change it whenever a record layout changes.
const RecordsTag = "records-v1"

// Records is a payload that encodes itself as fixed records: AppendBinary
// appends exactly BinarySize bytes to b. It is encoding.BinaryAppender
// (Go 1.24) with the size up front, so the store can draw a buffer of the
// right size before encoding.
type Records interface {
	BinarySize() int
	AppendBinary(b []byte) ([]byte, error)
}

// ErrCorrupt reports a snapshot that failed verification: bad magic,
// unknown version, truncated payload, or checksum mismatch.
var ErrCorrupt = errors.New("checkpoint: snapshot corrupt")

// ErrNoCheckpoint reports a phase with no snapshot on the store.
var ErrNoCheckpoint = errors.New("checkpoint: no snapshot")

// Manifest is the run's durable table of contents: which phases have
// completed, in order, and the checksum each snapshot must verify
// against. The RunID fingerprints the configuration and input; a
// mismatched RunID means the checkpoints belong to a different run and
// are ignored wholesale.
type Manifest struct {
	Version int
	RunID   string
	Entries []Entry
}

// Entry records one completed phase.
type Entry struct {
	// Phase is the pipeline phase name ("partition", "cluster", ...).
	Phase string
	// File is the snapshot's name on the store.
	File string
	// CRC is the payload's CRC32C, duplicated from the snapshot header
	// so a swapped-in stale snapshot (right format, wrong contents) is
	// also detected.
	CRC uint32
	// Bytes is the payload length.
	Bytes int64
}

// Store reads and writes one run's snapshots. Safe for concurrent use
// (the distributed coordinator saves per-partition snapshots from many
// worker goroutines).
type Store struct {
	fs    FS
	runID string

	mu       sync.Mutex
	manifest Manifest
	loaded   bool
	// hub and parent record save/restore spans when installed via
	// SetTelemetry; a nil hub is inert (telemetry methods are nil-safe).
	hub    *telemetry.Hub
	parent *telemetry.Span
}

// ManifestName is the manifest's file name on the store. The manifest's
// rename is the store's commit point: a store directory without one holds
// nothing committed.
const ManifestName = "MANIFEST.ckpt"

// NewStore opens (or initializes) a checkpoint store. runID fingerprints
// the run configuration: if the store holds a manifest for a different
// RunID, its snapshots are ignored and the next Save starts a fresh
// manifest.
func NewStore(fs FS, runID string) *Store {
	return &Store{fs: fs, runID: runID}
}

// SetTelemetry installs the hub save/restore spans and counters are
// recorded on. A nil hub (the default) disables recording.
func (s *Store) SetTelemetry(h *telemetry.Hub) {
	s.mu.Lock()
	s.hub = h
	s.mu.Unlock()
}

// SetTraceParent nests the store's spans under s — usually the phase
// span whose output is being snapshotted. Pass nil to detach.
func (s *Store) SetTraceParent(sp *telemetry.Span) {
	s.mu.Lock()
	s.parent = sp
	s.mu.Unlock()
}

func (s *Store) telemetry() (*telemetry.Hub, *telemetry.Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hub, s.parent
}

// ensureManifest loads the on-store manifest once, discarding it on
// RunID mismatch or corruption. Callers hold s.mu.
func (s *Store) ensureManifest() {
	if s.loaded {
		return
	}
	s.loaded = true
	s.manifest = Manifest{Version: version, RunID: s.runID}
	var m Manifest
	if err := s.loadFile(ManifestName, &m); err != nil {
		return // missing or corrupt: start fresh
	}
	if m.Version != version || m.RunID != s.runID {
		return // different run or format: ignore
	}
	s.manifest = m
}

// Save snapshots one phase's payload and records it in the manifest. A
// payload that implements Records is stored as the bytes its
// AppendBinary appends, and Load hands them to the UnmarshalBinary of its
// out; any other payload is gob-encoded. Phases saved twice keep the
// latest snapshot. The snapshot is durable before the manifest references
// it (write-then-rename, snapshot first), so a crash between the two
// leaves a consistent store.
func (s *Store) Save(phase string, payload any) error {
	return s.Rotate(phase, phase, payload)
}

// Rotate is Save for a log of phases: it snapshots payload as phase and,
// in the same manifest write, drops the entries of the retire phases —
// one commit point moves the log's window forward. The retired files are
// removed once the manifest that no longer names them is durable; a crash
// before that leaves them for Sweep. A log whose phase names never repeat
// (a sequence number in the name) therefore never overwrites a file the
// durable manifest references. kind labels the span and the counters in
// place of the phase name, so a numbered log costs two series, not two
// per entry.
func (s *Store) Rotate(kind, phase string, payload any, retire ...string) error {
	hub, parent := s.telemetry()
	sp := hub.Start(parent, "checkpoint.save", telemetry.String("phase", kind))
	defer sp.End()
	data, pooled, err := encode(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding %s: %w", phase, err)
	}
	sp.Annotate(telemetry.Int("bytes", len(data)))
	name := phaseFile(phase)
	crc, err := s.writeFile(name, data)
	if pooled {
		// FS.WriteFile keeps no reference to its chunks.
		bufpool.Bytes.Put(data)
	}
	if err != nil {
		return err
	}
	hub.Counter("checkpoint_saves_total", "phase", kind).Inc()
	hub.Counter("checkpoint_bytes_total", "phase", kind).Add(int64(len(data)))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureManifest()
	entry := Entry{Phase: phase, File: name, CRC: crc, Bytes: int64(len(data))}
	next := s.manifest
	next.Entries = make([]Entry, 0, len(s.manifest.Entries)+1)
	var retired []string
	replaced := false
	for _, e := range s.manifest.Entries {
		switch {
		case e.Phase == phase:
			next.Entries = append(next.Entries, entry)
			replaced = true
		case slices.Contains(retire, e.Phase):
			retired = append(retired, e.File)
		default:
			next.Entries = append(next.Entries, e)
		}
	}
	if !replaced {
		next.Entries = append(next.Entries, entry)
	}
	// The in-memory manifest follows the on-store one: a failed write
	// leaves both where they were.
	if err := s.saveManifest(&next); err != nil {
		return err
	}
	s.manifest = next
	for _, file := range retired {
		// Best effort: the commit above is what counts, and Sweep collects
		// whatever a failed or interrupted removal leaves behind.
		_ = s.fs.Remove(file)
	}
	return nil
}

// Sweep removes the checkpoint files the manifest does not reference:
// snapshots orphaned by a crash between their publication and the
// manifest commit (or between the commit and a retired file's removal)
// and in-flight temps. It returns how many it removed. A store whose
// manifest lists nothing — new, unreadable, or another run's — is left
// alone: there is nothing to tell an orphan from.
func (s *Store) Sweep() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureManifest()
	if len(s.manifest.Entries) == 0 {
		return 0, nil
	}
	names, err := s.fs.List(".")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: listing store: %w", err)
	}
	removed := 0
	for _, name := range names {
		if !IsCheckpointFile(name) || name == ManifestName ||
			slices.ContainsFunc(s.manifest.Entries, func(e Entry) bool { return e.File == name }) {
			continue
		}
		if err := s.fs.Remove(name); err != nil {
			return removed, fmt.Errorf("checkpoint: sweeping %s: %w", name, err)
		}
		removed++
	}
	return removed, nil
}

// saveManifest durably writes m as the store's manifest. Callers hold
// s.mu.
func (s *Store) saveManifest(m *Manifest) error {
	data, _, err := encode(m)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding manifest: %w", err)
	}
	_, err = s.writeFile(ManifestName, data)
	return err
}

// encode is a snapshot's payload: its own records when it has them (the
// pipeline's fixed-record snapshots), appended to a buffer from
// bufpool.Bytes that the caller gives back once it is done with the bytes
// (pooled), and gob otherwise.
func encode(v any) (data []byte, pooled bool, err error) {
	if r, ok := v.(Records); ok {
		data, err = r.AppendBinary(bufpool.Bytes.Get(r.BinarySize())[:0])
		return data, err == nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, false, err
	}
	return buf.Bytes(), false, nil
}

// decode is encode's inverse: out's UnmarshalBinary when it has one, gob
// otherwise. Any failure is ErrCorrupt.
func decode(payload []byte, out any, name string) error {
	var err error
	if u, ok := out.(encoding.BinaryUnmarshaler); ok {
		err = u.UnmarshalBinary(payload)
	} else {
		err = gob.NewDecoder(bytes.NewReader(payload)).Decode(out)
	}
	if err != nil {
		return fmt.Errorf("%w: %s: undecodable payload: %v", ErrCorrupt, name, err)
	}
	return nil
}

// writeFile writes payload under the integrity envelope by the
// write-fsync-rename-syncdir protocol of the package doc and returns the
// payload CRC.
func (s *Store) writeFile(name string, payload []byte) (uint32, error) {
	crc := integrity.Checksum(payload)
	tmp := name + ".tmp"
	var hdr [headerSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint16(hdr[len(magic):], version)
	binary.LittleEndian.PutUint32(hdr[len(magic)+2:], crc)
	binary.LittleEndian.PutUint64(hdr[len(magic)+6:], uint64(len(payload)))
	if err := s.fs.WriteFile(tmp, hdr[:], payload); err != nil {
		return 0, fmt.Errorf("checkpoint: writing %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, name); err != nil {
		return 0, fmt.Errorf("checkpoint: publishing %s: %w", name, err)
	}
	if err := s.fs.SyncDir("."); err != nil {
		return 0, fmt.Errorf("checkpoint: syncing store directory after publishing %s: %w", name, err)
	}
	return crc, nil
}

// loadFile reads and verifies an envelope, decoding the payload into out.
// Missing files return ErrNoCheckpoint; damaged ones ErrCorrupt.
func (s *Store) loadFile(name string, out any) error {
	payload, err := s.readEnvelope(name)
	if err != nil {
		return err
	}
	return decode(payload, out, name)
}

// readEnvelope reads a whole envelope file and returns its verified
// payload. A missing file is ErrNoCheckpoint.
func (s *Store) readEnvelope(name string) ([]byte, error) {
	data, err := s.fs.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("%w: %s (%v)", ErrNoCheckpoint, name, err)
	}
	return verifyEnvelope(data, name)
}

// headerSize is the envelope header: magic, version, CRC32C, length.
const headerSize = len(magic) + 2 + 4 + 8

// verifyEnvelope checks an envelope's magic, version, length and CRC,
// returning the verified payload, a subslice of data.
func verifyEnvelope(data []byte, name string) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %s: short header: %w", ErrCorrupt, name, integrity.ErrTorn)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, name)
	}
	if v := binary.LittleEndian.Uint16(data[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: %s: version %d, want %d", ErrCorrupt, name, v, version)
	}
	wantCRC := binary.LittleEndian.Uint32(data[len(magic)+2:])
	length := binary.LittleEndian.Uint64(data[len(magic)+6:])
	if length > uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: %s: truncated payload: %w", ErrCorrupt, name, integrity.ErrTorn)
	}
	payload := data[headerSize : headerSize+int(length)]
	if got := integrity.Checksum(payload); got != wantCRC {
		return nil, fmt.Errorf("%w: %s: CRC32C %08x, want %08x", ErrCorrupt, name, got, wantCRC)
	}
	return payload, nil
}

// verifiedPayload locates the phase in the manifest and returns its
// snapshot payload after full verification: envelope checksum AND the
// manifest's recorded CRC, so both bit rot and a stale snapshot under
// the right name are caught.
func (s *Store) verifiedPayload(phase string) ([]byte, error) {
	s.mu.Lock()
	s.ensureManifest()
	var entry *Entry
	for i := range s.manifest.Entries {
		if s.manifest.Entries[i].Phase == phase {
			entry = &s.manifest.Entries[i]
			break
		}
	}
	s.mu.Unlock()
	if entry == nil {
		return nil, fmt.Errorf("%w: phase %s not in manifest", ErrNoCheckpoint, phase)
	}
	payload, err := s.readEnvelope(entry.File)
	if err != nil {
		return nil, err
	}
	if int64(len(payload)) != entry.Bytes || integrity.Checksum(payload) != entry.CRC {
		return nil, fmt.Errorf("%w: %s: snapshot does not match manifest", ErrCorrupt, entry.File)
	}
	return payload, nil
}

// Load restores one phase's payload into out (a pointer to the type
// passed to Save), verifying it first — see verifiedPayload.
func (s *Store) Load(phase string, out any) error {
	hub, parent := s.telemetry()
	sp := hub.Start(parent, "checkpoint.restore", telemetry.String("phase", phase))
	defer sp.End()
	payload, err := s.verifiedPayload(phase)
	if err != nil {
		return err
	}
	sp.Annotate(telemetry.Int("bytes", len(payload)))
	if err := decode(payload, out, phaseFile(phase)); err != nil {
		return err
	}
	hub.Counter("checkpoint_restores_total", "phase", phase).Inc()
	return nil
}

// Verify checks one phase's snapshot without decoding it.
func (s *Store) Verify(phase string) error {
	_, err := s.verifiedPayload(phase)
	return err
}

// Completed returns the phases recorded in the manifest, in completion
// order. Entries are not verified — use Load (or ValidPrefix) to check
// the snapshots themselves.
func (s *Store) Completed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureManifest()
	out := make([]string, len(s.manifest.Entries))
	for i, e := range s.manifest.Entries {
		out[i] = e.Phase
	}
	return out
}

// Has reports whether the manifest records the phase (without verifying
// the snapshot).
func (s *Store) Has(phase string) bool { return slices.Contains(s.Completed(), phase) }

// ValidPrefix walks phases in the given order, verifying each snapshot,
// and returns how many lead phases are restorable: the walk stops at the
// first phase that is missing from the manifest or fails verification.
// This is the resume rule — a corrupt checkpoint re-executes its phase
// and everything after it, falling back to the previous durable state.
func (s *Store) ValidPrefix(phases []string) int {
	for i, phase := range phases {
		if err := s.Verify(phase); err != nil {
			return i
		}
	}
	return len(phases)
}

// Clear removes every snapshot and the manifest — used when a resume
// finds checkpoints from a different run configuration.
func (s *Store) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureManifest()
	for _, e := range s.manifest.Entries {
		if err := s.fs.Remove(e.File); err != nil {
			return fmt.Errorf("checkpoint: clearing %s: %w", e.File, err)
		}
	}
	if err := s.fs.Remove(ManifestName); err != nil {
		return fmt.Errorf("checkpoint: clearing manifest: %w", err)
	}
	s.manifest = Manifest{Version: version, RunID: s.runID}
	return nil
}

// phaseFile maps a phase name to its snapshot file name.
func phaseFile(phase string) string {
	// Phase names are pipeline-internal identifiers; keep file names flat
	// and predictable for the CLI's stage-in/stage-out.
	return "ckpt-" + strings.ReplaceAll(phase, "/", "_") + ".ckpt"
}

// IsCheckpointFile reports whether a file name on the store belongs to
// the checkpoint subsystem (snapshots, manifest, or in-flight temps) —
// the CLI uses it to stage checkpoint state in and out of the simulated
// file system across process restarts.
func IsCheckpointFile(name string) bool {
	return strings.HasSuffix(name, ".ckpt") || strings.HasSuffix(name, ".ckpt.tmp")
}
