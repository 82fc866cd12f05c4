package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	iofs "io/fs"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/integrity"
	"repro/internal/ptio"
	"repro/internal/telemetry"
)

// The job journal is what makes drain and restart honest: an admitted
// job's spec and input become durable — fsynced, not merely written —
// before Submit returns its ID, every state transition is a CRC-framed
// record appended (and fsynced) to a write-ahead log, and its
// checkpoint directory holds the pipeline snapshots staged out at
// suspension. A server restarted on the same directory replays the log
// and re-admits every job whose last record is non-terminal, so the
// overload invariant ("every admitted job terminates as completed,
// failed-loudly, or resumed") survives not just process death but
// power failure.
//
// Layout under StateDir, written through the server's storage port
// (checkpoint.FS):
//
//	journal.log           append-only state records (see record framing)
//	jobs/<id>/spec.json   submission parameters
//	jobs/<id>/input.mrsc  the full input dataset
//	jobs/<id>/ckpt/       staged pipeline checkpoints
//
// Sync-ordering invariant (writeSpec): spec.json and input.mrsc are
// written and fsynced, their directories are synced, and only then is
// the "queued" record appended and fsynced. When Submit returns, the
// queued record is durable, and the record being durable implies the
// spec and input it points at are too. Crash replay therefore never
// finds a record without its files; job directories *without* a record
// (the crash hit mid-writeSpec, before the ack) are skipped — the
// caller never learned the ID, so nothing was lost.
//
// Torn-tail policy: a final record torn by a crash mid-append is
// expected and repaired (replayLog); damage with a valid record after it
// is interior corruption, and replay fails loudly (decodeRecords).

// ErrJournalCorrupt reports a damaged interior journal record — data
// loss that a torn final append cannot explain. The server refuses to
// start on such a journal rather than guess.
var ErrJournalCorrupt = errors.New("server: journal corrupt")

// Journal record framing: magic "JL", a version byte, little-endian
// payload length and CRC32C, then a JSON payload.
const (
	recVersion    = 1
	recHeaderSize = 2 + 1 + 4 + 4
	maxRecordSize = 1 << 20
)

// logRecord is one journaled state transition.
type logRecord struct {
	Seq   int64  `json:"seq"`
	ID    string `json:"id"`
	State string `json:"state"`
}

// persistedSpec is the on-disk form of a job's parameters. Keys it does
// not name (no_degrade, degraded and sample_rate in directories written
// before degraded mode was removed) are ignored on decode, and such a
// job reruns at full quality.
type persistedSpec struct {
	Tenant     string  `json:"tenant"`
	Eps        float64 `json:"eps"`
	MinPts     int     `json:"min_pts"`
	Leaves     int     `json:"leaves"`
	DeadlineNS int64   `json:"deadline_ns,omitempty"`
}

// recoveredJob is one non-terminal job found at startup.
type recoveredJob struct {
	id     string
	spec   persistedSpec
	points []geom.Point
}

// journal persists jobs on the state directory's port; a nil port
// disables durability and every method becomes a no-op.
type journal struct {
	fs  checkpoint.FS
	hub *telemetry.Hub

	mu         sync.Mutex // serializes appends and seq
	seq        int64
	rootSynced bool
}

func newJournal(fs checkpoint.FS, hub *telemetry.Hub) *journal { return &journal{fs: fs, hub: hub} }

func (j *journal) enabled() bool { return j.fs != nil }

// Names on the state directory's port.
const (
	logPath = "journal.log"
	jobsDir = "jobs"
)

func jobDir(id string) string  { return path.Join(jobsDir, id) }
func ckptDir(id string) string { return path.Join(jobDir(id), "ckpt") }

// writeSpec makes an admitted job durable: spec.json and the input
// dataset fsynced, their directory entries synced, then the initial
// "queued" record appended to the log and fsynced — in that order, so
// the ack (the record) is durable only after everything it implies.
func (j *journal) writeSpec(id string, spec persistedSpec, pts []geom.Point) error {
	if !j.enabled() {
		return nil
	}
	dir := jobDir(id)
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	if err := j.fs.WriteFile(path.Join(dir, "spec.json"), b); err != nil {
		return err
	}
	// FS.WriteFile keeps no reference to the input's bytes, so their
	// buffer goes back to the pool as soon as it returns.
	input := ptio.AppendDataset(bufpool.Bytes.Get(ptio.DatasetSize(len(pts), false))[:0], pts, false)
	err = j.fs.WriteFile(path.Join(dir, "input.mrsc"), input)
	bufpool.Bytes.Put(input)
	if err != nil {
		return err
	}
	if err := j.fs.SyncDir(dir); err != nil {
		return err
	}
	if err := j.fs.SyncDir(jobsDir); err != nil {
		return err
	}
	if err := j.fs.SyncDir("."); err != nil {
		return err
	}
	return j.setState(id, string(StateQueued))
}

// setState appends one state-transition record to the log and fsyncs
// it. When setState returns nil, the transition is on stable storage.
func (j *journal) setState(id, state string) error {
	if !j.enabled() {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	frame, err := encodeRecord(logRecord{Seq: j.seq, ID: id, State: state})
	if err != nil {
		return err
	}
	if err := j.fs.AppendFile(logPath, frame); err != nil {
		j.hub.Counter("server_journal_append_errors_total").Inc()
		return err
	}
	if !j.rootSynced {
		// First append created the log file; its name must be durable
		// too.
		if err := j.fs.SyncDir("."); err != nil {
			return err
		}
		j.rootSynced = true
	}
	return nil
}

func encodeRecord(rec logRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, recHeaderSize+len(payload))
	frame[0], frame[1], frame[2] = 'J', 'L', recVersion
	binary.LittleEndian.PutUint32(frame[3:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[7:], integrity.Checksum(payload))
	copy(frame[recHeaderSize:], payload)
	return frame, nil
}

// tornRecord is parseRecord's reason for bytes that end inside a frame.
const tornRecord = "torn"

// parseRecord decodes the record at the start of b and returns it with
// its framed length, or the reason b does not start with one.
func parseRecord(b []byte) (rec logRecord, size int, bad string) {
	if len(b) < recHeaderSize {
		return rec, 0, tornRecord
	}
	if b[0] != 'J' || b[1] != 'L' || b[2] != recVersion {
		return rec, 0, "bad record header"
	}
	n := int(binary.LittleEndian.Uint32(b[3:]))
	if n > maxRecordSize {
		return rec, 0, "implausible record length"
	}
	if len(b) < recHeaderSize+n {
		return rec, 0, tornRecord
	}
	payload := b[recHeaderSize : recHeaderSize+n]
	if integrity.Checksum(payload) != binary.LittleEndian.Uint32(b[7:]) {
		return rec, 0, "record checksum mismatch"
	}
	if json.Unmarshal(payload, &rec) != nil {
		return rec, 0, "undecodable record payload"
	}
	return rec, recHeaderSize + n, ""
}

// decodeRecords parses the log, returning the valid records, the byte
// length of the valid prefix, and whether a torn tail was dropped. A
// damaged record followed, at any later byte, by a valid one cannot be a
// torn tail: that is interior corruption, ErrJournalCorrupt.
func decodeRecords(data []byte) (recs []logRecord, goodLen int, torn bool, err error) {
	off := 0
	for off < len(data) {
		rec, size, bad := parseRecord(data[off:])
		if bad == "" {
			recs = append(recs, rec)
			off += size
			continue
		}
		if bad != tornRecord {
			for i := off + 1; i < len(data); i++ {
				if _, _, after := parseRecord(data[i:]); after == "" {
					return nil, 0, false, fmt.Errorf("%w: %s at offset %d with valid records after it", ErrJournalCorrupt, bad, off)
				}
			}
		}
		return recs, off, true, nil
	}
	return recs, off, false, nil
}

// replayLog reads and decodes the journal, repairing a torn tail
// in place (crash-safely: tmp + fsync + rename + dir sync) when
// repair is true. Returns the last state per job, the highest record
// sequence and whether the log ended in a torn tail.
func (j *journal) replayLog(repair bool) (states map[string]State, maxSeq int64, torn bool, err error) {
	states = make(map[string]State)
	raw, err := j.fs.ReadFile(logPath)
	if errors.Is(err, iofs.ErrNotExist) {
		return states, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("server: reading journal: %w", err)
	}
	recs, goodLen, torn, err := decodeRecords(raw)
	if err != nil {
		return nil, 0, false, err
	}
	if torn {
		j.hub.Counter("server_journal_torn_tail_total").Inc()
		j.hub.Event(nil, "server.journal-torn-tail",
			telemetry.Int("dropped_bytes", len(raw)-goodLen))
		if repair {
			tmp := logPath + ".tmp"
			if err := j.fs.WriteFile(tmp, raw[:goodLen]); err != nil {
				return nil, 0, false, fmt.Errorf("server: repairing torn journal: %w", err)
			}
			if err := j.fs.Rename(tmp, logPath); err != nil {
				return nil, 0, false, fmt.Errorf("server: repairing torn journal: %w", err)
			}
			if err := j.fs.SyncDir("."); err != nil {
				return nil, 0, false, fmt.Errorf("server: repairing torn journal: %w", err)
			}
		}
	}
	for _, r := range recs {
		states[r.ID] = State(r.State)
		maxSeq = max(maxSeq, r.Seq)
	}
	return states, maxSeq, torn, nil
}

// recoverJobs replays the journal and loads every job whose last
// record is non-terminal (queued, running, suspended) for
// re-admission, plus the highest job sequence number seen anywhere so
// new IDs never collide with journaled ones. Jobs are returned in ID
// order, which is submission order. Job directories without any
// journal record were never acknowledged and are skipped.
func (j *journal) recoverJobs() ([]recoveredJob, int, error) {
	if !j.enabled() {
		return nil, 0, nil
	}
	states, maxRecSeq, _, err := j.replayLog(true)
	if err != nil {
		return nil, 0, err
	}
	j.mu.Lock()
	j.seq = maxRecSeq
	if len(states) > 0 {
		j.rootSynced = true
	}
	j.mu.Unlock()

	maxSeq := 0
	if names, err := j.fs.List(jobsDir); err == nil {
		for _, id := range names {
			if n := seqOf("job-", id); n > maxSeq {
				maxSeq = n
			}
		}
	}
	var out []recoveredJob
	for id, state := range states {
		if state == StateCompleted || state == StateFailed {
			continue
		}
		var spec persistedSpec
		sb, err := j.fs.ReadFile(path.Join(jobDir(id), "spec.json"))
		if err != nil {
			return nil, 0, fmt.Errorf("server: recovering %s: %w", id, err)
		}
		if err := json.Unmarshal(sb, &spec); err != nil {
			return nil, 0, fmt.Errorf("server: recovering %s: %w", id, err)
		}
		in, err := j.fs.ReadFile(path.Join(jobDir(id), "input.mrsc"))
		if err != nil {
			return nil, 0, fmt.Errorf("server: recovering %s input: %w", id, err)
		}
		pts, err := ptio.ReadDataset(bytes.NewReader(in))
		if err != nil {
			return nil, 0, fmt.Errorf("server: recovering %s input: %w", id, err)
		}
		out = append(out, recoveredJob{id: id, spec: spec, points: pts})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
	return out, maxSeq, nil
}

// JournalStates replays the job journal on a state directory's port
// read-only (no repair) and returns the last journaled state per job ID
// plus whether the log ends in a torn tail. Interior corruption returns
// ErrJournalCorrupt. This is the audit surface the crash harness (and
// operators) use to check the acknowledgment invariant without starting
// a server.
func JournalStates(fs checkpoint.FS) (map[string]State, bool, error) {
	states, _, torn, err := newJournal(fs, nil).replayLog(false)
	return states, torn, err
}

// seqOf parses the sequence number of an ID minted as prefix plus a
// number ("job-000042", "stream-000007"); it is 0 for any other name.
func seqOf(prefix, id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, prefix))
	if err != nil || !strings.HasPrefix(id, prefix) {
		return 0
	}
	return n
}
