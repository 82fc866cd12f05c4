package server

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/lustre"
	"repro/internal/telemetry"
)

// lustreState is a state directory, "state", on a simulated FS.
func lustreState(fs *lustre.FS) checkpoint.FS {
	return checkpoint.Sub(checkpoint.LustreFS(fs), "state")
}

// journalOnLustre builds a journal over a fresh simulated FS and
// appends the given state transitions.
func journalOnLustre(t *testing.T, hub *telemetry.Hub, transitions [][2]string) (*lustre.FS, *journal) {
	t.Helper()
	fs := lustre.New(lustre.Titan(), nil)
	j := newJournal(lustreState(fs), hub)
	for _, tr := range transitions {
		if err := j.setState(tr[0], tr[1]); err != nil {
			t.Fatalf("setState(%s, %s): %v", tr[0], tr[1], err)
		}
	}
	return fs, j
}

func readLog(t *testing.T, j *journal) []byte {
	t.Helper()
	raw, err := j.fs.ReadFile(logPath)
	if err != nil {
		t.Fatalf("reading log: %v", err)
	}
	return raw
}

func writeLog(t *testing.T, j *journal, raw []byte) {
	t.Helper()
	if err := j.fs.WriteFile(logPath, raw); err != nil {
		t.Fatalf("rewriting log: %v", err)
	}
}

// TestJournalTornTailTolerated cuts the final record short — the
// signature of a crash mid-append — and requires replay to truncate it,
// count it, repair the log crash-safely, and keep every earlier record.
func TestJournalTornTailTolerated(t *testing.T) {
	hub := telemetry.New(nil)
	_, j := journalOnLustre(t, hub, [][2]string{
		{"job-000001", "queued"},
		{"job-000001", "running"},
		{"job-000002", "queued"},
	})
	raw := readLog(t, j)
	writeLog(t, j, raw[:len(raw)-3]) // tear the last record mid-payload

	states, _, _, err := j.replayLog(true)
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	want := map[string]State{"job-000001": StateRunning}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("states after torn-tail replay = %v, want %v", states, want)
	}
	if got := hub.Counter("server_journal_torn_tail_total").Value(); got != 1 {
		t.Fatalf("server_journal_torn_tail_total = %d, want 1", got)
	}

	// The repair is durable: a second replay sees a clean log.
	states2, _, _, err := j.replayLog(true)
	if err != nil {
		t.Fatalf("replay after repair: %v", err)
	}
	if !reflect.DeepEqual(states2, want) {
		t.Fatalf("states after repair = %v, want %v", states2, want)
	}
	if got := hub.Counter("server_journal_torn_tail_total").Value(); got != 1 {
		t.Fatalf("torn tail counted again after repair: counter = %d, want 1", got)
	}
}

// TestJournalTornMidHeaderTolerated tears inside the final record's
// header rather than its payload.
func TestJournalTornMidHeaderTolerated(t *testing.T) {
	_, j := journalOnLustre(t, telemetry.New(nil), [][2]string{
		{"job-000001", "queued"},
		{"job-000002", "queued"},
	})
	raw := readLog(t, j)
	recLen := len(raw) / 2
	writeLog(t, j, raw[:recLen+recHeaderSize/2])

	states, _, _, err := j.replayLog(true)
	if err != nil {
		t.Fatalf("replay with torn header: %v", err)
	}
	if _, ok := states["job-000001"]; !ok || len(states) != 1 {
		t.Fatalf("states = %v, want only job-000001", states)
	}
}

// TestJournalInteriorCorruptionFailsLoudly damages a record that has a
// valid record after it. A torn append cannot explain that, so the
// journal must refuse to replay rather than silently drop an
// acknowledged transition.
func TestJournalInteriorCorruptionFailsLoudly(t *testing.T) {
	_, j := journalOnLustre(t, telemetry.New(nil), [][2]string{
		{"job-000001", "queued"},
		{"job-000002", "queued"},
		{"job-000002", "completed"},
	})
	raw := readLog(t, j)
	raw[recHeaderSize+2] ^= 0xff // flip a byte inside the first payload
	writeLog(t, j, raw)

	_, _, _, err := j.replayLog(true)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("replay of interior-corrupt log: err = %v, want ErrJournalCorrupt", err)
	}
	// The audit surface agrees.
	if _, _, err := JournalStates(j.fs); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("JournalStates: err = %v, want ErrJournalCorrupt", err)
	}
}

// TestJournalReplayIdempotentUnderCrash loses power during the
// torn-tail repair itself, recovers, replays again, and requires the
// same end state as an uninterrupted replay — across many seeds, so the
// crash lands on every step of the repair (tmp write, fsync, rename,
// dir sync).
func TestJournalReplayIdempotentUnderCrash(t *testing.T) {
	want := map[string]State{"job-000001": StateRunning}
	for seed := int64(1); seed <= 20; seed++ {
		fs, j := journalOnLustre(t, telemetry.New(nil), [][2]string{
			{"job-000001", "queued"},
			{"job-000001", "running"},
			{"job-000002", "queued"},
		})
		raw := readLog(t, j)
		writeLog(t, j, raw[:len(raw)-2])

		fs.EnableCrashSim(seed)
		// The repair is 5 durability ops: tmp create, write, fsync,
		// rename, dir sync. Land the crash on each in turn.
		fs.ArmCrash(1 + (seed-1)%5)
		_, _, _, err := j.replayLog(true)
		if err == nil {
			t.Fatalf("seed %d: repair survived an armed crash", seed)
		}
		if !fs.Crashed() {
			t.Fatalf("seed %d: replay failed without a crash: %v", seed, err)
		}
		if _, err := fs.Recover(); err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}

		j2 := newJournal(lustreState(fs), telemetry.New(nil))
		states, _, _, err := j2.replayLog(true)
		if err != nil {
			t.Fatalf("seed %d: replay after crashed repair: %v", seed, err)
		}
		if !reflect.DeepEqual(states, want) {
			t.Fatalf("seed %d: states = %v, want %v", seed, states, want)
		}
		// And the second repair must itself be durable and idempotent.
		states2, _, _, err := j2.replayLog(true)
		if err != nil || !reflect.DeepEqual(states2, want) {
			t.Fatalf("seed %d: third replay: states = %v err = %v", seed, states2, err)
		}
	}
}

// journalCrashImages appends a job's life to a journal on a crash-capable
// file system, loses power at every file-system operation in turn, and
// returns each journal.log image recovery leaves — whole records, none,
// and the tail torn wherever the crash tore it.
func journalCrashImages(tb testing.TB) [][]byte {
	transitions := [][2]string{
		{"job-000001", "queued"}, {"job-000001", "running"}, {"job-000002", "queued"},
		{"job-000001", "suspended"}, {"job-000002", "running"}, {"job-000002", "completed"},
	}
	life := func(fs *lustre.FS) {
		j := newJournal(lustreState(fs), telemetry.New(nil))
		for _, tr := range transitions {
			if j.setState(tr[0], tr[1]) != nil {
				return // the crash
			}
		}
	}
	probe := lustre.New(lustre.Titan(), nil)
	probe.EnableCrashSim(1)
	life(probe)
	var images [][]byte
	seen := map[string]bool{}
	for k := int64(1); k <= probe.OpCount(); k++ {
		fs := lustre.New(lustre.Titan(), nil)
		fs.EnableCrashSim(k)
		fs.ArmCrash(k)
		life(fs)
		if _, err := fs.Recover(); err != nil {
			tb.Fatal(err)
		}
		img, err := checkpoint.LustreFS(fs).ReadFile("state/journal.log")
		if err != nil && !errors.Is(err, iofs.ErrNotExist) {
			tb.Fatal(err)
		}
		if !seen[string(img)] {
			seen[string(img)] = true
			images = append(images, img)
		}
	}
	return images
}

// FuzzJournalReplay replays arbitrary bytes as a journal. It never
// panics. Either the log is refused whole as ErrJournalCorrupt, or the
// replay keeps a prefix of it — valid records back to back, the rest a
// torn tail — and replaying what it kept is a fixed point: the same
// records, nothing more to drop. The repair on a journal's file system
// leaves exactly that prefix behind.
func FuzzJournalReplay(f *testing.F) {
	for _, img := range journalCrashImages(f) {
		f.Add(img)
	}
	whole, _ := encodeRecord(logRecord{Seq: 1, ID: "job-000001", State: "queued"})
	flipped := append(append([]byte(nil), whole...), whole...)
	flipped[recHeaderSize+3] ^= 0x10 // interior damage: a valid record follows
	f.Add(flipped)
	f.Add(append(append([]byte(nil), whole...), 'J', 'L', recVersion, 0xff, 0xff, 0xff, 0x7f)) // implausible length
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, goodLen, torn, err := decodeRecords(data)
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if goodLen < 0 || goodLen > len(data) || torn != (goodLen < len(data)) {
			t.Fatalf("kept %d of %d bytes, torn = %v", goodLen, len(data), torn)
		}
		again, againLen, againTorn, err := decodeRecords(data[:goodLen])
		if err != nil || againTorn || againLen != goodLen || !reflect.DeepEqual(again, recs) {
			t.Fatalf("replaying the kept prefix: %d records in %d bytes (torn %v, err %v), first replay kept %d in %d",
				len(again), againLen, againTorn, err, len(recs), goodLen)
		}
		fs := lustre.New(lustre.Titan(), nil)
		j := newJournal(lustreState(fs), telemetry.New(nil))
		if err := j.fs.WriteFile(logPath, data); err != nil {
			t.Fatal(err)
		}
		states, _, _, err := j.replayLog(true)
		if err != nil {
			t.Fatalf("replayLog refuses what decodeRecords took: %v", err)
		}
		repaired, err := j.fs.ReadFile(logPath)
		if err != nil || !bytes.Equal(repaired, data[:goodLen]) {
			t.Fatalf("repaired log holds %d bytes (%v), want the %d-byte prefix", len(repaired), err, goodLen)
		}
		if states2, _, _, err := j.replayLog(true); err != nil || !reflect.DeepEqual(states2, states) {
			t.Fatalf("second replay: %v, %v; first: %v", states2, err, states)
		}
	})
}
