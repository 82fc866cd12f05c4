// Crash simulation: a durability model for the simulated file system.
//
// Real Lustre (like any POSIX file system) buffers writes in client and
// server caches: data reaches stable storage only on fsync, and a
// rename is atomic but not durable until the parent directory is
// synced. A power failure therefore exposes whatever subset of the
// unsynced writes happened to reach the platters — possibly reordered,
// possibly with the last one torn mid-block. Mr. Scan's durability
// claims (checkpoint/resume, journal-before-visibility) are only as
// good as the writers' sync ordering, so the simulator models exactly
// that:
//
//   - EnableCrashSim snapshots the current contents as the durable
//     image and starts tracking unsynced ("dirty") writes per file and
//     pending namespace operations (create/rename/remove) per
//     directory;
//   - Sync(file) / Handle.Sync make a file's bytes durable; SyncDir
//     makes the pending namespace operations under one directory
//     durable (the metadata-journal model: a synced directory persists
//     its entries in operation order);
//   - every durability-relevant operation (write, sync, syncdir,
//     create, rename, remove) is assigned a sequence number and
//     recorded in an op log, so every crash point in a run is
//     enumerable: ArmCrash(k) makes the power fail just before the
//     k-th operation executes;
//   - after a crash, every operation returns ErrCrashed until
//     Recover() materialises the surviving state: the durable
//     namespace plus a seeded per-directory prefix of pending
//     namespace ops, and per file the durable image plus a seeded
//     subset of dirty writes applied in order — the last survivor
//     possibly torn (a prefix of the write).
//
// With crash simulation disabled (the default), Sync and SyncDir are
// free no-ops and nothing below costs a byte of tracking — existing
// workloads are unaffected.

package lustre

import (
	"errors"
	"fmt"
	"math/rand"
	"path"
	"sort"
)

// ErrCrashed is returned by every file system operation between a
// simulated power failure and Recover.
var ErrCrashed = errors.New("lustre: simulated power failure")

// OpKind names a durability-relevant operation in the crash-sim op log.
type OpKind string

const (
	OpWrite   OpKind = "write"
	OpSync    OpKind = "sync"
	OpSyncDir OpKind = "syncdir"
	OpCreate  OpKind = "create"
	OpRename  OpKind = "rename"
	OpRemove  OpKind = "remove"
)

// Op is one entry of the crash-sim op log. Name is the file operated
// on (for OpSyncDir, the directory; for OpRename, the new name).
type Op struct {
	Seq  int64
	Kind OpKind
	Name string
	Off  int64
	Len  int
}

// CrashReport summarises what Recover materialised.
type CrashReport struct {
	// CrashSeq is the op sequence number at which power failed.
	CrashSeq int64 `json:"crash_seq"`
	// PendingWrites / SurvivedWrites count the unsynced data writes on
	// recovered files and how many of them reached stable storage.
	PendingWrites  int `json:"pending_writes"`
	SurvivedWrites int `json:"survived_writes"`
	// TornWrites counts surviving writes cut short mid-write.
	TornWrites int `json:"torn_writes"`
	// PendingNS / SurvivedNS count unsynced namespace operations
	// (create/rename/remove) and how many survived as per-directory
	// prefixes.
	PendingNS  int `json:"pending_ns"`
	SurvivedNS int `json:"survived_ns"`
	// Files is the number of files that exist after recovery.
	Files int `json:"files"`
}

// writeRec is one unsynced write (data is an owned copy).
type writeRec struct {
	seq  int64
	off  int64
	data []byte
}

// pendingNS is one unsynced namespace operation.
type pendingNS struct {
	seq  int64
	kind OpKind
	name string // created/removed name, or rename target
	old  string // rename source
	f    *file
}

// dir returns the directory whose sync makes the op durable. A rename
// belongs to its target's parent; the checkpoint and journal writers
// only ever rename within one directory, which is the supported
// pattern.
func (p pendingNS) dir() string { return path.Dir(p.name) }

// crashState holds all crash-simulation state; nil on an FS means the
// model is disabled. All fields are guarded by FS.mu.
type crashState struct {
	rng *rand.Rand

	seq       int64
	armAt     int64
	crashed   bool
	crashedAt int64

	ops     []Op
	pending []pendingNS
	// durable is the namespace as it exists on stable storage.
	durable map[string]*file

	// filter, when set, decides whether a Sync/SyncDir is honoured.
	// A filtered ("lying") sync is logged and charged but persists
	// nothing — the mutation hook the crash harness uses to prove it
	// catches a missing fsync.
	filter func(kind OpKind, name string) bool
}

// Survival probabilities for unsynced state at a crash. Values are
// deliberately aggressive: roughly half the dirty writes vanish and
// most surviving tails tear, so a missing sync is found fast.
const (
	writeSurviveProb = 0.5
	tearProb         = 0.6
)

// op records one durability-relevant operation, firing the armed crash
// if its sequence number has been reached. Callers hold fs.mu. The
// returned seq is 0 when the op did not execute.
func (cs *crashState) op(kind OpKind, name string, off int64, n int) (int64, error) {
	if cs.crashed {
		return 0, ErrCrashed
	}
	cs.seq++
	if cs.armAt > 0 && cs.seq >= cs.armAt {
		cs.crashed = true
		cs.crashedAt = cs.seq
		return 0, ErrCrashed
	}
	cs.ops = append(cs.ops, Op{Seq: cs.seq, Kind: kind, Name: name, Off: off, Len: n})
	return cs.seq, nil
}

// nsOp records a namespace operation as pending (not yet durable).
// Callers hold fs.mu. Returns false if the power is (or just went)
// out, in which case nothing was recorded.
func (cs *crashState) nsOp(kind OpKind, name, old string, f *file) bool {
	seq, err := cs.op(kind, name, 0, 0)
	if err != nil {
		return false
	}
	cs.pending = append(cs.pending, pendingNS{seq: seq, kind: kind, name: name, old: old, f: f})
	return true
}

// applyNS replays one namespace op onto a namespace map.
func applyNS(ns map[string]*file, p pendingNS) {
	switch p.kind {
	case OpCreate:
		ns[p.name] = p.f
	case OpRename:
		delete(ns, p.old)
		ns[p.name] = p.f
	case OpRemove:
		delete(ns, p.name)
	}
}

// applyWrite replays one surviving write onto the file's contents,
// growing them (zero-filled) as needed. Callers hold f.mu.
func (f *file) applyWrite(off int64, data []byte) {
	if len(data) == 0 {
		return
	}
	f.growTo(off, off+int64(len(data)))
	copy(f.data[off:], data)
}

// cloneBytes returns a copy of b that shares no memory with it, spare
// capacity included.
func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// EnableCrashSim turns on the durability model with a deterministic
// seed governing what survives a crash. The file system's current
// contents become the durable baseline (as if everything were synced);
// from here on, writes are dirty until Sync and namespace changes are
// pending until the parent directory's SyncDir. Calling it again
// resets the model with a fresh seed and re-baselines.
func (fs *FS) EnableCrashSim(seed int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cs := &crashState{
		rng:     rand.New(rand.NewSource(seed)),
		durable: make(map[string]*file, len(fs.files)),
	}
	for name, f := range fs.files {
		cs.durable[name] = f
		f.mu.Lock()
		f.durable = cloneBytes(f.data)
		f.dirty = nil
		f.mu.Unlock()
	}
	fs.cs = cs
}

// CrashSimEnabled reports whether the durability model is on.
func (fs *FS) CrashSimEnabled() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cs != nil
}

// SetSyncFilter installs a predicate deciding whether each Sync /
// SyncDir is honoured. A sync the filter rejects still returns
// success, is still logged and charged — it just persists nothing: a
// lying fsync. This is the mutation hook the crash harness uses to
// prove that removing one fsync from a writer makes the audit fail.
// Pass nil to restore honest syncs.
func (fs *FS) SetSyncFilter(f func(kind OpKind, name string) bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cs != nil {
		fs.cs.filter = f
	}
}

// ArmCrash schedules a power failure just before the seq-th
// durability-relevant operation executes (1-based, compared against
// the op counter, so arming at or below the current OpCount fires on
// the very next operation). Arm with seq <= 0 to disarm.
func (fs *FS) ArmCrash(seq int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cs != nil {
		fs.cs.armAt = seq
	}
}

// CrashNow fails the power immediately.
func (fs *FS) CrashNow() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cs != nil && !fs.cs.crashed {
		fs.cs.crashed = true
		fs.cs.crashedAt = fs.cs.seq
	}
}

// Crashed reports whether the simulated power is out.
func (fs *FS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cs != nil && fs.cs.crashed
}

// OpCount returns the number of durability-relevant operations
// executed so far — the space of crash points for ArmCrash.
func (fs *FS) OpCount() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cs == nil {
		return 0
	}
	return fs.cs.seq
}

// crashCheck fails fast when the power is out. It is free when crash
// simulation is disabled.
func (fs *FS) crashCheck() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.cs != nil && fs.cs.crashed {
		return ErrCrashed
	}
	return nil
}

// Sync makes a file's current contents durable — fsync(2). With crash
// simulation disabled it is a free no-op. The sync is charged one seek
// penalty (a small metadata round trip).
func (fs *FS) Sync(name string) error {
	fs.mu.Lock()
	cs := fs.cs
	if cs == nil {
		fs.mu.Unlock()
		return nil
	}
	f, ok := fs.files[name]
	if !ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	fs.mu.Unlock()
	return fs.syncFile(f, name)
}

// Sync makes the handle's file contents durable — fsync(fd). Like
// POSIX fsync it follows the open file, not the name, so it works on a
// handle whose file has since been renamed.
func (h *Handle) Sync() error {
	return h.fs.syncFile(h.f, h.name)
}

func (fs *FS) syncFile(f *file, name string) error {
	fs.mu.Lock()
	cs := fs.cs
	if cs == nil {
		fs.mu.Unlock()
		return nil
	}
	if _, err := cs.op(OpSync, name, 0, 0); err != nil {
		fs.mu.Unlock()
		return fmt.Errorf("lustre: sync %q: %w", name, err)
	}
	honored := cs.filter == nil || cs.filter(OpSync, name)
	m := fs.m
	fs.mu.Unlock()
	if honored {
		f.mu.Lock()
		f.durable = cloneBytes(f.data)
		f.dirty = nil
		f.mu.Unlock()
	}
	fs.clock.Charge("lustre/sync", fs.cfg.SeekPenalty)
	m.syncs.Inc()
	return nil
}

// SyncDir makes the pending namespace operations under dir durable, in
// operation order — fsync(2) on a directory. Files created or renamed
// into a directory are not guaranteed to exist after a crash until
// this is called (note their *contents* additionally need their own
// Sync). With crash simulation disabled it is a free no-op.
func (fs *FS) SyncDir(dir string) error {
	dir = path.Clean(dir)
	fs.mu.Lock()
	cs := fs.cs
	if cs == nil {
		fs.mu.Unlock()
		return nil
	}
	if _, err := cs.op(OpSyncDir, dir, 0, 0); err != nil {
		fs.mu.Unlock()
		return fmt.Errorf("lustre: syncdir %q: %w", dir, err)
	}
	if cs.filter == nil || cs.filter(OpSyncDir, dir) {
		rest := cs.pending[:0]
		for _, p := range cs.pending {
			if p.dir() == dir {
				applyNS(cs.durable, p)
			} else {
				rest = append(rest, p)
			}
		}
		cs.pending = rest
	}
	m := fs.m
	fs.mu.Unlock()
	fs.clock.Charge("lustre/syncdir", fs.cfg.SeekPenalty)
	m.dirSyncs.Inc()
	return nil
}

// Recover materialises the state that survived the power failure and
// restores service: the durable namespace plus a seeded per-directory
// prefix of pending namespace operations; per file, the durable image
// plus a seeded subset of its unsynced writes applied in operation
// order, the last survivor possibly torn. Handles opened before the
// crash are dead — a restarted process re-opens by name. Integrity
// checksums (EnableIntegrity) are re-baselined over the recovered
// contents: lost unsynced data is a durability event, not corruption.
//
// Recover leaves crash simulation enabled with the op counter running
// on, so a second crash can be armed during recovery to test that
// recovery itself is idempotent.
func (fs *FS) Recover() (*CrashReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	cs := fs.cs
	if cs == nil {
		return nil, errors.New("lustre: Recover: crash simulation not enabled")
	}
	if !cs.crashed {
		return nil, errors.New("lustre: Recover without a crash (use ArmCrash or CrashNow)")
	}
	rpt := &CrashReport{CrashSeq: cs.crashedAt, PendingNS: len(cs.pending)}

	// Namespace: each directory's metadata journal persists a prefix
	// of its pending operations; survivors apply in global order.
	byDir := make(map[string][]pendingNS)
	var dirs []string
	for _, p := range cs.pending {
		d := p.dir()
		if _, ok := byDir[d]; !ok {
			dirs = append(dirs, d)
		}
		byDir[d] = append(byDir[d], p)
	}
	sort.Strings(dirs)
	survivedNS := make(map[int64]bool)
	for _, d := range dirs {
		ops := byDir[d]
		for _, p := range ops[:cs.rng.Intn(len(ops)+1)] {
			survivedNS[p.seq] = true
		}
	}
	ns := make(map[string]*file, len(cs.durable))
	for k, v := range cs.durable {
		ns[k] = v
	}
	for _, p := range cs.pending {
		if survivedNS[p.seq] {
			rpt.SurvivedNS++
			applyNS(ns, p)
		}
	}

	// Data: deterministic order (sorted names, each file object once).
	names := make([]string, 0, len(ns))
	for n := range ns {
		names = append(names, n)
	}
	sort.Strings(names)
	seen := make(map[*file]bool, len(names))
	for _, name := range names {
		f := ns[name]
		if seen[f] {
			continue
		}
		seen[f] = true
		f.mu.Lock()
		f.data = cloneBytes(f.durable)
		var keep []writeRec
		for _, r := range f.dirty {
			rpt.PendingWrites++
			if cs.rng.Float64() < writeSurviveProb {
				keep = append(keep, r)
			}
		}
		if len(keep) > 0 && cs.rng.Float64() < tearProb {
			last := keep[len(keep)-1]
			keep[len(keep)-1] = writeRec{seq: last.seq, off: last.off, data: last.data[:cs.rng.Intn(len(last.data))]}
			rpt.TornWrites++
		}
		rpt.SurvivedWrites += len(keep)
		for _, r := range keep {
			f.applyWrite(r.off, r.data)
		}
		f.durable = cloneBytes(f.data)
		f.dirty = nil
		f.imu.Lock()
		f.sums = nil
		f.tainted = nil
		f.imu.Unlock()
		f.mu.Unlock()
	}

	fs.files = ns
	cs.durable = make(map[string]*file, len(ns))
	for k, v := range ns {
		cs.durable[k] = v
	}
	cs.pending = nil
	cs.crashed = false
	cs.armAt = 0
	rpt.Files = len(ns)
	return rpt, nil
}
