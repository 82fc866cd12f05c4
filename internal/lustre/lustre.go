// Package lustre simulates a striped parallel file system in the style of
// the Lustre installation attached to Titan.
//
// Mr. Scan's dominant cost is I/O: the partition phase writes partitions
// to Lustre for consumption by the cluster phase, and §5.1.1 attributes
// 68% of total time to it — "dominated by small random writes", because
// every partitioner leaf holds a random portion of the data and must
// write small runs of points at specific offsets of nearly every
// partition. This simulator reproduces that cost model:
//
//   - files are striped round-robin over OSTs (object storage targets);
//   - each OST is a serial resource with a fixed bandwidth, so concurrent
//     writers contend per OST on the simulated clock;
//   - every discontiguous operation on a handle pays a seek penalty,
//     which makes many small random writes far slower than a streaming
//     write of the same volume.
//
// Data is stored for real (in memory), so everything written can be read
// back and verified; only the *costs* are simulated. Because the bytes are
// real, a Handle offers two ways to keep them from being allocated and
// copied more than once, next to WriteAt and ReadAt:
//
//   - Grow reserves capacity for bytes about to be written — fallocate,
//     not a write: nothing observable (size, contents, durable and crash
//     images, checksums, counters, fault sites, simulated clock) changes;
//   - View is ReadAt with the stored bytes lent to a callback instead of
//     copied, whenever the file system has nothing to inject or verify
//     (no fault plan, no integrity tracking, no crash model); otherwise it
//     is ReadAt into a private buffer. Costs and counters are ReadAt's.
package lustre

import (
	"fmt"
	"io"
	iofs "io/fs"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/health"
	"repro/internal/integrity"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Config describes the simulated file system.
type Config struct {
	// OSTs is the number of object storage targets files stripe over.
	OSTs int
	// StripeSize is the stripe unit in bytes.
	StripeSize int64
	// OSTBandwidth is each OST's bandwidth in bytes/second (0 disables
	// byte costs).
	OSTBandwidth float64
	// SeekPenalty is charged per discontiguous read/write on a handle.
	SeekPenalty time.Duration
}

// Titan returns a configuration shaped like a slice of Titan's Lustre
// scratch system, scaled to simulation: modest OST count, 1 MiB stripes,
// and a seek penalty that makes small random writes dominate — the §5.1.1
// behaviour.
func Titan() Config {
	return Config{
		OSTs:         32,
		StripeSize:   1 << 20,
		OSTBandwidth: 500e6,
		SeekPenalty:  5 * time.Millisecond,
	}
}

// Stats aggregates file system activity. It is a read-side view over
// the FS's telemetry counters (see SetTelemetry) — the registry is the
// single source of truth; this struct exists for established callers.
type Stats struct {
	ReadOps      int64
	WriteOps     int64
	BytesRead    int64
	BytesWritten int64
	Seeks        int64
	// WriteSeeks counts the subset of Seeks charged to discontiguous
	// writes — the quantity behind §5.1.1's "dominated by small random
	// writes": the partition writer's per-region writes scale it with
	// leaves×partitions.
	WriteSeeks   int64
	FilesCreated int64
}

// fsMetrics caches the FS's handles into a telemetry registry.
type fsMetrics struct {
	readOps      *telemetry.Counter
	writeOps     *telemetry.Counter
	bytesRead    *telemetry.Counter
	bytesWritten *telemetry.Counter
	seeks        *telemetry.Counter
	writeSeeks   *telemetry.Counter
	filesCreated *telemetry.Counter
	// Durability model (see crash.go): honoured file and directory
	// syncs.
	syncs    *telemetry.Counter
	dirSyncs *telemetry.Counter
	// Integrity ledger (see integrity.go): detections by side, taints
	// retired as masked, and verification rereads.
	corruptReads  *telemetry.Counter
	corruptWrites *telemetry.Counter
	corruptMasked *telemetry.Counter
	rereads       *telemetry.Counter
}

func resolveFSMetrics(h *telemetry.Hub) fsMetrics {
	return fsMetrics{
		readOps:       h.Counter("lustre_read_ops_total"),
		writeOps:      h.Counter("lustre_write_ops_total"),
		bytesRead:     h.Counter("lustre_bytes_read_total"),
		bytesWritten:  h.Counter("lustre_bytes_written_total"),
		seeks:         h.Counter("lustre_seeks_total"),
		writeSeeks:    h.Counter("lustre_write_seeks_total"),
		filesCreated:  h.Counter("lustre_files_created_total"),
		syncs:         h.Counter("lustre_syncs_total"),
		dirSyncs:      h.Counter("lustre_dir_syncs_total"),
		corruptReads:  h.Counter(integrity.MetricDetected, "site", string(faultinject.LustreRead)),
		corruptWrites: h.Counter(integrity.MetricDetected, "site", string(faultinject.LustreWrite)),
		corruptMasked: h.Counter(integrity.MetricMasked, "site", string(faultinject.LustreWrite)),
		rereads:       h.Counter("lustre_integrity_rereads_total"),
	}
}

// FS is a simulated parallel file system. Safe for concurrent use.
type FS struct {
	cfg   Config
	clock *simclock.Clock

	mu    sync.Mutex
	files map[string]*file

	// plan is consulted at the lustre.read / lustre.write fault sites.
	plan   *faultinject.Plan
	hub    *telemetry.Hub
	parent *telemetry.Span
	m      fsMetrics
	// spans gates per-operation span recording: off on the private
	// default hub, on once a run-level hub is installed via SetTelemetry.
	spans bool
	// integrity gates per-block CRC32C tracking and read verification
	// (see integrity.go / EnableIntegrity).
	integrity bool
	// cs holds the durability / power-failure model; nil (the default)
	// disables it entirely (see crash.go / EnableCrashSim).
	cs *crashState
	// ostHealth, when non-nil, scores per-OST read/write latency for
	// gray-failure detection (see health.go / EnableOSTHealth).
	ostHealth *health.Tracker
	// budget, when non-nil, meters integrity rereads (see SetRetryBudget).
	budget *health.Budget
}

type file struct {
	mu   sync.RWMutex
	data []byte

	// osts, when non-nil, is the explicit OST list this file stripes
	// over (CreateWithOSTs); nil files round-robin over all OSTs.
	// Immutable after creation.
	osts []int

	// Durability model (crash.go), tracked only while crash simulation
	// is enabled: durable is the image on stable storage as of the last
	// honoured Sync; dirty holds the unsynced writes since. Guarded by
	// mu.
	durable []byte
	dirty   []writeRec

	// imu guards the integrity state below; always acquired after mu.
	imu sync.Mutex
	// sums holds one CRC32C per integrityBlock-sized block of data,
	// covering [b*block, min((b+1)*block, len(data))). nil until the
	// first operation with integrity enabled.
	sums []uint32
	// tainted counts the injected write corruptions still stored in each
	// block and not yet detected or masked — two flips landing in one
	// block are two ledger entries, not one.
	tainted map[int64]int64
}

// growTo makes room for a write of [off, end): it extends the file to end
// bytes when it is shorter and zeroes the hole [old size, off) a write
// past EOF leaves — the bytes the caller is not about to overwrite. It
// reslices within capacity (spare capacity is not trusted to be clean)
// and otherwise reallocates to at least double, so a writer appending
// chunk by chunk copies O(bytes) in total instead of the whole file per
// chunk. Callers hold f.mu.
//
// Nothing else may ever alias f.data's backing array: the durable image
// and the crash image are cloneBytes copies, so a later in-capacity growth
// cannot write through to them.
func (f *file) growTo(off, end int64) {
	old := int64(len(f.data))
	if end <= old {
		return
	}
	if end > int64(cap(f.data)) {
		grown := make([]byte, old, max(end, 2*int64(cap(f.data))))
		copy(grown, f.data)
		f.data = grown
	}
	f.data = f.data[:end]
	if off > old {
		clear(f.data[old:off])
	}
}

// ErrNotExist is returned when opening a file that was never created. It
// matches io/fs.ErrNotExist, as an OS file system's error does.
var ErrNotExist = fmt.Errorf("lustre: %w", iofs.ErrNotExist)

// New creates a file system. A nil clock allocates a private one.
func New(cfg Config, clock *simclock.Clock) *FS {
	if cfg.OSTs <= 0 {
		cfg.OSTs = 1
	}
	if cfg.StripeSize <= 0 {
		cfg.StripeSize = 1 << 20
	}
	if clock == nil {
		clock = simclock.New()
	}
	fs := &FS{cfg: cfg, clock: clock, files: make(map[string]*file)}
	fs.hub = telemetry.New(clock)
	fs.m = resolveFSMetrics(fs.hub)
	return fs
}

// Clock returns the simulated clock I/O costs are charged to.
func (fs *FS) Clock() *simclock.Clock { return fs.clock }

// SetTelemetry points the file system's metrics and spans at a
// run-level hub, carrying over counts accumulated on the private
// default hub. Per-read/write spans are recorded only on an installed
// hub (and bounded by the tracer's span cap — partition phases issue
// very many small writes).
func (fs *FS) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	old := fs.m
	fs.hub = h
	fs.m = resolveFSMetrics(h)
	fs.spans = true
	fs.m.readOps.Add(old.readOps.Value())
	fs.m.writeOps.Add(old.writeOps.Value())
	fs.m.bytesRead.Add(old.bytesRead.Value())
	fs.m.bytesWritten.Add(old.bytesWritten.Value())
	fs.m.seeks.Add(old.seeks.Value())
	fs.m.writeSeeks.Add(old.writeSeeks.Value())
	fs.m.filesCreated.Add(old.filesCreated.Value())
	fs.m.syncs.Add(old.syncs.Value())
	fs.m.dirSyncs.Add(old.dirSyncs.Value())
	fs.m.corruptReads.Add(old.corruptReads.Value())
	fs.m.corruptWrites.Add(old.corruptWrites.Value())
	fs.m.corruptMasked.Add(old.corruptMasked.Value())
	fs.m.rereads.Add(old.rereads.Value())
	fs.ostHealth.SetTelemetry(h)
	fs.budget.SetTelemetry(h)
}

// SetTraceParent nests the file system's I/O spans under s — the span
// of the phase currently doing I/O. Pass nil to detach.
func (fs *FS) SetTraceParent(s *telemetry.Span) {
	fs.mu.Lock()
	fs.parent = s
	fs.mu.Unlock()
}

// telemetry snapshots the hub, span parent and metric handles.
func (fs *FS) telemetry() (*telemetry.Hub, *telemetry.Span, fsMetrics, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.hub, fs.parent, fs.m, fs.spans
}

// Stats returns a snapshot of accumulated counters, read back from the
// telemetry registry.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	m := fs.m
	fs.mu.Unlock()
	return Stats{
		ReadOps:      m.readOps.Value(),
		WriteOps:     m.writeOps.Value(),
		BytesRead:    m.bytesRead.Value(),
		BytesWritten: m.bytesWritten.Value(),
		Seeks:        m.seeks.Value(),
		WriteSeeks:   m.writeSeeks.Value(),
		FilesCreated: m.filesCreated.Value(),
	}
}

// SetFaultPlan installs the fault plan consulted at the lustre.read and
// lustre.write sites (faultinject package). A nil plan disables
// injection. Real parallel file systems fail under load (OST evictions,
// MDS timeouts); Mr. Scan's phases must surface those errors rather
// than corrupt output.
func (fs *FS) SetFaultPlan(p *faultinject.Plan) {
	fs.mu.Lock()
	fs.plan = p
	fs.mu.Unlock()
}

// checkFault consumes one operation at the site and returns the
// injected error if the plan fires.
func (fs *FS) checkFault(site faultinject.Site) error {
	fs.mu.Lock()
	plan := fs.plan
	fs.mu.Unlock()
	return plan.Check(site)
}

// readsAreCopies reports whether a read has nothing to do but copy
// stored bytes: no plan to consult or inject from, no checksums to verify,
// no crash model to refuse it.
func (fs *FS) readsAreCopies() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.plan == nil && !fs.integrity && fs.cs == nil
}

// Create makes (or truncates) a file and returns a handle positioned at
// offset 0. Under crash simulation the new name is not durable until
// the parent directory is synced.
func (fs *FS) Create(name string) *Handle {
	fs.mu.Lock()
	f := &file{}
	fs.files[name] = f
	if fs.cs != nil {
		fs.cs.nsOp(OpCreate, name, "", f)
	}
	fs.m.filesCreated.Inc()
	fs.mu.Unlock()
	return &Handle{fs: fs, f: f, name: name, lastOff: -1}
}

// Open returns a handle on an existing file.
func (fs *FS) Open(name string) (*Handle, error) {
	fs.mu.Lock()
	if fs.cs != nil && fs.cs.crashed {
		fs.mu.Unlock()
		return nil, fmt.Errorf("lustre: open %q: %w", name, ErrCrashed)
	}
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	return &Handle{fs: fs, f: f, name: name, lastOff: -1}, nil
}

// OpenOrCreate returns a handle, creating the file if needed. Unlike
// Create it does not truncate. Multiple handles on one file may be used
// concurrently (each tracks its own seek position), which is how the
// partitioner's leaf processes write "to the correct position in a single
// output file in parallel" (§3.1.3).
func (fs *FS) OpenOrCreate(name string) *Handle {
	fs.mu.Lock()
	f, ok := fs.files[name]
	if !ok {
		f = &file{}
		fs.files[name] = f
		if fs.cs != nil {
			fs.cs.nsOp(OpCreate, name, "", f)
		}
		fs.m.filesCreated.Inc()
	}
	fs.mu.Unlock()
	return &Handle{fs: fs, f: f, name: name, lastOff: -1}
}

// Remove deletes a file. Removing a missing file is not an error.
// Outstanding taints on the unlinked file are retired as masked — data
// that no longer exists cannot corrupt any output.
func (fs *FS) Remove(name string) {
	fs.mu.Lock()
	f := fs.files[name]
	delete(fs.files, name)
	if fs.cs != nil && f != nil {
		fs.cs.nsOp(OpRemove, name, "", nil)
	}
	fs.mu.Unlock()
	fs.maskTaints(f)
}

// Rename atomically renames a file, replacing newname if it exists —
// POSIX rename(2) semantics, the primitive behind the checkpoint
// write-then-rename protocol. The operation happens entirely under the
// FS mutex (a metadata-server operation on real Lustre) and is charged
// no byte cost. Open handles follow the file object, not the name:
// handles on oldname keep operating on the renamed file, and handles on
// a replaced newname keep operating on the now-unlinked old contents,
// exactly as with POSIX descriptors.
//
// Atomic is not durable. Rename returns success as soon as the
// in-memory (page-cache) namespace is updated; after a power failure
// the rename may simply not have happened, and either name may be
// visible. A successful return promises only that readers *now* see
// newname and that no crash exposes a half-renamed state. Callers that
// need the rename to survive a crash must (1) Sync the file's contents
// first — otherwise the new name can surface with torn or empty
// contents — and (2) SyncDir the parent directory after. There is no
// ErrNotDurable escape hatch: durability is solely the caller's sync
// ordering, which is exactly what the crash harness audits.
func (fs *FS) Rename(oldname, newname string) error {
	fs.mu.Lock()
	f, ok := fs.files[oldname]
	if !ok {
		fs.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrNotExist, oldname)
	}
	if oldname == newname {
		fs.mu.Unlock()
		return nil
	}
	if fs.cs != nil && !fs.cs.nsOp(OpRename, newname, oldname, f) {
		fs.mu.Unlock()
		return fmt.Errorf("lustre: rename %q -> %q: %w", oldname, newname, ErrCrashed)
	}
	replaced := fs.files[newname]
	fs.files[newname] = f
	delete(fs.files, oldname)
	fs.mu.Unlock()
	if replaced != f {
		fs.maskTaints(replaced) // the unlinked old contents can't be read by name anymore
	}
	return nil
}

// Size returns a file's current length.
func (fs *FS) Size(name string) (int64, error) {
	fs.mu.Lock()
	f, ok := fs.files[name]
	fs.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return int64(len(f.data)), nil
}

// List returns the names of all files, sorted.
func (fs *FS) List() []string {
	fs.mu.Lock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	fs.mu.Unlock()
	sort.Strings(names)
	return names
}

// chargeIO charges stripe traffic for [off, off+n) to the OSTs the
// file's layout lands it on, plus a seek penalty when the handle moved
// discontiguously. A degrade rule armed at an OST's fault site inflates
// that OST's cost (the OST limps), and when OST health tracking is
// enabled every chunk feeds the per-OST latency score. It returns the
// total simulated cost so callers can record the operation as a trace
// span.
func (fs *FS) chargeIO(f *file, off, n int64, seek bool) time.Duration {
	fs.mu.Lock()
	plan, tracker := fs.plan, fs.ostHealth
	fs.mu.Unlock()
	var total time.Duration
	if seek {
		fs.clock.Charge("lustre/seek", fs.cfg.SeekPenalty)
		total += fs.cfg.SeekPenalty
	}
	for n > 0 {
		stripe := off / fs.cfg.StripeSize
		ost := fs.ostFor(f, stripe)
		inStripe := fs.cfg.StripeSize - off%fs.cfg.StripeSize
		chunk := n
		if chunk > inStripe {
			chunk = inStripe
		}
		cost := simclock.BytesDuration(chunk, fs.cfg.OSTBandwidth)
		if plan != nil {
			if factor := plan.DegradeFactor(OSTFaultSite(ost)); factor > 1 {
				cost = time.Duration(float64(cost) * factor)
			}
		}
		fs.clock.Charge(fmt.Sprintf("lustre/ost%d", ost), cost)
		if tracker != nil && cost > 0 {
			// Normalize to cost per MiB so chunk size doesn't skew the
			// fleet-relative comparison: healthy OSTs all observe the
			// same value, a degraded OST observes factor x it.
			tracker.ObserveSuccess(ostComponent(ost), time.Duration(float64(cost)*float64(1<<20)/float64(chunk)))
		}
		total += cost
		off += chunk
		n -= chunk
	}
	return total
}

// ostFor maps a stripe index to an OST under the file's layout: the
// default round-robin over all OSTs, or the explicit OST list given to
// CreateWithOSTs.
func (fs *FS) ostFor(f *file, stripe int64) int {
	if f != nil && len(f.osts) > 0 {
		return f.osts[int(stripe)%len(f.osts)]
	}
	return int(stripe) % fs.cfg.OSTs
}

// Handle is an open file descriptor with its own seek tracking. Handles
// implement io.ReaderAt, io.WriterAt, io.Reader and io.Writer.
type Handle struct {
	fs      *FS
	f       *file
	name    string
	mu      sync.Mutex
	pos     int64 // for Read/Write
	lastOff int64 // last byte touched + 1; -1 means fresh handle
}

var (
	_ io.ReaderAt = (*Handle)(nil)
	_ io.WriterAt = (*Handle)(nil)
	_ io.Reader   = (*Handle)(nil)
	_ io.Writer   = (*Handle)(nil)
)

// Name returns the file name the handle refers to.
func (h *Handle) Name() string { return h.name }

// WriteAt writes p at offset off, growing the file as needed.
func (h *Handle) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("lustre: negative offset %d on %q", off, h.name)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if err := h.fs.crashCheck(); err != nil {
		return 0, fmt.Errorf("lustre: write %q at %d: %w", h.name, off, err)
	}
	if err := h.fs.checkFault(faultinject.LustreWrite); err != nil {
		return 0, fmt.Errorf("lustre: write %q at %d: %w", h.name, off, err)
	}
	h.fs.mu.Lock()
	plan, withIntegrity := h.fs.plan, h.fs.integrity
	var wseq int64
	if h.fs.cs != nil {
		var cerr error
		if wseq, cerr = h.fs.cs.op(OpWrite, h.name, off, len(p)); cerr != nil {
			h.fs.mu.Unlock()
			return 0, fmt.Errorf("lustre: write %q at %d: %w", h.name, off, cerr)
		}
	}
	h.fs.mu.Unlock()

	h.f.mu.Lock()
	end := off + int64(len(p))
	oldSize := int64(len(h.f.data))
	var masked int64
	if withIntegrity {
		h.f.ensureSums()
		// Guard-tag read-modify-write: blocks whose prior contents
		// survive this write are verified before we touch them, so a
		// stored corruption is detected instead of re-checksummed.
		var (
			corrupt      []int64
			corruptCount int64
		)
		corrupt, corruptCount, masked = h.f.verifyWriteCover(off, end)
		if len(corrupt) > 0 {
			h.f.mu.Unlock()
			_, _, m, _ := h.fs.telemetry()
			if masked > 0 {
				m.corruptMasked.Add(masked)
			}
			h.fs.detect(faultinject.LustreWrite, h.name, corrupt[0]*integrityBlock, false, corruptCount)
			return 0, fmt.Errorf("lustre: write %q at %d: stored block %d: %w", h.name, off, corrupt[0], ErrCorruptData)
		}
	}
	h.f.growTo(off, end)
	copy(h.f.data[off:end], p)
	if withIntegrity {
		h.f.recomputeSums(off, end, oldSize)
	}
	// Injected write corruption flips a stored bit after the checksums
	// are recorded (bad DMA between client checksum and OST platter):
	// the flip is silent here and caught by a later read or overwrite.
	if c := plan.CorruptData(faultinject.LustreWrite, h.f.data[off:end]); c != nil && withIntegrity {
		h.f.taint(off + c.Offset)
	}
	if wseq > 0 {
		h.f.dirty = append(h.f.dirty, writeRec{seq: wseq, off: off, data: append([]byte(nil), p...)})
	}
	h.f.mu.Unlock()

	h.mu.Lock()
	seek := h.lastOff != off
	h.lastOff = end
	h.mu.Unlock()

	cost := h.fs.chargeIO(h.f, off, int64(len(p)), seek)
	hub, parent, m, spans := h.fs.telemetry()
	if spans {
		hub.RecordSim(parent, "lustre.write", cost, telemetry.Int64("bytes", int64(len(p))))
	}
	if masked > 0 {
		m.corruptMasked.Add(masked)
	}
	if seek {
		m.seeks.Inc()
		m.writeSeeks.Inc()
	}
	m.writeOps.Inc()
	m.bytesWritten.Add(int64(len(p)))
	return len(p), nil
}

// ReadAt reads into p from offset off. Short reads at EOF return io.EOF.
func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("lustre: negative offset %d on %q", off, h.name)
	}
	if err := h.fs.crashCheck(); err != nil {
		return 0, fmt.Errorf("lustre: read %q at %d: %w", h.name, off, err)
	}
	if err := h.fs.checkFault(faultinject.LustreRead); err != nil {
		return 0, fmt.Errorf("lustre: read %q at %d: %w", h.name, off, err)
	}
	h.fs.mu.Lock()
	plan, withIntegrity, budget := h.fs.plan, h.fs.integrity, h.fs.budget
	h.fs.mu.Unlock()

	h.f.mu.RLock()
	size := int64(len(h.f.data))
	var n int
	if off < size {
		n = copy(p, h.f.data[off:])
	}
	// Injected read corruption flips a bit of the returned copy — wire
	// corruption between OST and client. The store stays clean, so a
	// verification-triggered reread heals it.
	injected := plan.CorruptData(faultinject.LustreRead, p[:n])
	var (
		rereads      int64
		storedTaints int64
		corruptBlock int64 = -1
		budgetDenied bool
	)
	if withIntegrity && n > 0 {
		h.f.ensureSums()
		corrupt := h.f.verifyRead(p[:n], off, n)
		if len(corrupt) > 0 && injected != nil {
			if budget.Take("lustre.reread") {
				// Transient: refetch the whole range from the store (no
				// second injection — one op, one corruption) and reverify.
				copy(p[:n], h.f.data[off:off+int64(n)])
				rereads++
				corrupt = h.f.verifyRead(p[:n], off, n)
			} else {
				// Retry budget exhausted: the heal is denied, so the
				// detected wire corruption degrades to a loud failure.
				budgetDenied = true
			}
		}
		if len(corrupt) > 0 && !budgetDenied {
			// Persistent: the stored bytes are wrong.
			storedTaints = h.f.retireTaints(corrupt)
			corruptBlock = corrupt[0]
		}
	}
	h.f.mu.RUnlock()

	h.bookRead(off, n, rereads)
	if rereads > 0 {
		h.fs.detect(faultinject.LustreRead, h.name, off+injected.Offset, true, 1)
	}
	if budgetDenied {
		h.fs.detect(faultinject.LustreRead, h.name, off+injected.Offset, false, 1)
		return 0, fmt.Errorf("lustre: read %q at %d: %w (%w)", h.name, off, ErrCorruptData, health.ErrBudgetExhausted)
	}
	if corruptBlock >= 0 {
		if storedTaints > 0 {
			h.fs.detect(faultinject.LustreWrite, h.name, corruptBlock*integrityBlock, false, storedTaints)
		}
		return 0, fmt.Errorf("lustre: read %q at %d: stored block %d: %w", h.name, off, corruptBlock, ErrCorruptData)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// bookRead accounts for a read that returned n bytes at off — the tail
// ReadAt and View share: the handle's seek tracking, the stripe traffic
// (paid again by each verification reread), the lustre.read span and the
// op, byte and seek counters.
func (h *Handle) bookRead(off int64, n int, rereads int64) {
	h.mu.Lock()
	seek := h.lastOff != off
	h.lastOff = off + int64(n)
	h.mu.Unlock()

	cost := h.fs.chargeIO(h.f, off, int64(n), seek)
	if rereads > 0 {
		cost += h.fs.chargeIO(h.f, off, int64(n), false) // the reread pays the wire again
	}
	hub, parent, m, spans := h.fs.telemetry()
	if spans {
		hub.RecordSim(parent, "lustre.read", cost, telemetry.Int64("bytes", int64(n)))
	}
	m.rereads.Add(rereads)
	if seek {
		m.seeks.Inc()
	}
	m.readOps.Inc()
	m.bytesRead.Add(int64(n))
}

// View is ReadAt for a caller that only decodes: fn sees the n bytes at
// off, and the read costs, counts and traces exactly what ReadAt of the
// same range would. A range reaching past EOF returns io.EOF without
// calling fn.
//
// When a read is nothing but a copy — the file system has no fault plan,
// no integrity tracking and no crash model — the stored bytes themselves
// are lent to fn under the file's read lock. fn must not retain or write
// b, and must not write the file it is viewing (it would deadlock); the
// slice's capacity is clipped, so an append cannot reach the file. In
// every other configuration View reads into a private buffer through
// ReadAt, so injection, verification, rereads and the retry budget behave
// as they do there.
func (h *Handle) View(off, n int64, fn func(b []byte) error) error {
	if off < 0 || n < 0 {
		return fmt.Errorf("lustre: view of %d bytes at offset %d on %q", n, off, h.name)
	}
	if !h.fs.readsAreCopies() {
		buf := make([]byte, n)
		if _, err := h.ReadAt(buf, off); err != nil {
			return err
		}
		return fn(buf)
	}
	h.f.mu.RLock()
	size := int64(len(h.f.data))
	held := min(max(size-off, 0), n)
	var err error
	if held == n {
		err = fn(h.f.data[min(off, size):][:n:n])
	}
	h.f.mu.RUnlock()
	h.bookRead(off, int(held), 0)
	if held < n {
		return io.EOF
	}
	return err
}

// Grow reserves capacity for n more bytes past the file's current end,
// with bytes.Buffer.Grow's meaning: the next n bytes written there cause
// no reallocation. It is fallocate, not a write — the file's length and
// contents, its durable and crash images, its checksums, every counter,
// fault site and the simulated clock are untouched. Writers that know
// their final size call it once; appenders that do not are served by
// growTo's doubling.
func (h *Handle) Grow(n int) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if need := len(h.f.data) + n; need > cap(h.f.data) {
		grown := make([]byte, len(h.f.data), need)
		copy(grown, h.f.data)
		h.f.data = grown
	}
}

// Write appends at the handle's current position.
func (h *Handle) Write(p []byte) (int, error) {
	h.mu.Lock()
	off := h.pos
	h.pos += int64(len(p))
	h.mu.Unlock()
	return h.WriteAt(p, off)
}

// Read reads from the handle's current position.
func (h *Handle) Read(p []byte) (int, error) {
	h.mu.Lock()
	off := h.pos
	h.mu.Unlock()
	n, err := h.ReadAt(p, off)
	h.mu.Lock()
	h.pos += int64(n)
	h.mu.Unlock()
	return n, err
}

// Size returns the file's current length.
func (h *Handle) Size() int64 {
	h.f.mu.RLock()
	defer h.f.mu.RUnlock()
	return int64(len(h.f.data))
}
