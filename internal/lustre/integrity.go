package lustre

import (
	"errors"

	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// End-to-end data integrity for the simulated file system.
//
// Real Lustre deployments at Titan scale see silent corruption — bad
// DMA on an OSS, bit flips on the IB fabric — not just clean EIO. With
// integrity enabled the FS keeps a CRC32C per fixed-size block of every
// file, maintained write-side exactly like a T10-PI style guard tag:
//
//   - WriteAt recomputes the checksums of every block it touches, and
//     read-verifies any block it only partially overwrites (the
//     read-modify-write a real guard-tag update performs), so stored
//     corruption is caught at the next write to its block rather than
//     laundered into a fresh checksum.
//   - ReadAt re-computes block checksums over the bytes it returns and
//     compares them with the write-time sums. A mismatch triggers a
//     bounded reread (transient wire corruption), then surfaces as
//     ErrCorruptData (persistent stored corruption).
//
// Injection is the faultinject corrupt rule kind: lustre.write flips a
// stored bit after the checksums are recorded (bad DMA between client
// checksum and OST platter), lustre.read flips a bit of the returned
// copy (wire corruption; the store stays clean, so a reread heals it).
// The simulator is omniscient about its own injections — each write
// flip taints its block, and taints are retired into exactly one of
// three buckets: detected (a verify caught it), masked (a later write
// fully overwrote the block, or the file was unlinked unread), or
// latent (still sitting in a live file at end of run). The chaos
// harness asserts detected+masked+latent equals the plan's injection
// count, which is precisely the "no silent escapes" invariant.

// integrityBlock is the checksum granularity in bytes. Small enough
// that partition-phase point runs map to a handful of blocks, large
// enough that per-file overhead is ~0.1%.
const integrityBlock = 4096

// ErrCorruptData reports stored data that failed checksum verification
// and could not be healed by rereading: the on-disk bytes are wrong.
// Callers must treat the read (or the read-modify-write) as failed;
// phase-level retry or redispatch decides what to do next.
var ErrCorruptData = errors.New("lustre: data corruption detected")

// IntegrityReport summarizes the fate of injected corruptions.
type IntegrityReport struct {
	// DetectedRead counts wire-corrupted reads caught by verification
	// (and healed by reread).
	DetectedRead int64
	// DetectedWrite counts stored corruptions caught by a read or a
	// partial-overwrite verify.
	DetectedWrite int64
	// Masked counts stored corruptions neutralized before any reader
	// saw them: block fully overwritten, or file removed unread.
	Masked int64
	// Rereads counts verification-triggered rereads (each heals one
	// transient read corruption).
	Rereads int64
	// Latent counts corrupted blocks still present in live files.
	Latent int64
}

// EnableIntegrity turns on per-block CRC32C tracking and read-time
// verification. Files that already exist are checksummed lazily on
// their next operation, treating current contents as the clean
// baseline. Integrity stays on for the life of the FS.
func (fs *FS) EnableIntegrity() {
	fs.mu.Lock()
	fs.integrity = true
	fs.mu.Unlock()
}

// IntegrityReport returns the corruption ledger: how many injected
// corruptions were detected, masked, or remain latent in live files.
func (fs *FS) IntegrityReport() IntegrityReport {
	fs.mu.Lock()
	m := fs.m
	files := make([]*file, 0, len(fs.files))
	for _, f := range fs.files {
		files = append(files, f)
	}
	fs.mu.Unlock()
	r := IntegrityReport{
		DetectedRead:  m.corruptReads.Value(),
		DetectedWrite: m.corruptWrites.Value(),
		Masked:        m.corruptMasked.Value(),
		Rereads:       m.rereads.Value(),
	}
	for _, f := range files {
		f.imu.Lock()
		for _, c := range f.tainted {
			r.Latent += c
		}
		f.imu.Unlock()
	}
	return r
}

// blockRange returns the inclusive block numbers spanning [off, end).
func blockRange(off, end int64) (first, last int64) {
	return off / integrityBlock, (end - 1) / integrityBlock
}

// ensureSums builds the file's block checksums from current contents if
// they have not been tracked yet. Callers hold f.mu (read or write);
// imu serializes the lazy build between concurrent readers.
func (f *file) ensureSums() {
	f.imu.Lock()
	defer f.imu.Unlock()
	if f.tainted == nil {
		f.tainted = make(map[int64]int64)
	}
	if f.sums != nil || len(f.data) == 0 {
		return
	}
	n := (int64(len(f.data)) + integrityBlock - 1) / integrityBlock
	f.sums = make([]uint32, n)
	for b := int64(0); b < n; b++ {
		vs, ve := b*integrityBlock, (b+1)*integrityBlock
		if ve > int64(len(f.data)) {
			ve = int64(len(f.data))
		}
		f.sums[b] = integrity.Checksum(f.data[vs:ve])
	}
}

// verifyWriteCover runs the read-modify-write side of a guard-tag
// update: for every block the write [off, end) touches (including
// blocks whose valid range changes only because the file grows through
// them), a block whose prior contents survive the write is verified
// against its recorded checksum, and a tainted block that is fully
// overwritten is retired as masked. Returns the blocks caught corrupt
// with their total taint count (several flips may share a block).
// Caller holds f.mu for writing; file contents are pre-write.
func (f *file) verifyWriteCover(off, end int64) (corrupt []int64, corruptCount, masked int64) {
	oldSize := int64(len(f.data))
	f.imu.Lock()
	defer f.imu.Unlock()
	start := off
	if oldSize < start {
		start = oldSize // growth zero-fills the gap: those blocks change too
	}
	first, last := blockRange(start, end)
	for b := first; b <= last; b++ {
		vs, ve := b*integrityBlock, (b+1)*integrityBlock
		if ve > oldSize {
			ve = oldSize
		}
		if vs >= ve || b >= int64(len(f.sums)) {
			continue // no prior contents recorded for this block
		}
		if off <= vs && end >= ve {
			// Full overwrite: prior contents (tainted or not) vanish.
			if n := f.tainted[b]; n > 0 {
				delete(f.tainted, b)
				masked += n
			}
			continue
		}
		if integrity.Checksum(f.data[vs:ve]) != f.sums[b] {
			n := f.tainted[b]
			if n == 0 {
				n = 1 // mismatch without a recorded taint: count it anyway
			}
			delete(f.tainted, b)
			corrupt = append(corrupt, b)
			corruptCount += n
		}
	}
	return corrupt, corruptCount, masked
}

// recomputeSums refreshes the checksums of every block whose contents
// or valid range changed due to a write of [off, end) over a file that
// previously ended at oldSize. Caller holds f.mu for writing; contents
// are post-write.
func (f *file) recomputeSums(off, end, oldSize int64) {
	f.imu.Lock()
	defer f.imu.Unlock()
	size := int64(len(f.data))
	n := (size + integrityBlock - 1) / integrityBlock
	if int64(len(f.sums)) < n {
		f.sums = append(f.sums, make([]uint32, n-int64(len(f.sums)))...)
	}
	start := off
	if oldSize < start {
		start = oldSize
	}
	first, last := blockRange(start, end)
	for b := first; b <= last; b++ {
		vs, ve := b*integrityBlock, (b+1)*integrityBlock
		if ve > size {
			ve = size
		}
		f.sums[b] = integrity.Checksum(f.data[vs:ve])
	}
}

// taint records one more stored corruption in the block holding
// absolute offset abs. Caller holds f.mu for writing.
func (f *file) taint(abs int64) {
	f.imu.Lock()
	f.tainted[abs/integrityBlock]++
	f.imu.Unlock()
}

// verifyRead checks an n-byte read of [off, off+n) returned in p
// against the block checksums, combining p with the stored bytes
// flanking it inside edge blocks. Returns the mismatching blocks.
// Caller holds f.mu for reading (so writers are excluded).
func (f *file) verifyRead(p []byte, off int64, n int) (corrupt []int64) {
	if n == 0 {
		return nil
	}
	end := off + int64(n)
	size := int64(len(f.data))
	f.imu.Lock()
	defer f.imu.Unlock()
	first, last := blockRange(off, end)
	for b := first; b <= last; b++ {
		if b >= int64(len(f.sums)) {
			continue
		}
		vs, ve := b*integrityBlock, (b+1)*integrityBlock
		if ve > size {
			ve = size
		}
		crc := uint32(0)
		if vs < off {
			crc = integrity.Update(crc, f.data[vs:off])
			vs = off
		}
		pe := ve
		if pe > end {
			pe = end
		}
		crc = integrity.Update(crc, p[vs-off:pe-off])
		if ve > end {
			crc = integrity.Update(crc, f.data[end:ve])
		}
		if crc != f.sums[b] {
			corrupt = append(corrupt, b)
		}
	}
	return corrupt
}

// retireTaints retires detected stored corruptions among blocks,
// returning the total taint count retired (each injected flip counts
// once, even when several share a block).
func (f *file) retireTaints(blocks []int64) int64 {
	f.imu.Lock()
	defer f.imu.Unlock()
	var n int64
	for _, b := range blocks {
		if c := f.tainted[b]; c > 0 {
			delete(f.tainted, b)
			n += c
		}
	}
	return n
}

// maskTaints retires every remaining taint on an unlinked file as
// masked: removed data can no longer influence any output.
func (fs *FS) maskTaints(f *file) {
	if f == nil {
		return
	}
	f.imu.Lock()
	var n int64
	for b, c := range f.tainted {
		n += c
		delete(f.tainted, b)
	}
	f.imu.Unlock()
	if n > 0 {
		fs.mu.Lock()
		m := fs.m
		fs.mu.Unlock()
		m.corruptMasked.Add(n)
	}
}

// detect records corruption detections in telemetry: the shared
// integrity counter (labeled by site — corruptReads/corruptWrites are
// those handles) and a span event.
func (fs *FS) detect(site faultinject.Site, name string, off int64, healed bool, count int64) {
	hub, parent, m, _ := fs.telemetry()
	switch site {
	case faultinject.LustreRead:
		m.corruptReads.Add(count)
	case faultinject.LustreWrite:
		m.corruptWrites.Add(count)
	}
	hub.Event(parent, "integrity.corruption.detected",
		telemetry.String("site", string(site)),
		telemetry.String("file", name),
		telemetry.Int64("offset", off),
		telemetry.Bool("healed", healed),
	)
}
