package mrscan

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/integrity"
	"repro/internal/merge"
	"repro/internal/ptio"
)

// Snapshot payloads for the checkpoint store. Each encodes itself in
// fixed little-endian records (docs/FORMATS.md "Checkpoint snapshots"):
// points as ptio's 32-byte weighted records, summaries as merge's block,
// every count up front. BinarySize gives the encoding's exact length and
// AppendBinary appends it to a caller's buffer, so the checkpoint store
// encodes into one recycled buffer; decoding checks every count against
// the bytes left before allocating, copies everything out, accepts one
// encoding per value and fails with integrity.ErrMalformed
// (checkpoint.Load reports it as ErrCorrupt). A field added to any of
// these types must be added to its codec and checkpoint.RecordsTag bumped
// — TestSnapshotFieldsPinned fails until it is.

// snapshotCodec is what a phase snapshot is: a payload the checkpoint
// store keeps as its own records, never as gob.
type snapshotCodec interface {
	checkpoint.Records
	encoding.BinaryUnmarshaler
}

type partitionCkpt struct {
	// Meta locates every partition inside partitionFile. The partition
	// data itself stays on the FS; the snapshot holds only the metadata,
	// so resuming requires both.
	Meta *ptio.PartitionMeta
	// Direct marks a DirectPartitions run, whose partition contents
	// never touch the file system and are carried in the snapshot.
	Direct     bool
	Partitions [][]geom.Point
	Shadows    [][]geom.Point

	TotalPoints   int64
	WrittenPoints int64
	ReadSim       time.Duration
	WriteSim      time.Duration
}

// leafState is one leaf's cluster-phase output: what the merge and sweep
// phases read, and one element of the cluster snapshot.
type leafState struct {
	Owned     []geom.Point
	Labels    []int32
	Summaries []*merge.Summary
	GPUTime   time.Duration
	Stats     gdbscan.Stats
}

type clusterCkpt struct {
	Leaves []leafState
}

type mergeCkpt struct {
	Final []*merge.Summary
}

// Record sizes.
const (
	pointRec = 32 // ptio weighted record
	// partitionHdr: flags (bit 0 Direct), TotalPoints, WrittenPoints,
	// ReadSim, WriteSim, meta length, partition count, shadow count.
	partitionHdr = 8 * 8
	// leafHdr: GPUTime, the eleven gdbscan.Stats counters, then the owned,
	// label, round and summary-block-byte counts.
	leafHdr = 16 * 8
)

var le = binary.LittleEndian

func malformed(snapshot, format string, args ...any) error {
	return fmt.Errorf("mrscan: decoding %s snapshot: %s: %w", snapshot, fmt.Sprintf(format, args...), integrity.ErrMalformed)
}

// fits reports whether n records of size bytes fit in the left bytes.
func fits(n uint64, size, left int) bool { return n <= uint64(left/size) }

func appendPoints(buf []byte, pts []geom.Point) []byte {
	for _, p := range pts {
		buf = ptio.AppendRecord(buf, p, true)
	}
	return buf
}

// metaDoc is the metadata document as PartitionMeta.Marshal writes it,
// empty for a nil Meta.
func (c *partitionCkpt) metaDoc() ([]byte, error) {
	if c.Meta == nil {
		return nil, nil
	}
	return c.Meta.Marshal()
}

// BinarySize is the length of AppendBinary's encoding. A metadata
// document that does not marshal counts as empty; AppendBinary reports
// its error.
func (c *partitionCkpt) BinarySize() int {
	meta, _ := c.metaDoc()
	size := partitionHdr + len(meta) + 8*(len(c.Partitions)+len(c.Shadows))
	for _, regions := range [2][][]geom.Point{c.Partitions, c.Shadows} {
		for _, pts := range regions {
			size += pointRec * len(pts)
		}
	}
	return size
}

// AppendBinary appends the header, the metadata document, a count per
// partition and per shadow region, then their points.
func (c *partitionCkpt) AppendBinary(buf []byte) ([]byte, error) {
	meta, err := c.metaDoc()
	if err != nil {
		return nil, err
	}
	var flags uint64
	if c.Direct {
		flags = 1
	}
	for _, w := range [...]uint64{flags, uint64(c.TotalPoints), uint64(c.WrittenPoints), uint64(c.ReadSim), uint64(c.WriteSim),
		uint64(len(meta)), uint64(len(c.Partitions)), uint64(len(c.Shadows))} {
		buf = le.AppendUint64(buf, w)
	}
	buf = append(buf, meta...)
	for _, regions := range [2][][]geom.Point{c.Partitions, c.Shadows} {
		for _, pts := range regions {
			buf = le.AppendUint64(buf, uint64(len(pts)))
		}
	}
	for _, regions := range [2][][]geom.Point{c.Partitions, c.Shadows} {
		for _, pts := range regions {
			buf = appendPoints(buf, pts)
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes AppendBinary's layout into c.
func (c *partitionCkpt) UnmarshalBinary(p []byte) error {
	const what = "partition"
	if len(p) < partitionHdr {
		return malformed(what, "%d bytes, header is %d", len(p), partitionHdr)
	}
	flags, metaLen, nParts, nShadows := le.Uint64(p), le.Uint64(p[40:]), le.Uint64(p[48:]), le.Uint64(p[56:])
	left := len(p) - partitionHdr
	if flags > 1 || !fits(metaLen, 1, left) || !fits(nParts, 8, left-int(metaLen)) ||
		!fits(nShadows, 8, left-int(metaLen)-8*int(nParts)) {
		return malformed(what, "flags %#x, %d meta bytes, %d+%d regions in %d bytes", flags, metaLen, nParts, nShadows, len(p))
	}
	out := partitionCkpt{
		Direct: flags == 1, TotalPoints: int64(le.Uint64(p[8:])), WrittenPoints: int64(le.Uint64(p[16:])),
		ReadSim: time.Duration(le.Uint64(p[24:])), WriteSim: time.Duration(le.Uint64(p[32:])),
	}
	off := partitionHdr
	if metaLen > 0 {
		doc := p[off : off+int(metaLen)]
		meta, err := ptio.UnmarshalPartitionMeta(doc)
		if err != nil {
			return malformed(what, "%v", err)
		}
		// JSON admits many spellings of one document; the snapshot holds
		// the one Marshal writes.
		if again, err := meta.Marshal(); err != nil || !bytes.Equal(again, doc) {
			return malformed(what, "metadata is not in Marshal's form")
		}
		out.Meta = meta
		off += int(metaLen)
	}
	counts := p[off : off+8*int(nParts+nShadows)]
	off += len(counts)
	var total uint64
	for i := 0; i < len(counts); i += 8 {
		n := le.Uint64(counts[i:])
		if !fits(n, pointRec, len(p)-off-pointRec*int(total)) {
			return malformed(what, "region %d: %d points overrun the snapshot", i/8, n)
		}
		total += n
	}
	if off+pointRec*int(total) != len(p) {
		return malformed(what, "%d trailing bytes", len(p)-off-pointRec*int(total))
	}
	regions := make([][]geom.Point, nParts+nShadows)
	for i := range regions {
		end := off + pointRec*int(le.Uint64(counts[8*i:]))
		regions[i], _ = ptio.DecodeRecords(p[off:end], true) // whole records: counted above
		off = end
	}
	out.Partitions, out.Shadows = regions[:nParts:nParts], regions[nParts:]
	*c = out
	return nil
}

// BinarySize is the length of AppendBinary's encoding.
func (c *clusterCkpt) BinarySize() int {
	size := 8
	for i := range c.Leaves {
		l := &c.Leaves[i]
		size += leafHdr + pointRec*len(l.Owned) + 4*len(l.Labels) + 8*len(l.Stats.RoundTransferBytes) + merge.BlockSize(l.Summaries)
	}
	return size
}

// AppendBinary appends a leaf count, then per leaf a header (GPUTime, the
// Stats counters, four counts), its owned points, its labels as 4-byte
// words, its per-round transfer bytes as 8-byte words and its summaries
// block.
func (c *clusterCkpt) AppendBinary(buf []byte) ([]byte, error) {
	buf = le.AppendUint64(buf, uint64(len(c.Leaves)))
	for i := range c.Leaves {
		l := &c.Leaves[i]
		st := &l.Stats
		for _, w := range [...]int64{int64(l.GPUTime),
			int64(st.DenseBoxes), int64(st.DenseBoxPoints), int64(st.CellCorePoints), int64(st.CellNonCorePoints),
			int64(st.SeedRounds), int64(st.Collisions), int64(st.BorderAttached), int64(st.CorePoints),
			st.DeviceH2DBytes, st.DeviceD2HBytes, st.DeviceTransfers,
			int64(len(l.Owned)), int64(len(l.Labels)), int64(len(st.RoundTransferBytes)), int64(merge.BlockSize(l.Summaries))} {
			buf = le.AppendUint64(buf, uint64(w))
		}
		buf = appendPoints(buf, l.Owned)
		for _, lab := range l.Labels {
			buf = le.AppendUint32(buf, uint32(lab))
		}
		for _, b := range st.RoundTransferBytes {
			buf = le.AppendUint64(buf, uint64(b))
		}
		buf = merge.AppendSummaries(buf, l.Summaries)
	}
	return buf, nil
}

// UnmarshalBinary decodes AppendBinary's layout into c.
func (c *clusterCkpt) UnmarshalBinary(p []byte) error {
	const what = "cluster"
	if len(p) < 8 {
		return malformed(what, "%d bytes, no leaf count", len(p))
	}
	n := le.Uint64(p)
	p = p[8:]
	if !fits(n, leafHdr+merge.BlockHeaderSize, len(p)) {
		return malformed(what, "%d leaves in %d bytes", n, len(p))
	}
	leaves := make([]leafState, n)
	for i := range leaves {
		if len(p) < leafHdr {
			return malformed(what, "leaf %d: %d bytes, header is %d", i, len(p), leafHdr)
		}
		w := func(k int) int64 { return int64(le.Uint64(p[8*k:])) }
		nOwned, nLabels, nRounds, sumLen := uint64(w(12)), uint64(w(13)), uint64(w(14)), uint64(w(15))
		body := p[leafHdr:]
		if !fits(nOwned, pointRec, len(body)) || !fits(nLabels, 4, len(body)-pointRec*int(nOwned)) ||
			!fits(nRounds, 8, len(body)-pointRec*int(nOwned)-4*int(nLabels)) ||
			!fits(sumLen, 1, len(body)-pointRec*int(nOwned)-4*int(nLabels)-8*int(nRounds)) {
			return malformed(what, "leaf %d: %d points, %d labels, %d rounds, %d summary bytes overrun the snapshot", i, nOwned, nLabels, nRounds, sumLen)
		}
		l := &leaves[i]
		l.GPUTime = time.Duration(w(0))
		l.Stats = gdbscan.Stats{
			DenseBoxes: int(w(1)), DenseBoxPoints: int(w(2)), CellCorePoints: int(w(3)), CellNonCorePoints: int(w(4)),
			SeedRounds: int(w(5)), Collisions: int(w(6)), BorderAttached: int(w(7)), CorePoints: int(w(8)),
			DeviceH2DBytes: w(9), DeviceD2HBytes: w(10), DeviceTransfers: w(11),
		}
		if nOwned > 0 {
			l.Owned, _ = ptio.DecodeRecords(body[:pointRec*nOwned], true) // whole records: counted above
			body = body[pointRec*nOwned:]
		}
		if nLabels > 0 {
			l.Labels = make([]int32, nLabels)
			for j := range l.Labels {
				l.Labels[j] = int32(le.Uint32(body[4*j:]))
			}
			body = body[4*nLabels:]
		}
		if nRounds > 0 {
			l.Stats.RoundTransferBytes = make([]int64, nRounds)
			for j := range l.Stats.RoundTransferBytes {
				l.Stats.RoundTransferBytes[j] = int64(le.Uint64(body[8*j:]))
			}
			body = body[8*nRounds:]
		}
		var err error
		if l.Summaries, err = merge.DecodeSummaries(body[:sumLen]); err != nil {
			return fmt.Errorf("mrscan: decoding %s snapshot: leaf %d: %w", what, i, err)
		}
		p = body[sumLen:]
	}
	if len(p) != 0 {
		return malformed(what, "%d trailing bytes", len(p))
	}
	*c = clusterCkpt{Leaves: leaves}
	return nil
}

// BinarySize is the length of AppendBinary's encoding.
func (m *mergeCkpt) BinarySize() int { return merge.BlockSize(m.Final) }

// AppendBinary appends the final summaries as one merge block.
func (m *mergeCkpt) AppendBinary(buf []byte) ([]byte, error) {
	return merge.AppendSummaries(buf, m.Final), nil
}

// UnmarshalBinary decodes AppendBinary's layout into m.
func (m *mergeCkpt) UnmarshalBinary(p []byte) error {
	final, err := merge.DecodeSummaries(p)
	if err != nil {
		return fmt.Errorf("mrscan: decoding merge snapshot: %w", err)
	}
	*m = mergeCkpt{Final: final}
	return nil
}
