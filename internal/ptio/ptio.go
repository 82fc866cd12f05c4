// Package ptio implements Mr. Scan's point file formats.
//
// The paper's pipeline starts "with a single input file on a parallel file
// system and writes a file of the points included in a cluster and their
// cluster IDs as output" (§3). Input points are "contained in a single
// binary or text file", each with "a unique ID number, coordinates, and an
// optional weight".
//
// Three on-disk forms are provided:
//
//   - MRSC binary dataset files: a fixed header followed by point records.
//   - MRSL binary labeled files: the sweep phase's output, point records
//     extended with a cluster ID.
//   - Plain text: "id x y [weight]" lines.
//
// Partition files written by the distributed partitioner are headerless
// concatenations of point records at offsets recorded in a JSON metadata
// document (§3.1.3: "the root generates a metadata file to specify the
// offset from which each partition starts in the output file").
package ptio

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bufpool"
	"repro/internal/geom"
)

// Magic values identifying the binary formats.
var (
	magicDataset = [4]byte{'M', 'R', 'S', 'C'}
	magicLabeled = [4]byte{'M', 'R', 'S', 'L'}
)

// Version is the current binary format version.
const Version = 1

// DatasetHeaderSize is the byte size of the MRSC (and MRSL) file header:
// magic, version, flags, record count.
const DatasetHeaderSize = 16

// Flag bits in the dataset header.
const (
	// FlagWeight indicates records carry the optional weight field.
	FlagWeight = 1 << 0

	// knownFlags masks every flag bit this version understands; anything
	// else in the flags field marks a file from a newer writer.
	knownFlags = FlagWeight
)

// DatasetHeader is the decoded MRSC file header.
type DatasetHeader struct {
	// HasWeight reports whether records carry the weight field — the
	// authoritative record format; callers must not trust out-of-band
	// configuration over this bit.
	HasWeight bool
	// Count is the record count the writer declared.
	Count int64
}

// ParseDatasetHeader validates and decodes a 16-byte MRSC header: magic,
// version, and flag bits are all checked so a torn, foreign, or
// newer-format file fails loudly instead of being misparsed into garbage
// coordinates.
func ParseDatasetHeader(hdr []byte) (DatasetHeader, error) {
	if len(hdr) < DatasetHeaderSize {
		return DatasetHeader{}, fmt.Errorf("ptio: dataset header is %d bytes, need %d", len(hdr), DatasetHeaderSize)
	}
	if [4]byte(hdr[:4]) != magicDataset {
		return DatasetHeader{}, fmt.Errorf("ptio: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != Version {
		return DatasetHeader{}, fmt.Errorf("ptio: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:])
	if unknown := flags &^ knownFlags; unknown != 0 {
		return DatasetHeader{}, fmt.Errorf("ptio: unknown header flags %#x", unknown)
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	if count > math.MaxInt64 {
		return DatasetHeader{}, fmt.Errorf("ptio: header count %d overflows int64", count)
	}
	return DatasetHeader{
		HasWeight: flags&FlagWeight != 0,
		Count:     int64(count),
	}, nil
}

// RecordSize returns the byte size of one point record.
func RecordSize(hasWeight bool) int {
	if hasWeight {
		return 8 + 8 + 8 + 8 // id, x, y, weight
	}
	return 8 + 8 + 8
}

// LabeledRecordSize is the byte size of one labeled output record
// (id, x, y, cluster).
const LabeledRecordSize = 8 + 8 + 8 + 8

// AppendRecord appends p's record to buf and returns the extended slice.
func AppendRecord(buf []byte, p geom.Point, hasWeight bool) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, p.ID)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
	if hasWeight {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Weight))
	}
	return buf
}

// EncodeRecords encodes pts as headerless records (partition file form).
func EncodeRecords(pts []geom.Point, hasWeight bool) []byte {
	buf := make([]byte, 0, len(pts)*RecordSize(hasWeight))
	for _, p := range pts {
		buf = AppendRecord(buf, p, hasWeight)
	}
	return buf
}

// DecodeRecords decodes headerless records. The byte length must be an
// exact multiple of the record size.
func DecodeRecords(data []byte, hasWeight bool) ([]geom.Point, error) {
	return AppendPoints(make([]geom.Point, 0, len(data)/RecordSize(hasWeight)), data, hasWeight)
}

// AppendPoints is DecodeRecords into a caller's slice: wire decoders
// cut many runs from one arena with it.
func AppendPoints(pts []geom.Point, data []byte, hasWeight bool) ([]geom.Point, error) {
	rs := RecordSize(hasWeight)
	if len(data)%rs != 0 {
		return nil, fmt.Errorf("ptio: %d bytes is not a multiple of record size %d", len(data), rs)
	}
	for off := 0; off < len(data); off += rs {
		p := geom.Point{
			ID: binary.LittleEndian.Uint64(data[off:]),
			X:  math.Float64frombits(binary.LittleEndian.Uint64(data[off+8:])),
			Y:  math.Float64frombits(binary.LittleEndian.Uint64(data[off+16:])),
		}
		if hasWeight {
			p.Weight = math.Float64frombits(binary.LittleEndian.Uint64(data[off+24:]))
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// reserve tells a writer that can size itself ahead (a bytes.Buffer, a
// lustre.Handle) how many bytes are coming, so a file whose length is
// known before its first byte is allocated once.
func reserve(w io.Writer, n int) {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(n)
	}
}

// bytesHeld returns how many bytes r says it holds (Len or Size), if it
// says: the bound an untrusted header count is capped by before anything
// is sized from it.
func bytesHeld(r io.Reader) (uint64, bool) {
	switch v := r.(type) {
	case interface{ Len() int }:
		return uint64(v.Len()), true
	case interface{ Size() int64 }:
		return uint64(max(v.Size(), 0)), true
	}
	return 0, false
}

// DatasetSize is the byte length of an MRSC file of n records.
func DatasetSize(n int, hasWeight bool) int { return DatasetHeaderSize + n*RecordSize(hasWeight) }

// AppendDataset appends a complete MRSC file (header + records) to buf,
// growing it at most once, to the exact size the file needs.
func AppendDataset(buf []byte, pts []geom.Point, hasWeight bool) []byte {
	buf = appendDatasetHeader(slices.Grow(buf, DatasetSize(len(pts), hasWeight)), len(pts), hasWeight)
	for _, p := range pts {
		buf = AppendRecord(buf, p, hasWeight)
	}
	return buf
}

func appendDatasetHeader(buf []byte, n int, hasWeight bool) []byte {
	buf = append(buf, magicDataset[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	var flags uint16
	if hasWeight {
		flags |= FlagWeight
	}
	buf = binary.LittleEndian.AppendUint16(buf, flags)
	return binary.LittleEndian.AppendUint64(buf, uint64(n))
}

// writeChunk is the size of every Write WriteDataset issues but the last.
// The simulated file system charges each Write as one operation, so the
// simulated times of every file written through it depend on this size.
const writeChunk = 1 << 16

// WriteDataset writes a complete MRSC file (header + records) to w, in
// writes of writeChunk bytes cut from the byte stream regardless of
// record boundaries, then one of the remainder. The staging chunk comes
// from bufpool.Bytes and goes back on return, which io.Writer's contract
// (Write keeps no reference to p) makes safe.
func WriteDataset(w io.Writer, pts []geom.Point, hasWeight bool) error {
	reserve(w, DatasetSize(len(pts), hasWeight))
	chunk := bufpool.Bytes.Get(writeChunk)
	defer bufpool.Bytes.Put(chunk)
	buf := appendDatasetHeader(chunk[:0:writeChunk], len(pts), hasWeight)
	var rec [32]byte
	for _, p := range pts {
		r := AppendRecord(rec[:0], p, hasWeight)
		n := copy(buf[len(buf):writeChunk], r)
		buf = buf[:len(buf)+n]
		if len(buf) == writeChunk {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("ptio: writing record %d: %w", p.ID, err)
			}
			buf = append(buf[:0], r[n:]...)
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("ptio: writing records: %w", err)
		}
	}
	return nil
}

// ReadDataset reads a complete MRSC file from r.
func ReadDataset(r io.Reader) ([]geom.Point, error) {
	held, said := bytesHeld(r)
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [DatasetHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("ptio: reading header: %w", err)
	}
	dh, err := ParseDatasetHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	hasWeight := dh.HasWeight
	count := uint64(dh.Count)
	rs := RecordSize(hasWeight)
	// The header count is untrusted input. The result is sized from it
	// once — capped by the bytes the reader says it holds, or by one batch
	// when it does not say, growing from there only with records actually
	// read — so a corrupt count cannot force a giant allocation.
	const batch = 1 << 16
	room := uint64(batch)
	if said {
		room = held / uint64(rs)
	}
	pts := make([]geom.Point, 0, min64(count, room))
	buf := make([]byte, min64(count, batch)*uint64(rs))
	for read := uint64(0); read < count; {
		n := min64(count-read, batch)
		chunk := buf[:n*uint64(rs)]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return nil, fmt.Errorf("ptio: reading records %d..%d of %d: %w", read, read+n, count, err)
		}
		if pts, err = AppendPoints(pts, chunk, hasWeight); err != nil {
			return nil, err
		}
		read += n
	}
	return pts, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// LabeledPoint is one record of the sweep phase's output.
type LabeledPoint struct {
	Point   geom.Point
	Cluster int64
}

// AppendLabeled appends one labeled record to buf.
func AppendLabeled(buf []byte, lp LabeledPoint) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, lp.Point.ID)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lp.Point.X))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lp.Point.Y))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(lp.Cluster))
	return buf
}

// DecodeLabeled decodes headerless labeled records.
func DecodeLabeled(data []byte) ([]LabeledPoint, error) {
	if len(data)%LabeledRecordSize != 0 {
		return nil, fmt.Errorf("ptio: %d bytes is not a multiple of labeled record size %d",
			len(data), LabeledRecordSize)
	}
	return appendLabeledRecords(make([]LabeledPoint, 0, len(data)/LabeledRecordSize), data), nil
}

// appendLabeledRecords decodes data, a whole number of labeled records,
// onto lps.
func appendLabeledRecords(lps []LabeledPoint, data []byte) []LabeledPoint {
	for i := 0; i < len(data)/LabeledRecordSize; i++ {
		lps = append(lps, LabeledAt(data, i))
	}
	return lps
}

// LabeledAt decodes record i of data, headerless labeled records: a
// reader that wants a field or two of each record decodes them where they
// lie instead of materialising a []LabeledPoint.
func LabeledAt(data []byte, i int) LabeledPoint {
	rec := data[i*LabeledRecordSize:][:LabeledRecordSize]
	return LabeledPoint{
		Point: geom.Point{
			ID: binary.LittleEndian.Uint64(rec),
			X:  math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
			Y:  math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
		},
		Cluster: int64(binary.LittleEndian.Uint64(rec[24:])),
	}
}

// LabeledCount checks a 16-byte MRSL header's magic and returns the
// record count it declares. The count is untrusted: compare it with the
// bytes actually present before sizing anything from it.
func LabeledCount(hdr []byte) (uint64, error) {
	if len(hdr) < DatasetHeaderSize {
		return 0, fmt.Errorf("ptio: labeled header is %d bytes, need %d", len(hdr), DatasetHeaderSize)
	}
	if [4]byte(hdr[:4]) != magicLabeled {
		return 0, fmt.Errorf("ptio: bad magic %q", hdr[:4])
	}
	return binary.LittleEndian.Uint64(hdr[8:]), nil
}

// LabeledHeader returns the 16-byte MRSL file header for count records.
// The sweep phase writes it at offset 0 while leaves write records at
// their assigned offsets in parallel.
func LabeledHeader(count int64) []byte {
	hdr := make([]byte, 16)
	copy(hdr[:4], magicLabeled[:])
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(count))
	return hdr
}

// WriteLabeled writes a complete MRSL file (header + records) to w.
func WriteLabeled(w io.Writer, pts []LabeledPoint) error {
	reserve(w, DatasetHeaderSize+len(pts)*LabeledRecordSize)
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [16]byte
	copy(hdr[:4], magicLabeled[:])
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(pts)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("ptio: writing header: %w", err)
	}
	var rec []byte
	for _, lp := range pts {
		rec = AppendLabeled(rec[:0], lp)
		if _, err := bw.Write(rec); err != nil {
			return fmt.Errorf("ptio: writing labeled record %d: %w", lp.Point.ID, err)
		}
	}
	return bw.Flush()
}

// ReadLabeled reads a complete MRSL file from r.
func ReadLabeled(r io.Reader) ([]LabeledPoint, error) {
	// The header count is untrusted input. The result is sized from it
	// once — capped by the bytes the reader says it holds, or by one batch
	// when it does not say, growing from there only with records actually
	// read — so a corrupt count cannot force a giant allocation.
	const batch = 1 << 16
	room := uint64(batch)
	if held, said := bytesHeld(r); said {
		room = held / LabeledRecordSize
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("ptio: reading header: %w", err)
	}
	count, err := LabeledCount(hdr[:])
	if err != nil {
		return nil, err
	}
	lps := make([]LabeledPoint, 0, min64(count, room))
	buf := make([]byte, min64(count, batch)*LabeledRecordSize)
	for read := uint64(0); read < count; {
		n := min64(count-read, batch)
		chunk := buf[:n*LabeledRecordSize]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return nil, fmt.Errorf("ptio: reading labeled records %d..%d of %d: %w", read, read+n, count, err)
		}
		lps = appendLabeledRecords(lps, chunk)
		read += n
	}
	return lps, nil
}

// WriteText writes points as "id x y [weight]" lines.
func WriteText(w io.Writer, pts []geom.Point, hasWeight bool) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for _, p := range pts {
		var err error
		if hasWeight {
			_, err = fmt.Fprintf(bw, "%d %g %g %g\n", p.ID, p.X, p.Y, p.Weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d %g %g\n", p.ID, p.X, p.Y)
		}
		if err != nil {
			return fmt.Errorf("ptio: writing text record %d: %w", p.ID, err)
		}
	}
	return bw.Flush()
}

// ReadText parses "id x y [weight]" lines. Blank lines and lines starting
// with '#' are skipped.
func ReadText(r io.Reader) ([]geom.Point, error) {
	var pts []geom.Point
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("ptio: line %d: expected 3 or 4 fields, got %d", lineNo, len(fields))
		}
		id, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ptio: line %d: bad id: %w", lineNo, err)
		}
		x, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("ptio: line %d: bad x: %w", lineNo, err)
		}
		y, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("ptio: line %d: bad y: %w", lineNo, err)
		}
		p := geom.Point{ID: id, X: x, Y: y}
		if len(fields) == 4 {
			w, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("ptio: line %d: bad weight: %w", lineNo, err)
			}
			p.Weight = w
		}
		pts = append(pts, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ptio: scanning: %w", err)
	}
	return pts, nil
}

// PartitionEntry locates one partition inside a partition file: the
// partition's own points followed by its shadow-region points.
type PartitionEntry struct {
	// Offset is the byte offset of the partition's records.
	Offset int64 `json:"offset"`
	// Count is the number of partition (non-shadow) points.
	Count int64 `json:"count"`
	// ShadowOffset and ShadowCount locate the shadow-region records.
	ShadowOffset int64 `json:"shadowOffset"`
	ShadowCount  int64 `json:"shadowCount"`
}

// PartitionMeta is the metadata document the partitioner root generates:
// one PartitionEntry per partition, locating its regions inside the single
// partition file ("the offset from which each partition starts", §3.1.3).
type PartitionMeta struct {
	Eps        float64          `json:"eps"`
	HasWeight  bool             `json:"hasWeight"`
	Partitions []PartitionEntry `json:"partitions"`
}

// Marshal encodes the metadata as JSON.
func (m *PartitionMeta) Marshal() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// UnmarshalPartitionMeta decodes a metadata document.
func UnmarshalPartitionMeta(data []byte) (*PartitionMeta, error) {
	var m PartitionMeta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("ptio: parsing partition metadata: %w", err)
	}
	return &m, nil
}
