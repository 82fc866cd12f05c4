package merge

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/integrity"
	"repro/internal/ptio"
)

// SummarySchema versions Summary's Go shape for checkpoint run IDs. gob
// matches fields by name and skips what it cannot place, so a snapshot of
// another shape decodes into summaries with cells missing — silently,
// unless a reused field name happens to clash in type (schema 1's Cells,
// a map of cells each holding two maps of non-core points, does). Runs
// fingerprint this constant instead of relying on that, and recompute.
// It versions the cells' geometry too: schema 3 keys cells of grid.New's
// side Eps·(1 + 2⁻²⁰), schema 2 of side Eps, and a run must not merge
// summaries restored under one with summaries built under the other.
const SummarySchema = 3

// ClusterKey names a leaf-local cluster globally.
type ClusterKey struct {
	Leaf  int32
	Local int32
}

// Compare orders keys by leaf, then local id.
func (k ClusterKey) Compare(o ClusterKey) int {
	if c := cmp.Compare(k.Leaf, o.Leaf); c != 0 {
		return c
	}
	return cmp.Compare(k.Local, o.Local)
}

// Less reports whether k orders before o.
func (k ClusterKey) Less(o ClusterKey) bool { return k.Compare(o) < 0 }

// Cell is one cluster's presence in one grid cell: a run of the summary's
// Points holding NReps representative core points (at most MaxReps), then
// the non-core members classified by the cell's owner (complete-
// information) view, then those classified by shadow (incomplete-
// information) views — each sorted by point ID, no ID twice in a run.
type Cell struct {
	Coord grid.Coord
	// Start is the run's offset in Summary.Points. Runs follow cell order
	// but need not touch: Combine's rule 3 shrinks a shadow run in place.
	Start                                int32
	NReps, NOwnedNonCore, NShadowNonCore int32
	// Owned reports whether this summary includes the owner leaf's copy
	// of the cell.
	Owned bool
}

// Summary is one cluster's merge-phase representation. It stays a plain
// value with exported fields: checkpoints gob-encode it.
type Summary struct {
	// Key identifies the summary; after merging it is the smallest
	// member key.
	Key ClusterKey
	// Members lists, sorted, every original (leaf, local) cluster merged
	// into this summary — the sweep phase maps each back to the global ID.
	Members []ClusterKey
	// Cells is sorted by Coord.Key(), one entry per cell.
	Cells []Cell
	// Points backs the cells' runs.
	Points []geom.Point
}

// run returns n points of c's run starting skip points in, capped so an
// append cannot reach the next run.
func (s *Summary) run(c *Cell, skip, n int32) []geom.Point {
	lo := c.Start + skip
	return s.Points[lo : lo+n : lo+n]
}

// Reps returns c's representative core points.
func (s *Summary) Reps(c *Cell) []geom.Point { return s.run(c, 0, c.NReps) }

// OwnedNonCore returns c's owner-view non-core points.
func (s *Summary) OwnedNonCore(c *Cell) []geom.Point { return s.run(c, c.NReps, c.NOwnedNonCore) }

// ShadowNonCore returns c's shadow-view non-core points.
func (s *Summary) ShadowNonCore(c *Cell) []geom.Point {
	return s.run(c, c.NReps+c.NOwnedNonCore, c.NShadowNonCore)
}

// Encoded sizes of the summaries block (docs/FORMATS.md): a block header
// (summary, member, cell and point totals), then per summary a header
// (key, member count, cell count), its member keys, its cell records (cx,
// cy, NReps<<1|owned, NOwnedNonCore, NShadowNonCore) and the cells' runs
// as weightless ptio point records.
const (
	BlockHeaderSize = 16 // what AppendSummaries adds to Σ WireSize
	summaryHdrLen   = 16
	keyLen          = 8
	cellRecLen      = 20
	pointRecLen     = 24
)

// points is the number of points in c's run.
func (c *Cell) points() int32 { return c.NReps + c.NOwnedNonCore + c.NShadowNonCore }

// WireSize returns the summary's exact encoded size in bytes inside an
// AppendSummaries block; the overlay cost model charges it.
func (s *Summary) WireSize() int64 {
	n := int64(summaryHdrLen + keyLen*len(s.Members) + cellRecLen*len(s.Cells))
	for i := range s.Cells {
		n += pointRecLen * int64(s.Cells[i].points())
	}
	return n
}

// BlockSize returns the exact length of sums' AppendSummaries block.
func BlockSize(sums []*Summary) int {
	n := BlockHeaderSize
	for _, s := range sums {
		n += int(s.WireSize())
	}
	return n
}

var le = binary.LittleEndian

func appendKey(buf []byte, k ClusterKey) []byte {
	return le.AppendUint32(le.AppendUint32(buf, uint32(k.Leaf)), uint32(k.Local))
}

func keyAt(p []byte) ClusterKey {
	return ClusterKey{Leaf: int32(le.Uint32(p)), Local: int32(le.Uint32(p[4:]))}
}

// AppendSummaries appends the block encoding sums to buf. Every value has
// one encoding: the sorted order of members, cells and runs is part of
// the format, and DecodeSummaries rejects anything else.
func AppendSummaries(buf []byte, sums []*Summary) []byte {
	hdr := len(buf)
	buf = append(buf, make([]byte, BlockHeaderSize)...)
	var nMembers, nCells, nPoints int
	for _, s := range sums {
		buf = appendKey(buf, s.Key)
		buf = le.AppendUint32(le.AppendUint32(buf, uint32(len(s.Members))), uint32(len(s.Cells)))
		for _, m := range s.Members {
			buf = appendKey(buf, m)
		}
		for i := range s.Cells {
			c := &s.Cells[i]
			flags := uint32(c.NReps) << 1
			if c.Owned {
				flags |= 1
			}
			buf = le.AppendUint32(le.AppendUint32(buf, uint32(c.Coord.CX)), uint32(c.Coord.CY))
			buf = le.AppendUint32(buf, flags)
			buf = le.AppendUint32(le.AppendUint32(buf, uint32(c.NOwnedNonCore)), uint32(c.NShadowNonCore))
		}
		for i := range s.Cells {
			c := &s.Cells[i]
			for _, p := range s.run(c, 0, c.points()) {
				buf = ptio.AppendRecord(buf, p, false)
			}
			nPoints += int(c.points())
		}
		nMembers, nCells = nMembers+len(s.Members), nCells+len(s.Cells)
	}
	for i, n := range [...]int{len(sums), nMembers, nCells, nPoints} {
		le.PutUint32(buf[hdr+4*i:], uint32(n))
	}
	return buf
}

func malformed(format string, args ...any) error {
	return fmt.Errorf("merge: summaries block: %s: %w", fmt.Sprintf(format, args...), integrity.ErrMalformed)
}

// DecodeSummaries decodes a whole AppendSummaries block. Every record is
// fixed-size, so the header's totals must account for the block's length
// exactly — a hostile count fails there, before anything is allocated —
// and every summary's members, cells and points are then cut from three
// arrays of those totals. The result aliases nothing in p.
func DecodeSummaries(p []byte) ([]*Summary, error) {
	if len(p) < BlockHeaderSize {
		return nil, malformed("%d bytes, no header", len(p))
	}
	n, nMembers, nCells, nPoints := uint64(le.Uint32(p)), uint64(le.Uint32(p[4:])), uint64(le.Uint32(p[8:])), uint64(le.Uint32(p[12:]))
	if BlockHeaderSize+n*summaryHdrLen+nMembers*keyLen+nCells*cellRecLen+nPoints*pointRecLen != uint64(len(p)) {
		return nil, malformed("%d summaries, %d members, %d cells, %d points do not make %d bytes", n, nMembers, nCells, nPoints, len(p))
	}
	if n == 0 && len(p) == BlockHeaderSize { // else: totals with no summary to hold them, refused below
		return nil, nil
	}
	sums, out := make([]Summary, n), make([]*Summary, n)
	members := make([]ClusterKey, 0, nMembers)
	cells := make([]Cell, 0, nCells)
	points := make([]geom.Point, 0, nPoints)
	off := BlockHeaderSize
	for i := range sums {
		s := &sums[i]
		s.Key = keyAt(p[off:])
		m, c := int(le.Uint32(p[off+8:])), int(le.Uint32(p[off+12:]))
		off += summaryHdrLen
		mlo, clo, plo := len(members), len(cells), len(points)
		if m > cap(members)-mlo || c > cap(cells)-clo {
			return nil, malformed("summary %d: %d members, %d cells exceed the block's totals", i, m, c)
		}
		for ; m > 0; m, off = m-1, off+keyLen {
			members = append(members, keyAt(p[off:]))
		}
		var start int64
		for ; c > 0; c, off = c-1, off+cellRecLen {
			cell := Cell{
				Coord: grid.Coord{CX: int32(le.Uint32(p[off:])), CY: int32(le.Uint32(p[off+4:]))},
				Start: int32(start), NReps: int32(le.Uint32(p[off+8:]) >> 1), Owned: p[off+8]&1 != 0,
				NOwnedNonCore: int32(le.Uint32(p[off+12:])), NShadowNonCore: int32(le.Uint32(p[off+16:])),
			}
			start += int64(le.Uint32(p[off+8:])>>1) + int64(le.Uint32(p[off+12:])) + int64(le.Uint32(p[off+16:]))
			if start > int64(cap(points)-plo) {
				return nil, malformed("summary %d: its points exceed the block's total", i)
			}
			cells = append(cells, cell)
		}
		points, _ = ptio.AppendPoints(points, p[off:off+int(start)*pointRecLen], false) // a whole number of records
		off += int(start) * pointRecLen
		s.Members = members[mlo:len(members):len(members)]
		s.Cells = cells[clo:len(cells):len(cells)]
		s.Points = points[plo:len(points):len(points)]
		if err := s.checkCanonical(); err != nil {
			return nil, err
		}
		out[i] = s
	}
	if off != len(p) {
		return nil, malformed("summaries fall %d bytes short of the block's totals", len(p)-off)
	}
	return out, nil
}

// checkCanonical rejects a decoded summary whose members, cells or runs
// are not strictly ascending — the order Combine's joins rely on.
func (s *Summary) checkCanonical() error {
	for i := 1; i < len(s.Members); i++ {
		if s.Members[i-1].Compare(s.Members[i]) >= 0 {
			return malformed("summary %v: members out of order", s.Key)
		}
	}
	for i := range s.Cells {
		c := &s.Cells[i]
		if i > 0 && s.Cells[i-1].Coord.Key() >= c.Coord.Key() {
			return malformed("summary %v: cells out of order at %v", s.Key, c.Coord)
		}
		for _, run := range [3][]geom.Point{s.Reps(c), s.OwnedNonCore(c), s.ShadowNonCore(c)} {
			for j := 1; j < len(run); j++ {
				if run[j-1].ID >= run[j].ID {
					return malformed("summary %v: %v: point IDs out of order", s.Key, c.Coord)
				}
			}
		}
	}
	return nil
}
