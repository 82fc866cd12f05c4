package stream

import (
	"encoding/binary"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/ptio"
)

// A tick's arrivals as the server's stream store keeps them
// (docs/FORMATS.md "Stream tick records"): a 16-byte header, the tick
// number and the point count as little-endian 64-bit words, then one
// ptio weighted record (id, x, y, weight: 32 bytes) per point, so every
// bit of a geom.Point round-trips. TickArrivals is a checkpoint.Records
// payload, encoded into one recycled buffer per save, and an
// encoding.BinaryMarshaler, so gob carries each tick of a WindowState as
// these bytes too.
const (
	tickHeader = 16
	tickRecord = 32
)

var _ checkpoint.Records = TickArrivals{}

// BinarySize is the length of AppendBinary's encoding.
func (ta TickArrivals) BinarySize() int { return tickHeader + tickRecord*len(ta.Points) }

// AppendBinary appends the header and one record per point to b.
func (ta TickArrivals) AppendBinary(b []byte) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, uint64(ta.Tick))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ta.Points)))
	for _, p := range ta.Points {
		b = ptio.AppendRecord(b, p, true)
	}
	return b, nil
}

// MarshalBinary is AppendBinary into a buffer of its own.
func (ta TickArrivals) MarshalBinary() ([]byte, error) {
	return ta.AppendBinary(make([]byte, 0, ta.BinarySize()))
}

// UnmarshalBinary decodes AppendBinary's layout into ta, its points into
// a new slice. A buffer shorter than the header, a count its records do
// not fill and bytes past the last record are refused with
// checkpoint.ErrCorrupt, so each value has one encoding.
func (ta *TickArrivals) UnmarshalBinary(b []byte) error {
	if len(b) < tickHeader {
		return fmt.Errorf("%w: stream tick: %d bytes, header is %d", checkpoint.ErrCorrupt, len(b), tickHeader)
	}
	tick := int64(binary.LittleEndian.Uint64(b))
	n := binary.LittleEndian.Uint64(b[8:])
	body := b[tickHeader:]
	switch left := uint64(len(body) / tickRecord); {
	case n > left:
		return fmt.Errorf("%w: stream tick: %d points in %d bytes", checkpoint.ErrCorrupt, n, len(body))
	case n < left || len(body)%tickRecord != 0:
		return fmt.Errorf("%w: stream tick: %d bytes past %d points", checkpoint.ErrCorrupt, len(body)-tickRecord*int(n), n)
	case int64(int(tick)) != tick:
		return fmt.Errorf("%w: stream tick: tick %d overflows int", checkpoint.ErrCorrupt, tick)
	}
	pts, err := ptio.DecodeRecords(body, true)
	if err != nil {
		return fmt.Errorf("%w: stream tick: %v", checkpoint.ErrCorrupt, err)
	}
	*ta = TickArrivals{Tick: int(tick), Points: pts}
	return nil
}
