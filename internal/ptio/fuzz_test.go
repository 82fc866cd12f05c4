package ptio

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/geom"
)

// The binary and text decoders consume external files; they must never
// panic on arbitrary input, and anything they accept must round-trip.

func FuzzReadDataset(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteDataset(&seed, []geom.Point{{ID: 1, X: 2, Y: 3}}, false); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	var weighted bytes.Buffer
	if err := WriteDataset(&weighted, []geom.Point{{ID: 1, X: 2, Y: 3, Weight: 4}}, true); err != nil {
		f.Fatal(err)
	}
	f.Add(weighted.Bytes())
	f.Add([]byte("MRSC garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must survive a round trip.
		var out bytes.Buffer
		if err := WriteDataset(&out, pts, false); err != nil {
			t.Fatalf("re-encoding accepted input failed: %v", err)
		}
		again, err := ReadDataset(&out)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if len(again) != len(pts) {
			t.Fatalf("round trip changed count: %d -> %d", len(pts), len(again))
		}
	})
}

// rawDatasetHeader assembles a 16-byte MRSC header with arbitrary
// version/flags/count, so seeds can sit just outside the valid space.
func rawDatasetHeader(version, flags uint16, count uint64) []byte {
	hdr := make([]byte, DatasetHeaderSize)
	copy(hdr, magicDataset[:])
	binary.LittleEndian.PutUint16(hdr[4:], version)
	binary.LittleEndian.PutUint16(hdr[6:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], count)
	return hdr
}

// FuzzParseDatasetHeader throws torn, bit-flipped, and foreign headers
// at the MRSC header parser directly. It must never panic, and any
// header it accepts must round-trip: re-encoding the decoded header
// reproduces the accepted bytes exactly, so no two distinct wire
// headers collapse into the same meaning and nothing invalid — unknown
// flags, a foreign version, an overflowing count — sneaks through.
func FuzzParseDatasetHeader(f *testing.F) {
	f.Add(rawDatasetHeader(Version, 0, 0))
	f.Add(rawDatasetHeader(Version, FlagWeight, 1<<40))
	f.Add(rawDatasetHeader(Version, 0, 1<<63))          // count overflows int64
	f.Add(rawDatasetHeader(Version, 0xfffe, 42))        // unknown flag bits
	f.Add(rawDatasetHeader(Version+1, 0, 7))            // newer writer
	f.Add(rawDatasetHeader(Version, FlagWeight, 5)[:7]) // torn mid-header
	flipped := rawDatasetHeader(Version, 0, 99)
	flipped[0] ^= 0x40 // single-bit magic flip
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseDatasetHeader(data)
		if err != nil {
			return
		}
		if h.Count < 0 {
			t.Fatalf("accepted header decoded to negative count %d", h.Count)
		}
		var flags uint16
		if h.HasWeight {
			flags = FlagWeight
		}
		want := rawDatasetHeader(Version, flags, uint64(h.Count))
		if !bytes.Equal(data[:DatasetHeaderSize], want) {
			t.Fatalf("accepted header % x decodes to %+v, which re-encodes to % x",
				data[:DatasetHeaderSize], h, want)
		}
	})
}

func FuzzReadText(f *testing.F) {
	f.Add("1 2.5 3.5\n")
	f.Add("# comment\n\n2 -1 -2 7\n")
	f.Add("not points at all")
	f.Add("1 2\n")
	f.Fuzz(func(t *testing.T, s string) {
		pts, err := ReadText(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, pts, true); err != nil {
			t.Fatalf("re-encoding accepted text failed: %v", err)
		}
		again, err := ReadText(&out)
		if err != nil {
			t.Fatalf("re-decoding failed: %v", err)
		}
		if len(again) != len(pts) {
			t.Fatalf("round trip changed count: %d -> %d", len(pts), len(again))
		}
	})
}

func FuzzDecodeLabeled(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendLabeled(nil, LabeledPoint{Point: geom.Point{ID: 9, X: 1, Y: 2}, Cluster: 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		lps, err := DecodeLabeled(data)
		if err != nil {
			return
		}
		var buf []byte
		for _, lp := range lps {
			buf = AppendLabeled(buf, lp)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("accepted labeled records do not round-trip")
		}
	})
}

func FuzzUnmarshalPartitionMeta(f *testing.F) {
	m := &PartitionMeta{Eps: 0.1, Partitions: []PartitionEntry{{Count: 3}}}
	seed, _ := m.Marshal()
	f.Add(seed)
	f.Add([]byte("{"))
	f.Add([]byte(`{"eps": "not a number"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		meta, err := UnmarshalPartitionMeta(data)
		if err != nil {
			return
		}
		if _, err := meta.Marshal(); err != nil {
			t.Fatalf("re-marshaling accepted metadata failed: %v", err)
		}
	})
}
