package ptio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
	"repro/internal/geom"
)

func samplePoints() []geom.Point {
	return []geom.Point{
		{ID: 0, X: 1.5, Y: -2.25, Weight: 1},
		{ID: 42, X: -180, Y: 90, Weight: 3.5},
		{ID: 1 << 40, X: 0.000125, Y: 1e-9, Weight: 0},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, hasWeight := range []bool{false, true} {
		pts := samplePoints()
		data := EncodeRecords(pts, hasWeight)
		if len(data) != len(pts)*RecordSize(hasWeight) {
			t.Fatalf("encoded %d bytes, want %d", len(data), len(pts)*RecordSize(hasWeight))
		}
		got, err := DecodeRecords(data, hasWeight)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			want := pts[i]
			if !hasWeight {
				want.Weight = 0
			}
			if got[i] != want {
				t.Errorf("hasWeight=%v: record %d = %+v, want %+v", hasWeight, i, got[i], want)
			}
		}
	}
}

func TestDecodeRecordsBadLength(t *testing.T) {
	if _, err := DecodeRecords(make([]byte, 25), false); err == nil {
		t.Error("misaligned record data must be rejected")
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	for _, hasWeight := range []bool{false, true} {
		var buf bytes.Buffer
		pts := samplePoints()
		if err := WriteDataset(&buf, pts, hasWeight); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDataset(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("read %d points, want %d", len(got), len(pts))
		}
		for i := range pts {
			want := pts[i]
			if !hasWeight {
				want.Weight = 0
			}
			if got[i] != want {
				t.Errorf("point %d = %+v, want %+v", i, got[i], want)
			}
		}
	}
}

func TestDatasetEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDataset(&buf, nil, false); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("read %d points from empty dataset", len(got))
	}
}

// bufioWriteDataset is WriteDataset as it was before it staged its
// writes in a pooled chunk: a 64 KiB bufio.Writer fed one record at a
// time. The new encoders are held to it.
func bufioWriteDataset(w io.Writer, pts []geom.Point, hasWeight bool) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [16]byte
	copy(hdr[:4], magicDataset[:])
	binary.LittleEndian.PutUint16(hdr[4:], Version)
	if hasWeight {
		binary.LittleEndian.PutUint16(hdr[6:], FlagWeight)
	}
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(pts)))
	bw.Write(hdr[:])
	for _, p := range pts {
		bw.Write(AppendRecord(nil, p, hasWeight))
	}
	return bw.Flush()
}

// writeRecorder keeps the bytes and the size of every Write.
type writeRecorder struct {
	data  []byte
	sizes []int
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// TestDatasetEncodersMatchBufio: AppendDataset appends the bytes the bufio
// writer wrote, DatasetSize of them, after whatever the buffer held, and
// WriteDataset writes them in the same sequence of Write sizes — what the
// simulated file system charges — from a dirty pooled chunk; weighted and
// not, at 0, 1 and 65 537 records (the last cuts records at 64 KiB chunk
// boundaries).
func TestDatasetEncodersMatchBufio(t *testing.T) {
	for _, hasWeight := range []bool{false, true} {
		for _, n := range []int{0, 1, 65_537} {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Point{ID: uint64(i) * 7919, X: float64(i) / 3, Y: -float64(i) * 1e-7, Weight: float64(i % 5)}
			}
			var old writeRecorder
			if err := bufioWriteDataset(&old, pts, hasWeight); err != nil {
				t.Fatal(err)
			}
			prefix := []byte("prefix")
			got := AppendDataset(slices.Clone(prefix), pts, hasWeight)
			if !bytes.Equal(got, append(prefix, old.data...)) || len(old.data) != DatasetSize(n, hasWeight) {
				t.Fatalf("hasWeight %v, %d records: AppendDataset differs from the bufio writer's %d bytes", hasWeight, n, len(old.data))
			}
			bufpool.Bytes.Put(bytes.Repeat([]byte{0xFF}, writeChunk))
			var w writeRecorder
			if err := WriteDataset(&w, pts, hasWeight); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.data, old.data) || !slices.Equal(w.sizes, old.sizes) {
				t.Fatalf("hasWeight %v, %d records: WriteDataset wrote %d bytes in writes %v, the bufio writer %d in %v",
					hasWeight, n, len(w.data), w.sizes, len(old.data), old.sizes)
			}
		}
	}
}

func TestReadDatasetBadMagic(t *testing.T) {
	if _, err := ReadDataset(strings.NewReader("NOTMRSCDATA12345")); err == nil {
		t.Error("bad magic must be rejected")
	}
}

func TestReadDatasetTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDataset(&buf, samplePoints(), false); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadDataset(bytes.NewReader(data)); err == nil {
		t.Error("truncated dataset must be rejected")
	}
}

func TestLabeledRoundTrip(t *testing.T) {
	lps := []LabeledPoint{
		{Point: geom.Point{ID: 1, X: 2, Y: 3}, Cluster: 0},
		{Point: geom.Point{ID: 2, X: -2, Y: -3}, Cluster: 99},
		{Point: geom.Point{ID: 3, X: 0, Y: 0}, Cluster: -1}, // noise
	}
	var buf bytes.Buffer
	if err := WriteLabeled(&buf, lps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLabeled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lps) {
		t.Fatalf("read %d labeled points, want %d", len(got), len(lps))
	}
	for i := range lps {
		want := lps[i]
		want.Point.Weight = 0 // labeled records do not carry weight
		if got[i] != want {
			t.Errorf("labeled %d = %+v, want %+v", i, got[i], want)
		}
	}
}

// labeledFile encodes n labeled records behind a header claiming count.
func labeledFile(n int, count int64) []byte {
	data := LabeledHeader(count)
	for i := 0; i < n; i++ {
		data = AppendLabeled(data, LabeledPoint{Point: geom.Point{ID: uint64(i), X: float64(i), Y: -float64(i)}, Cluster: int64(i % 7)})
	}
	return data
}

// sizedReader tells ReadLabeled its size the way a lustre.Handle does;
// bareReader hides bytes.Reader's Len and Size, like a pipe or a socket.
type sizedReader struct {
	io.Reader
	size int64
}

func (r sizedReader) Size() int64 { return r.size }

type bareReader struct{ io.Reader }

// TestReadLabeledSizesResultOnce: a well-formed file lands in one slice
// sized from the header — through a reader that reports Len, one that
// reports Size and one that reports nothing — with every record in place
// across the 64 Ki batch boundary.
func TestReadLabeledSizesResultOnce(t *testing.T) {
	const n = 1<<16 + 1000
	data := labeledFile(n, n)
	for name, open := range map[string]func() io.Reader{
		"Len":  func() io.Reader { return bytes.NewReader(data) },
		"Size": func() io.Reader { return sizedReader{bareReader{bytes.NewReader(data)}, int64(len(data))} },
		"bare": func() io.Reader { return bareReader{bytes.NewReader(data)} },
	} {
		got, err := ReadLabeled(open())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != n {
			t.Fatalf("%s: read %d records, want %d", name, len(got), n)
		}
		for _, i := range []int{0, 1<<16 - 1, 1 << 16, n - 1} {
			want := LabeledPoint{Point: geom.Point{ID: uint64(i), X: float64(i), Y: -float64(i)}, Cluster: int64(i % 7)}
			if got[i] != want {
				t.Errorf("%s: record %d = %+v, want %+v", name, i, got[i], want)
			}
		}
		if name != "bare" && cap(got) != n {
			t.Errorf("%s: result has capacity %d, want exactly the header's %d", name, cap(got), n)
		}
	}
}

// TestReadLabeledHostileHeader: a header count the bytes do not back —
// a file torn mid-record, or a count of 2⁶⁰ in front of three records —
// is an error, and costs memory in proportion to the bytes present (one
// batch when the reader cannot say how many that is), not to the count.
func TestReadLabeledHostileHeader(t *testing.T) {
	torn := labeledFile(100, 100)
	torn = torn[:len(torn)-5]
	huge := labeledFile(3, 1<<60)
	const batchBytes = (1 << 16) * (LabeledRecordSize + 40) // one batch: its read buffer and its records
	for name, tc := range map[string]struct {
		data   []byte
		open   func(data []byte) io.Reader
		budget uint64
	}{
		"torn/Len":  {torn, func(d []byte) io.Reader { return bytes.NewReader(d) }, 1 << 16},
		"torn/bare": {torn, func(d []byte) io.Reader { return bareReader{bytes.NewReader(d)} }, 1 << 16},
		"huge/Len":  {huge, func(d []byte) io.Reader { return bytes.NewReader(d) }, batchBytes},
		"huge/Size": {huge, func(d []byte) io.Reader { return sizedReader{bareReader{bytes.NewReader(d)}, int64(len(d))} }, batchBytes},
		"huge/bare": {huge, func(d []byte) io.Reader { return bareReader{bytes.NewReader(d)} }, 2 * batchBytes},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadLabeled(tc.open(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a header count the file does not hold must be rejected", name)
		}
		// 64 KiB of bufio buffer rides on every call.
		if spent := after.TotalAlloc - before.TotalAlloc; spent > tc.budget+(1<<17) {
			t.Errorf("%s: allocated %d bytes for a %d-byte file, budget %d", name, spent, len(tc.data), tc.budget+(1<<17))
		}
	}
}

// datasetFile encodes n unweighted records behind a header claiming count.
func datasetFile(n int, count uint64) []byte {
	data := rawDatasetHeader(Version, 0, count)
	for i := 0; i < n; i++ {
		data = AppendRecord(data, geom.Point{ID: uint64(i), X: float64(i), Y: -float64(i)}, false)
	}
	return data
}

// TestReadDatasetSizesResultOnce is ReadLabeled's contract for its twin: a
// well-formed file lands in one slice sized from the header when the
// reader says what it holds, every record in place across the batch
// boundary — and a ten-record file costs ten records, not a 1.5 MiB batch
// buffer.
func TestReadDatasetSizesResultOnce(t *testing.T) {
	const n = 1<<16 + 1000
	data := datasetFile(n, n)
	for name, open := range map[string]func() io.Reader{
		"Len":  func() io.Reader { return bytes.NewReader(data) },
		"Size": func() io.Reader { return sizedReader{bareReader{bytes.NewReader(data)}, int64(len(data))} },
		"bare": func() io.Reader { return bareReader{bytes.NewReader(data)} },
	} {
		got, err := ReadDataset(open())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != n {
			t.Fatalf("%s: read %d records, want %d", name, len(got), n)
		}
		for _, i := range []int{0, 1<<16 - 1, 1 << 16, n - 1} {
			if want := (geom.Point{ID: uint64(i), X: float64(i), Y: -float64(i)}); got[i] != want {
				t.Errorf("%s: record %d = %+v, want %+v", name, i, got[i], want)
			}
		}
		if name != "bare" && cap(got) != n {
			t.Errorf("%s: result has capacity %d, want exactly the header's %d", name, cap(got), n)
		}
	}
	small := datasetFile(10, 10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if pts, err := ReadDataset(bytes.NewReader(small)); err != nil || len(pts) != 10 {
		t.Fatalf("ten-record file: %d points, %v", len(pts), err)
	}
	runtime.ReadMemStats(&after)
	// The 64 KiB bufio buffer, ten records and their ten points.
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<17 {
		t.Errorf("reading a ten-record file allocated %d bytes", spent)
	}
}

// TestReadDatasetHostileHeader: the untrusted-count rule — memory grows
// with the bytes present, not with the count the header claims.
func TestReadDatasetHostileHeader(t *testing.T) {
	torn := datasetFile(100, 100)
	torn = torn[:len(torn)-5]
	huge := datasetFile(3, 1<<60)
	const batchBytes = (1 << 16) * (24 + 32) // one batch: its read buffer and its points
	for name, tc := range map[string]struct {
		data   []byte
		open   func(data []byte) io.Reader
		budget uint64
	}{
		"torn/Len":  {torn, func(d []byte) io.Reader { return bytes.NewReader(d) }, 1 << 16},
		"torn/bare": {torn, func(d []byte) io.Reader { return bareReader{bytes.NewReader(d)} }, 1 << 16},
		"huge/Len":  {huge, func(d []byte) io.Reader { return bytes.NewReader(d) }, batchBytes},
		"huge/Size": {huge, func(d []byte) io.Reader { return sizedReader{bareReader{bytes.NewReader(d)}, int64(len(d))} }, batchBytes},
		"huge/bare": {huge, func(d []byte) io.Reader { return bareReader{bytes.NewReader(d)} }, 2 * batchBytes},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadDataset(tc.open(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a header count the file does not hold must be rejected", name)
		}
		// 64 KiB of bufio buffer rides on every call.
		if spent := after.TotalAlloc - before.TotalAlloc; spent > tc.budget+(1<<17) {
			t.Errorf("%s: allocated %d bytes for a %d-byte file, budget %d", name, spent, len(tc.data), tc.budget+(1<<17))
		}
	}
}

func TestLabeledHeaderMatchesWriter(t *testing.T) {
	// The sweep phase writes the header with LabeledHeader while leaves
	// write records at offsets; the result must parse exactly like a
	// WriteLabeled file.
	lps := []LabeledPoint{
		{Point: geom.Point{ID: 1, X: 2, Y: 3}, Cluster: 0},
		{Point: geom.Point{ID: 2, X: 4, Y: 5}, Cluster: 1},
	}
	var manual bytes.Buffer
	manual.Write(LabeledHeader(int64(len(lps))))
	for _, lp := range lps {
		manual.Write(AppendLabeled(nil, lp))
	}
	got, err := ReadLabeled(&manual)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Point.ID != 1 || got[1].Cluster != 1 {
		t.Errorf("parsed %+v", got)
	}
}

func TestTextRoundTrip(t *testing.T) {
	for _, hasWeight := range []bool{false, true} {
		var buf bytes.Buffer
		pts := samplePoints()
		if err := WriteText(&buf, pts, hasWeight); err != nil {
			t.Fatal(err)
		}
		got, err := ReadText(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			want := pts[i]
			if !hasWeight {
				want.Weight = 0
			}
			if got[i] != want {
				t.Errorf("hasWeight=%v: text point %d = %+v, want %+v", hasWeight, i, got[i], want)
			}
		}
	}
}

func TestReadTextSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1 2.5 3.5\n  \n# more\n2 -1 -2 7\n"
	got, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d points, want 2", len(got))
	}
	if got[1].Weight != 7 {
		t.Errorf("weight = %v, want 7", got[1].Weight)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"1 2\n",       // too few fields
		"1 2 3 4 5\n", // too many fields
		"x 2 3\n",     // bad id
		"1 x 3\n",     // bad x
		"1 2 x\n",     // bad y
		"1 2 3 x\n",   // bad weight
		"-1 2 3\n",    // negative id
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("input %q must be rejected", in)
		}
	}
}

func TestPartitionMetaRoundTrip(t *testing.T) {
	m := &PartitionMeta{
		Eps:       0.1,
		HasWeight: true,
		Partitions: []PartitionEntry{
			{Offset: 0, Count: 10, ShadowOffset: 240, ShadowCount: 3},
			{Offset: 312, Count: 20, ShadowOffset: 792, ShadowCount: 0},
		},
	}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPartitionMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Eps != m.Eps || !got.HasWeight || len(got.Partitions) != 2 {
		t.Errorf("round trip = %+v", got)
	}
	if got.Partitions[1] != m.Partitions[1] {
		t.Errorf("partition entry = %+v, want %+v", got.Partitions[1], m.Partitions[1])
	}
	if _, err := UnmarshalPartitionMeta([]byte("{bad")); err == nil {
		t.Error("bad JSON must be rejected")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(ids []uint64, coords []float64) bool {
		n := len(ids)
		if len(coords)/2 < n {
			n = len(coords) / 2
		}
		pts := make([]geom.Point, 0, n)
		for i := 0; i < n; i++ {
			x, y := coords[2*i], coords[2*i+1]
			if x != x || y != y { // skip NaN: NaN != NaN breaks equality checks
				continue
			}
			pts = append(pts, geom.Point{ID: ids[i], X: x, Y: y})
		}
		data := EncodeRecords(pts, false)
		got, err := DecodeRecords(data, false)
		if err != nil || len(got) != len(pts) {
			return false
		}
		for i := range pts {
			if got[i] != pts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDatasetHeaderValid(t *testing.T) {
	for _, hasWeight := range []bool{false, true} {
		var buf bytes.Buffer
		if err := WriteDataset(&buf, samplePoints(), hasWeight); err != nil {
			t.Fatal(err)
		}
		dh, err := ParseDatasetHeader(buf.Bytes()[:DatasetHeaderSize])
		if err != nil {
			t.Fatalf("hasWeight=%v: %v", hasWeight, err)
		}
		if dh.HasWeight != hasWeight {
			t.Errorf("HasWeight = %v, want %v", dh.HasWeight, hasWeight)
		}
		if dh.Count != int64(len(samplePoints())) {
			t.Errorf("Count = %d, want %d", dh.Count, len(samplePoints()))
		}
	}
}

func TestParseDatasetHeaderRejects(t *testing.T) {
	var good bytes.Buffer
	if err := WriteDataset(&good, samplePoints(), false); err != nil {
		t.Fatal(err)
	}
	hdr := func() []byte {
		return append([]byte(nil), good.Bytes()[:DatasetHeaderSize]...)
	}
	cases := []struct {
		name string
		hdr  []byte
		want string
	}{
		{"empty", nil, "need 16"},
		{"one byte", hdr()[:1], "need 16"},
		{"fifteen bytes", hdr()[:15], "need 16"},
		{"bad magic", append([]byte("JUNK"), hdr()[4:]...), "bad magic"},
		{"future version", func() []byte {
			h := hdr()
			h[4], h[5] = 0xFF, 0xFF
			return h
		}(), "unsupported version"},
		{"unknown flags", func() []byte {
			h := hdr()
			h[6] |= 0x80
			return h
		}(), "unknown header flags"},
		{"count overflow", func() []byte {
			h := hdr()
			for i := 8; i < 16; i++ {
				h[i] = 0xFF
			}
			return h
		}(), "overflows"},
	}
	for _, c := range cases {
		_, err := ParseDatasetHeader(c.hdr)
		if err == nil {
			t.Errorf("%s: accepted, want error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}
}
