package stream

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// oddPoints carries every float class a record must keep bit for bit.
var oddPoints = []geom.Point{
	{ID: 0, X: 0, Y: math.Copysign(0, -1)},
	{ID: math.MaxUint64, X: math.Inf(1), Y: math.Inf(-1), Weight: 2.5},
	{ID: 42, X: math.Float64frombits(0x7ff8_dead_beef_0001), Y: math.SmallestNonzeroFloat64, Weight: math.Float64frombits(0xfff0_0000_0000_0007)},
	{ID: 7, X: 0.1, Y: -math.MaxFloat64, Weight: -1},
}

func samePointBits(a, b geom.Point) bool {
	return a.ID == b.ID && math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) && math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
}

// TestTickRecordsRoundTrip: a tick's records are BinarySize bytes and
// decode to the same tick and the same bits of every point.
func TestTickRecordsRoundTrip(t *testing.T) {
	for _, ta := range []TickArrivals{
		{Tick: 1},
		{Tick: 9, Points: oddPoints},
		{Tick: 1 << 40, Points: dataset.Firehose(1, 500, 3, dataset.DefaultFirehoseOptions())[0]},
	} {
		b, err := ta.AppendBinary([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		b = b[len("prefix"):]
		if len(b) != ta.BinarySize() {
			t.Fatalf("tick %d: %d bytes, BinarySize %d", ta.Tick, len(b), ta.BinarySize())
		}
		var got TickArrivals
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("tick %d: %v", ta.Tick, err)
		}
		if got.Tick != ta.Tick || !slices.EqualFunc(got.Points, ta.Points, samePointBits) {
			t.Fatalf("tick %d decoded as tick %d with %d points, want %d points bit for bit", ta.Tick, got.Tick, len(got.Points), len(ta.Points))
		}
	}
}

// TestTickRecordsRefused: a short buffer, a count the records overrun or
// underrun, and a partial record are each ErrCorrupt.
func TestTickRecordsRefused(t *testing.T) {
	good, _ := TickArrivals{Tick: 3, Points: oddPoints[:2]}.MarshalBinary()
	overcount := slices.Clone(good)
	binary.LittleEndian.PutUint64(overcount[8:], 3)
	undercount := slices.Clone(good)
	binary.LittleEndian.PutUint64(undercount[8:], 1)
	for name, b := range map[string][]byte{
		"empty":           nil,
		"short header":    good[:tickHeader-1],
		"count overruns":  overcount,
		"count underruns": undercount,
		"partial record":  good[:len(good)-1],
		"trailing byte":   append(slices.Clone(good), 0),
	} {
		var ta TickArrivals
		if err := ta.UnmarshalBinary(b); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
}

// TestWindowStateGob: a whole WindowState still round-trips through gob,
// each tick carried as its records.
func TestWindowStateGob(t *testing.T) {
	ws := WindowState{Tick: 5, Ticks: []TickArrivals{{Tick: 4, Points: oddPoints}, {Tick: 5, Points: oddPoints[1:]}}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ws); err != nil {
		t.Fatal(err)
	}
	var got WindowState
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Tick != ws.Tick || len(got.Ticks) != len(ws.Ticks) {
		t.Fatalf("decoded tick %d with %d ticks, want %d with %d", got.Tick, len(got.Ticks), ws.Tick, len(ws.Ticks))
	}
	for i := range ws.Ticks {
		if got.Ticks[i].Tick != ws.Ticks[i].Tick || !slices.EqualFunc(got.Ticks[i].Points, ws.Ticks[i].Points, samePointBits) {
			t.Fatalf("tick %d does not round-trip", ws.Ticks[i].Tick)
		}
	}
}

// FuzzTickRecords: no input panics the decoder; one whose size does not
// match its count is refused with ErrCorrupt; one it accepts re-encodes
// to the same bytes, and loses or gains a byte only to be refused.
func FuzzTickRecords(f *testing.F) {
	for _, ta := range []TickArrivals{{Tick: 1}, {Tick: 12, Points: oddPoints}, {Tick: -3, Points: oddPoints[:1]}} {
		b, _ := ta.MarshalBinary()
		f.Add(b)
	}
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ta TickArrivals
		err := ta.UnmarshalBinary(data)
		sized := len(data) >= tickHeader && (len(data)-tickHeader)%tickRecord == 0 &&
			binary.LittleEndian.Uint64(data[8:]) == uint64((len(data)-tickHeader)/tickRecord)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("refused with %v, want ErrCorrupt", err)
			}
			return
		}
		if !sized {
			t.Fatalf("accepted %d bytes whose size does not match their count", len(data))
		}
		again, err := ta.AppendBinary(nil)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted bytes re-encode differently (%v)", err)
		}
		for _, b := range [][]byte{data[:len(data)-1], append(slices.Clone(data), 0)} {
			if (&TickArrivals{}).UnmarshalBinary(b) == nil {
				t.Fatalf("accepted %d bytes and also %d", len(data), len(b))
			}
		}
	})
}
