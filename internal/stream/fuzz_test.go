package stream

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// FuzzStreamTicks drives the engine with ticks decoded from the fuzzer's
// bytes and holds every tick's labels to canonicalLabels (and to batch
// DBSCAN and the storage invariants, through checkSnapshot).
//
// The first two bytes pick MinPts (1–9) and the window W (1–4). Then
// each tick is a count byte n (0–15) and n points of three bytes: two
// coordinates on a 16×16 lattice of step Eps/3 and a jitter byte whose
// bit pairs move x and y one ulp down, up or not at all. With Eps = 0.75
// the lattice is exact in binary, so three steps are exactly Eps and the
// closed neighbourhood's edge is hit head-on, and one ulp either side of
// it. At most eight ticks are decoded.
func FuzzStreamTicks(f *testing.F) {
	f.Add([]byte{2, 1, 4, 0, 0, 0, 3, 0, 0, 6, 0, 0, 9, 0, 0})                                                       // a chain of exact-Eps steps
	f.Add([]byte{7, 2, 9, 5, 5, 0, 5, 5, 1, 5, 5, 2, 5, 5, 4, 5, 5, 8, 5, 6, 0, 6, 5, 0, 8, 5, 5, 0, 0, 2, 8, 5, 5}) // a dense sub-box, then its expiry
	f.Add([]byte{3, 3, 3, 1, 1, 0, 4, 1, 5, 1, 4, 10, 2, 7, 7, 0, 10, 7, 5, 0, 3, 4, 4, 0, 4, 4, 9, 4, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const eps = 0.75
		cfg := Config{Eps: eps, MinPts: 1 + int(data[0])%9, WindowTicks: 1 + int(data[1])%4}
		e := mustEngine(t, cfg)
		data = data[2:]
		id := uint64(0)
		for tick := 0; tick < 8 && len(data) > 0; tick++ {
			n := int(data[0]) % 16
			data = data[1:]
			batch := make([]geom.Point, 0, n)
			for ; n > 0 && len(data) >= 3; n-- {
				batch = append(batch, geom.Point{
					ID: id,
					X:  jitter(float64(int(data[0]%16)-8)*eps/3, data[2]),
					Y:  jitter(float64(int(data[1]%16)-8)*eps/3, data[2]>>2),
				})
				id++
				data = data[3:]
			}
			mustTick(t, e, batch)
			checkSnapshot(t, e)
		}
	})
}

// jitter moves x one ulp down (low bits 01), up (10) or not at all.
func jitter(x float64, bits byte) float64 {
	switch bits & 3 {
	case 1:
		return math.Nextafter(x, math.Inf(-1))
	case 2:
		return math.Nextafter(x, math.Inf(1))
	}
	return x
}
