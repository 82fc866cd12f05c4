package stream

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
)

// benchWindow builds a steady-state window (20 ticks × perTick points)
// plus follow-on batches to tick through during measurement.
func benchWindow(b *testing.B, perTick int, seed int64, opt dataset.FirehoseOptions) (*Engine, [][]geom.Point) {
	b.Helper()
	const window = 20
	batches := dataset.Firehose(window+b.N+1, perTick, seed, opt)
	e, err := New(Config{Eps: 0.12, MinPts: 8, WindowTicks: window})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range batches[:window] {
		if _, err := e.Tick(batch); err != nil {
			b.Fatal(err)
		}
	}
	return e, batches[window:]
}

func benchTicks(b *testing.B, perTick int, seed int64, opt dataset.FirehoseOptions) {
	e, batches := benchWindow(b, perTick, seed, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Tick(batches[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamTick measures one incremental tick (5k arrivals + 5k
// expiries) against a 100k-point steady-state window. Compare with
// BenchmarkStreamFullRecluster: per-tick cost tracks the dirtied-cell
// count, not the window size.
func BenchmarkStreamTick(b *testing.B) { benchTicks(b, 5000, 9, dataset.DefaultFirehoseOptions()) }

// BenchmarkStreamTickServeShape is the same at the repo benchmark's
// serve_stream shape: 2 000 arrivals and expiries a tick against a
// 40k-point window.
func BenchmarkStreamTickServeShape(b *testing.B) {
	benchTicks(b, 2000, 7, dataset.DefaultFirehoseOptions())
}

// BenchmarkStreamTickSparse and BenchmarkStreamTickHotspots split the
// serve shape's two regimes: its sparse background alone (300 points a
// tick, 15 % of 2 000) and its hotspots alone (1 700).
func BenchmarkStreamTickSparse(b *testing.B) {
	opt := dataset.DefaultFirehoseOptions()
	opt.BackgroundFrac = 1
	benchTicks(b, 300, 7, opt)
}

func BenchmarkStreamTickHotspots(b *testing.B) {
	opt := dataset.DefaultFirehoseOptions()
	opt.BackgroundFrac = 0
	benchTicks(b, 1700, 7, opt)
}

// BenchmarkStreamFullRecluster is the baseline BenchmarkStreamTick
// beats: a from-scratch batch DBSCAN over the same 100k-point window
// every tick.
func BenchmarkStreamFullRecluster(b *testing.B) {
	e, _ := benchWindow(b, 5000, 9, dataset.DefaultFirehoseOptions())
	snap := e.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dbscan.Cluster(snap.Points, geom.Params{Eps: 0.12, MinPts: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
