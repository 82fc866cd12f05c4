package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repro/internal/geom"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be more than a restatement of the maximum.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the
// nearest-rank rule. Above the median it refuses — with an error — when
// fewer than minBeyond samples lie beyond the requested rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// tailPercentile is the tail a sample count can support: p95 when at
// least minBeyond samples lie beyond it, otherwise the highest
// percentile that still has minBeyond samples beyond it, and never
// below the median. The batch workloads finish tens of ops in a run, so
// their "tail" is a percentile between p50 and p75; the serving
// workloads finish hundreds and report a true p95.
func tailPercentile(n int) float64 {
	p := 0.95
	if n > 0 {
		if q := 1 - float64(minBeyond+1)/float64(n); q < p {
			p = q
		}
	}
	if p < 0.5 {
		p = 0.5
	}
	return p
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns q1 and q3 by the method of Python's
// statistics.quantiles(xs, n=4) (exclusive), which the driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadOf is the interquartile distance as a share of the median; it
// needs at least four values to mean anything.
func spreadOf(xs []float64) (float64, bool) {
	if len(xs) < 4 {
		return 0, false
	}
	m := median(xs)
	if m == 0 {
		return 0, false
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m), true
}

// hashLabels fingerprints a label vector.
func hashLabels(labels []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(l)))
		h.Write(b[:])
	}
	return h.Sum64()
}

// hashPoints fingerprints a generated input (IDs and coordinates).
func hashPoints(h interface{ Write([]byte) (int, error) }, pts []geom.Point) {
	var b [24]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(b[0:], p.ID)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(p.Y))
		h.Write(b[:])
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAllocs reads the cumulative bytes and objects allocated.
func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
