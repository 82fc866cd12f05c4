package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/quality"
)

// qualityFloor is the paper's DBDC acceptance level (§5.1.3).
const qualityFloor = 0.995

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow start does not decide the metric.
const setupRepeats = 3

// The reference box shares its two cores and its last-level cache with
// neighbours. For seconds at a time — sometimes minutes — everything on
// it runs slower, by up to 2x, CPU time included. Two fixed rules, the
// same for every commit, keep that out of the numbers:
//
//   - A run is cut into `rounds` timed rounds and reports on the third of
//     them that got the most done (input points completed per second of
//     the round). The noise only ever adds time, so those rounds are the
//     part of the run it touched least. Over ten seeds this cut the spread
//     of op_wall_p50_s from 13-26 % to 4-12 % against pooling every op.
//     What it cannot see is a stall rarer than one per round.
//   - Every round is calibrated: a reference kernel (refKernel) is timed
//     right before and right after it, and the round's walls, duration and
//     CPU time are divided by the slowdown the kernel saw. Reported times
//     are therefore seconds on a quiet reference box, not seconds of this
//     afternoon. Over 38 runs of serve_stream spanning a bad half hour,
//     raw medians ranged 2.2x and calibrated ones 1.4x; the spread inside
//     windows of ten runs fell from up to 35 % to at most 18 %.
//
// Correctness counts from every round; timings, CPU and allocation from
// the kept ones. Raw (uncalibrated) medians and the slowdown of each
// round are printed beside the metrics.
const (
	rounds     = 12
	roundsKept = rounds / 3
)

// sizing scales every workload: sizes are divided by div. Full runs use
// 1; -quick uses 10 so the plumbing can be smoke-tested in seconds (its
// numbers are not comparable with full runs); the unit tests go smaller
// still.
type sizing struct{ div int }

func (s sizing) n(full int) int {
	if s.div <= 1 {
		return full
	}
	return max(full/s.div, 1)
}

func (s sizing) quick() bool { return s.div > 1 }

// workload is one front door driven with one generated input.
type workload interface {
	// setup is everything before the first warm-up op: generating the
	// input from the seed, the reference clustering, request bodies,
	// starting the server or the coordinator and its workers.
	setup() error
	// warmup runs the untimed ops that precede a timed round.
	warmup(round int) error
	// run performs timed ops until the deadline and tallies them.
	run(until time.Time, t *tally)
	// verify runs the round's correctness checks, outside the timed
	// region, and charges failures to the tally.
	verify(t *tally)
	// traced produces the workload's per-layer metrics under rec.
	traced(rec *recorder, budget time.Duration, m layerMetrics) error
	// inputHash fingerprints the generated input.
	inputHash() uint64
	// close stops everything setup started and removes its files.
	close()
}

// tally is what the timed rounds of one workload add up to. Times are
// calibrated (see oneRound) except where a field says raw.
type tally struct {
	walls     []float64 // seconds, one per op that completed
	rawWalls  []float64 // the same walls as the clock read them
	points    int64     // input points of completed ops
	attempted int
	failed    int
	timed     float64   // summed wall of the timed rounds, seconds
	rawTimed  float64   // the same as the clock read it
	cpu       float64   // getrusage user+sys over the timed rounds, seconds
	allocB    uint64    // heap bytes allocated over the timed rounds
	quality   float64   // minimum DBDC over checked outputs
	checked   int       // outputs compared with the reference
	slowdown  []float64 // host slowdown of each round, in round order
	notes     []string  // what failed, for the human reading stderr
}

func newTally() *tally { return &tally{quality: 1} }

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.walls = append(t.walls, o.walls...)
	t.points += o.points
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

// calibNominalMS is what refKernel takes on the reference box when
// nothing else competes for it; it only fixes the scale of the slowdown
// factor (1.0 = a quiet reference box).
const calibNominalMS = 25.0

var kernelSink int

// refKernel is the host-speed probe: a fixed piece of ordinary Go work —
// fill a map of slices from a xorshift stream, collect and sort its keys
// — that shares no code with the program under test. It returns the
// faster of two runs, in milliseconds. Of the probes tried (a
// dependent-multiply loop, a high-IPC loop over L1, a walk over 64 MiB,
// this one) it followed the workloads' own slowdowns most closely:
// correlation 0.88 with a 10 s median of RunPoints walls over ten
// minutes of a noisy host.
func refKernel() float64 {
	best := math.Inf(1)
	for rep := 0; rep < 2; rep++ {
		t0 := time.Now()
		m := make(map[uint64][]uint32, 1<<12)
		x := uint64(88172645463325252)
		for i := 0; i < 150_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := x & 0xffff
			m[k] = append(m[k], uint32(x>>32))
		}
		keys := make([]uint64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		kernelSink += len(keys)
		if d := millis(time.Since(t0)); d < best {
			best = d
		}
	}
	return best
}

// slowdownBetween turns the kernel readings taken before and after a
// stretch of work into the host's slowdown factor over that stretch.
func slowdownBetween(before, after float64) float64 {
	return (before + after) / 2 / calibNominalMS
}

// oneRound runs one timed round of w for about d and calibrates it: every
// time the round measured is divided by the host slowdown the reference
// kernel saw immediately before and after it.
func oneRound(kernel func() float64, w workload, round int, warm bool, d time.Duration) (*tally, error) {
	t := newTally()
	if warm {
		if err := w.warmup(round); err != nil {
			return t, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	before := kernel()
	cpu0 := cpuSeconds()
	b0, _ := heapAllocs()
	t0 := time.Now()
	w.run(t0.Add(d), t)
	t.rawTimed = time.Since(t0).Seconds()
	b1, _ := heapAllocs()
	cpu := cpuSeconds() - cpu0
	t.allocB = b1 - b0
	slow := slowdownBetween(before, kernel())
	t.slowdown = []float64{slow}
	t.rawWalls = t.walls
	t.walls = make([]float64, len(t.rawWalls))
	for i, x := range t.rawWalls {
		t.walls[i] = x / slow
	}
	t.timed = t.rawTimed / slow
	t.cpu = cpu / slow
	w.verify(t)
	return t, nil
}

// pool adds the rounds up: correctness from all of them, performance
// from the roundsKept the clock saw get the most done.
func pool(rs []*tally) *tally {
	order := make([]int, len(rs))
	for i := range order {
		order[i] = i
	}
	rate := func(i int) float64 {
		if rs[i].rawTimed <= 0 {
			return 0
		}
		return float64(rs[i].points) / rs[i].rawTimed
	}
	sort.SliceStable(order, func(a, b int) bool { return rate(order[a]) > rate(order[b]) })
	kept := make(map[int]bool)
	for _, i := range order[:min(roundsKept, len(order))] {
		kept[i] = true
	}
	t := newTally()
	for i, r := range rs {
		t.attempted += r.attempted
		t.failed += r.failed
		t.checked += r.checked
		t.notes = append(t.notes, r.notes...)
		if r.quality < t.quality {
			t.quality = r.quality
		}
		t.slowdown = append(t.slowdown, r.slowdown...)
		if kept[i] {
			t.walls = append(t.walls, r.walls...)
			t.rawWalls = append(t.rawWalls, r.rawWalls...)
			t.points += r.points
			t.timed += r.timed
			t.rawTimed += r.rawTimed
			t.cpu += r.cpu
			t.allocB += r.allocB
		}
	}
	return t
}

// endToEndMetrics turns a pooled tally and a set-up time into the eight
// end-to-end metrics. It reports an error when nothing completed: every
// metric would be a division by zero.
func endToEndMetrics(t *tally, setupS float64) (map[string]float64, float64, error) {
	if len(t.walls) == 0 || t.points == 0 {
		return nil, 0, fmt.Errorf("no op completed (%d attempted, %d failed)", t.attempted, t.failed)
	}
	tp := tailPercentile(len(t.walls))
	tail, err := percentile(t.walls, tp)
	if err != nil {
		return nil, 0, err
	}
	p50 := median(t.walls)
	if tail < p50 {
		tail = p50 // nearest rank at p50 of an even count picks the lower middle
	}
	mpoints := float64(t.points) / 1e6
	return map[string]float64{
		mSetup:    setupS,
		mWallP50:  p50,
		mWallTail: tail,
		mPoints:   float64(t.points) / t.timed,
		mCPU:      t.cpu / mpoints,
		mAlloc:    float64(t.allocB) / 1e6 / mpoints,
		mQuality:  t.quality,
		mOK:       float64(t.attempted-t.failed) / float64(t.attempted),
	}, tp, nil
}

// labelCheck holds one input's reference labels and judges every
// labeling the program returns for it. The pipeline does not promise
// the same cluster numbering, or the same owner for a border point,
// from run to run, so labelings are told apart by hash and every
// distinct one is scored against the reference; an op passes when its
// labeling scores at least qualityFloor.
type labelCheck struct {
	ref []int

	mu   sync.Mutex
	seen map[uint64]*labeling
}

type labeling struct {
	labels []int // until scored
	bad    bool  // scored below the floor
	ops    int   // ops that returned it since the last settle
}

// maxLabelings bounds the distinct labelings kept for one input; a
// program that never repeats itself fails the ops beyond it.
const maxLabelings = 16

// observe records one op's labeling. It is called outside the op's
// timed region; labels is only invoked for a hash not seen before.
func (c *labelCheck) observe(h uint64, labels func() ([]int, error), t *tally) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.seen[h]; ok {
		l.ops++
		return
	}
	if len(c.seen) >= maxLabelings {
		t.fail(1, "more than %d distinct labelings of one input", maxLabelings)
		return
	}
	l, err := labels()
	if err != nil {
		t.fail(1, "unreadable labels: %v", err)
		return
	}
	if c.seen == nil {
		c.seen = make(map[uint64]*labeling)
	}
	c.seen[h] = &labeling{labels: l, ops: 1}
}

// settle scores what was observed since the last call against the
// reference and charges the tally.
func (c *labelCheck) settle(t *tally) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range c.seen {
		if l.labels != nil {
			q, err := quality.Score(c.ref, l.labels)
			if err != nil {
				q = 0
			}
			t.checked++
			if q < t.quality {
				t.quality = q
			}
			l.bad = q < qualityFloor
			l.labels = nil // scored once; later ops only compare hashes
		}
		if l.bad && l.ops > 0 {
			t.fail(l.ops, "DBDC below %.3f on %d ops", qualityFloor, l.ops)
		}
		l.ops = 0
	}
}
