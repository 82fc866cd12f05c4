package main

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	front "repro"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/distrib"
	"repro/internal/geom"
)

// clusterInput is a generated point set, its DBSCAN parameters and the
// reference clustering the program's labels are scored against.
type clusterInput struct {
	pts    []geom.Point
	eps    float64
	minPts int
	leaves int

	check   labelCheck
	genTime time.Duration
	refTime time.Duration
}

// newClusterInput generates the points and computes the reference: the
// sequential grid-index DBSCAN, an implementation independent of the
// pipeline under test.
func newClusterInput(gen func(n int, seed int64) []geom.Point, n int, seed int64, eps float64, minPts, leaves int) (*clusterInput, error) {
	in := &clusterInput{eps: eps, minPts: minPts, leaves: leaves}
	t0 := time.Now()
	in.pts = gen(n, seed)
	in.genTime = time.Since(t0)
	t0 = time.Now()
	ref, err := dbscan.Cluster(in.pts, dbscan.Params{Eps: eps, MinPts: minPts}, dbscan.IndexGrid)
	if err != nil {
		return nil, fmt.Errorf("reference DBSCAN: %w", err)
	}
	in.refTime = time.Since(t0)
	in.check.ref = ref.Labels
	return in, nil
}

// observe judges one op's labels (outside its timed region).
func (in *clusterInput) observe(labels []int, t *tally) {
	in.check.observe(hashLabels(labels), func() ([]int, error) { return labels, nil }, t)
}

// batchWorkload drives the in-process front door, mrscan.RunPoints.
// Ops cycle through `sets` inputs drawn from the same distribution with
// different sub-seeds: how long the pipeline takes on dense data swings
// by tens of percent from one sample to the next (where the partition
// cuts fall, how often the rebalancer fires), and a run that met only
// one sample would report that sample, not the workload.
type batchWorkload struct {
	gen    func(n int, seed int64) []geom.Point
	n      int
	sets   int
	sz     sizing
	seed   int64
	eps    float64
	minPts int
	leaves int

	ins  []*clusterInput
	next int // ops started; op i clusters ins[i%sets]
}

func newBatchDense(seed int64, sz sizing) *batchWorkload {
	// The paper's main configuration (§4.1, §5): Twitter-like points,
	// Eps 0.1, MinPts 40.
	return &batchWorkload{gen: dataset.Twitter, n: sz.n(60_000), sets: 5, sz: sz, seed: seed, eps: 0.1, minPts: 40, leaves: 8}
}

func newBatchIO(seed int64, sz sizing) *batchWorkload {
	// The paper's SDSS configuration (§4.2): Eps 0.00015, MinPts 5. One
	// sample is enough here: the objects are scattered uniformly and the
	// pipeline's cost barely moves with the seed.
	return &batchWorkload{gen: dataset.SDSS, n: sz.n(150_000), sets: 1, sz: sz, seed: seed, eps: 0.00015, minPts: 5, leaves: 16}
}

func (w *batchWorkload) config() front.Config { return front.Default(w.eps, w.minPts, w.leaves) }

func (w *batchWorkload) setup() error {
	w.ins = make([]*clusterInput, w.sets)
	for i := range w.ins {
		var err error
		if w.ins[i], err = newClusterInput(w.gen, w.n, w.seed*64+int64(i), w.eps, w.minPts, w.leaves); err != nil {
			return err
		}
	}
	return nil
}

// input returns the next op's input.
func (w *batchWorkload) input() *clusterInput {
	in := w.ins[w.next%len(w.ins)]
	w.next++
	return in
}

func (w *batchWorkload) warmup(int) error {
	_, _, err := front.RunPoints(w.ins[0].pts, w.config())
	return err
}

// run clusters the inputs in turn until the deadline, and then to the
// end of the cycle: every round sees each input equally often, so rounds
// can be compared by throughput.
func (w *batchWorkload) run(until time.Time, t *tally) {
	for time.Now().Before(until) || w.next%len(w.ins) != 0 {
		in := w.input()
		t0 := time.Now()
		_, labels, err := front.RunPoints(in.pts, w.config())
		d := time.Since(t0)
		t.attempted++
		if err != nil {
			t.fail(1, "RunPoints: %v", err)
			continue
		}
		t.walls = append(t.walls, d.Seconds())
		t.points += int64(len(in.pts))
		in.observe(labels, t)
	}
}

func (w *batchWorkload) verify(t *tally) {
	for _, in := range w.ins {
		in.check.settle(t)
	}
}

func (w *batchWorkload) inputHash() uint64 {
	h := fnv.New64a()
	for _, in := range w.ins {
		hashPoints(h, in.pts)
	}
	return h.Sum64()
}

func (w *batchWorkload) close() {}

// distWorkload drives the mrscan-dist path: one coordinator and two
// workers that dial it over loopback TCP. The workers are goroutines of
// this process, so the CPU and allocation metrics cover both ends of the
// wire. Input and parameters are batch_io's, so the pair separates "the
// algorithm changed" from "the substrate changed".
type distWorkload struct {
	batchWorkload
	coord   *distrib.Coordinator
	workers sync.WaitGroup
}

const distWorkers = 2

func newDistTCP(seed int64, sz sizing) *distWorkload {
	return &distWorkload{batchWorkload: *newBatchIO(seed, sz)}
}

func (w *distWorkload) options() distrib.Options {
	return distrib.Options{Eps: w.eps, MinPts: w.minPts, Leaves: w.leaves, DenseBox: true}
}

func (w *distWorkload) setup() error {
	if err := w.batchWorkload.setup(); err != nil {
		return err
	}
	var err error
	w.coord, err = startCoordinator(&w.workers)
	return err
}

// startCoordinator listens, starts distWorkers worker goroutines and
// waits until all have dialled in. wg is done when every worker exited.
func startCoordinator(wg *sync.WaitGroup) (*distrib.Coordinator, error) {
	c, err := distrib.NewCoordinator()
	if err != nil {
		return nil, err
	}
	c.RequestTimeout = 2 * time.Minute // cmd/mrscan-dist's setting
	for i := 0; i < distWorkers; i++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			// A worker ends when the coordinator shuts the connection;
			// an error before that surfaces as a failed dispatch.
			_ = distrib.Worker(c.Addr(), pid)
		}(1000 + i)
	}
	if err := c.AcceptWorkers(distWorkers, 30*time.Second); err != nil {
		c.Shutdown()
		wg.Wait()
		return nil, err
	}
	return c, nil
}

func (w *distWorkload) warmup(int) error {
	_, err := w.coord.Run(w.ins[0].pts, w.options())
	return err
}

func (w *distWorkload) run(until time.Time, t *tally) {
	for time.Now().Before(until) || w.next%len(w.ins) != 0 {
		in := w.input()
		t0 := time.Now()
		res, err := w.coord.Run(in.pts, w.options())
		d := time.Since(t0)
		t.attempted++
		if err != nil {
			t.fail(1, "Coordinator.Run: %v", err)
			continue
		}
		t.walls = append(t.walls, d.Seconds())
		t.points += int64(len(in.pts))
		in.observe(res.Labels, t)
	}
}

func (w *distWorkload) verify(t *tally) {
	w.batchWorkload.verify(t)
	if st := w.coord.Stats(); st.WorkersLost > 0 || st.Reassigned > 0 {
		t.fail(1, "dispatch was not clean: %d workers lost, %d partitions reassigned", st.WorkersLost, st.Reassigned)
	}
}

func (w *distWorkload) close() {
	if w.coord != nil {
		w.coord.Shutdown()
		w.workers.Wait()
		w.coord = nil
	}
}
