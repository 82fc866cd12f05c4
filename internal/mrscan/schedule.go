package mrscan

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Work-stealing leaf scheduler for the cluster phase.
//
// "The time of the cluster phase is dictated by the slowest node" (§5):
// the phase ends when its largest partition finishes, so the largest
// partition must start first. A naive fan-out (one goroutine per leaf)
// gets the ordering right only by luck and gives every
// leaf its own simulated device — the wrong shape when leaves share a
// bounded pool of GPGPU nodes. This scheduler runs leaves on a fixed
// worker pool: leaves are sorted largest-first and dealt round-robin
// into per-worker deques; a worker drains its own deque from the front
// and, when empty, steals from the back of the most-loaded victim (the
// victim's back holds its smallest remaining leaves, so steals poach
// cheap work and leave the owner its expensive head-of-queue items).
//
// The worker index is exposed to the leaf function so per-worker state
// (a simulated device and a gdbscan.Workspace) can be reused across all
// leaves a worker processes — the device's buffer pool and the
// workspace's arrays then amortize across the worker's whole share of
// the phase.

// schedQueue is one worker's deque of leaf indices.
type schedQueue struct {
	mu     sync.Mutex
	leaves []int
}

// popFront takes the owner's first admitted (largest remaining ready)
// leaf. admit == nil admits everything, so the front is taken.
func (q *schedQueue) popFront(admit func(int) bool) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, leaf := range q.leaves {
		if admit == nil || admit(leaf) {
			q.leaves = append(q.leaves[:i], q.leaves[i+1:]...)
			return leaf, true
		}
	}
	return 0, false
}

// stealBack takes a victim's last admitted (smallest remaining ready)
// leaf.
func (q *schedQueue) stealBack(admit func(int) bool) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i := len(q.leaves) - 1; i >= 0; i-- {
		leaf := q.leaves[i]
		if admit == nil || admit(leaf) {
			q.leaves = append(q.leaves[:i], q.leaves[i+1:]...)
			return leaf, true
		}
	}
	return 0, false
}

func (q *schedQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.leaves)
}

// runLeavesGated executes fn(worker, leaf) for every leaf in
// [0, nLeaves) on a pool of `workers` goroutines, scheduling leaves
// largest-first by sizes[leaf] (len(sizes) must be nLeaves; a nil sizes
// keeps index order). Results are returned indexed by leaf. The first
// error cancels the remaining leaves; ctx cancellation is honored
// between leaves.
//
// With a non-nil partitionGate a worker only takes leaf j once gate
// reports partition j ready, so the cluster phase can start on durable
// partitions while the partition phase is still writing later ones.
// Workers with no admitted leaf block on the gate's change channel
// (grabbed before scanning, so no readiness transition is missed) rather
// than spinning; a poisoned gate aborts the run with the partition
// phase's error.
func runLeavesGated[T any](ctx context.Context, nLeaves, workers int, sizes []int64, gate *partitionGate, fn func(worker, leaf int) (T, error)) ([]T, error) {
	if workers <= 0 || workers > nLeaves {
		workers = nLeaves
	}
	if workers <= 0 {
		return []T{}, nil
	}
	order := make([]int, nLeaves)
	for i := range order {
		order[i] = i
	}
	if sizes != nil {
		if len(sizes) != nLeaves {
			return nil, fmt.Errorf("mrscan: scheduler got %d sizes for %d leaves", len(sizes), nLeaves)
		}
		sort.SliceStable(order, func(a, b int) bool {
			return sizes[order[a]] > sizes[order[b]]
		})
	}
	// Deal largest-first round-robin: worker w's deque is itself sorted
	// descending, so popFront always runs the worker's largest remaining
	// leaf and stealBack poaches the victim's smallest.
	queues := make([]*schedQueue, workers)
	for w := range queues {
		queues[w] = &schedQueue{}
	}
	for i, leaf := range order {
		w := i % workers
		queues[w].leaves = append(queues[w].leaves, leaf)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]T, nLeaves)
	var (
		errMu    sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	var admit func(int) bool
	if gate != nil {
		admit = gate.isReady
	}
	// drained closes when the last leaf finishes, waking workers that
	// blocked on the gate with no admissible work left for them.
	drained := make(chan struct{})
	var outstanding atomic.Int64
	outstanding.Store(int64(nLeaves))

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if err := runCtx.Err(); err != nil {
					return
				}
				if gate != nil {
					if err := gate.failure(); err != nil {
						setErr(err)
						return
					}
				}
				// Grab the gate's change channel before scanning: a
				// partition turning ready after the scan then closes this
				// very channel, so the select below cannot miss it.
				var changed <-chan struct{}
				if gate != nil {
					changed = gate.changed()
				}
				leaf, ok := queues[w].popFront(admit)
				if !ok {
					// Own deque has no admitted leaf: steal from victims,
					// most-loaded first.
					type victim struct{ v, n int }
					var victims []victim
					for v, q := range queues {
						if v == w {
							continue
						}
						if n := q.size(); n > 0 {
							victims = append(victims, victim{v, n})
						}
					}
					sort.Slice(victims, func(a, b int) bool { return victims[a].n > victims[b].n })
					for _, c := range victims {
						if leaf, ok = queues[c.v].stealBack(admit); ok {
							break
						}
					}
					if !ok {
						if len(victims) == 0 && queues[w].size() == 0 {
							return // no work anywhere
						}
						// Work exists but none is admitted yet (or a steal
						// raced): wait for the gate to change, the pool to
						// drain, or the run to end.
						select {
						case <-changed:
						case <-drained:
						case <-runCtx.Done():
						}
						continue
					}
				}
				out, err := fn(w, leaf)
				if err != nil {
					setErr(fmt.Errorf("mrscan: leaf %d: %w", leaf, err))
					return
				}
				results[leaf] = out
				if outstanding.Add(-1) == 0 {
					close(drained)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mrscan: cluster scheduling aborted: %w", err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
