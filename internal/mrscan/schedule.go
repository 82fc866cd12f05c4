package mrscan

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// Work-stealing leaf scheduler for the cluster phase.
//
// "The time of the cluster phase is dictated by the slowest node" (§5):
// the phase ends when its largest partition finishes, so the largest
// partition must start first. A naive fan-out (one goroutine per leaf)
// gets the ordering right only by luck and holds host scratch for every
// leaf at once, though only as many leaves as there are cores can run.
// This scheduler runs leaves on a fixed worker pool: leaves are sorted
// largest-first and dealt round-robin into per-worker deques; a worker
// drains its own deque from the front and, when empty, steals from the
// back of the most-loaded victim (the victim's back holds its smallest
// remaining leaves, so steals poach cheap work and leave the owner its
// expensive head-of-queue items).
//
// The worker index is exposed to the leaf function so per-worker host
// scratch (a gdbscan.Workspace and a merge.Scratch) can be reused across
// all leaves a worker processes.

// schedQueue is one worker's deque of leaf indices.
type schedQueue struct {
	mu     sync.Mutex
	leaves []int
}

// popFront takes the owner's next (largest remaining) leaf.
func (q *schedQueue) popFront() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.leaves) == 0 {
		return 0, false
	}
	leaf := q.leaves[0]
	q.leaves = q.leaves[1:]
	return leaf, true
}

// stealBack takes a victim's last (smallest remaining) leaf.
func (q *schedQueue) stealBack() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.leaves) == 0 {
		return 0, false
	}
	leaf := q.leaves[len(q.leaves)-1]
	q.leaves = q.leaves[:len(q.leaves)-1]
	return leaf, true
}

func (q *schedQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.leaves)
}

// runLeaves executes fn(worker, leaf) for every leaf in
// [0, nLeaves) on a pool of `workers` goroutines, scheduling leaves
// largest-first by sizes[leaf] (len(sizes) must be nLeaves; a nil sizes
// keeps index order). Results are returned indexed by leaf. The first
// error cancels the remaining leaves; ctx cancellation is honored
// between leaves.
func runLeaves[T any](ctx context.Context, nLeaves, workers int, sizes []int64, fn func(worker, leaf int) (T, error)) ([]T, error) {
	if workers <= 0 || workers > nLeaves {
		workers = nLeaves
	}
	if workers <= 0 {
		return []T{}, nil
	}
	queues, err := deal(nLeaves, workers, sizes)
	if err != nil {
		return nil, err
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

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if err := runCtx.Err(); err != nil {
					return
				}
				leaf, ok := queues[w].popFront()
				if !ok {
					var more bool
					leaf, ok, more = steal(queues, w)
					if !more {
						return // no work anywhere
					}
					if !ok {
						continue // raced with the owner; rescan
					}
				}
				out, err := fn(w, leaf)
				if err != nil {
					setErr(fmt.Errorf("mrscan: leaf %d: %w", leaf, err))
					return
				}
				results[leaf] = out
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

// deal sorts the leaves largest-first by sizes (index order when sizes is
// nil) and deals them round-robin into one deque per worker: each deque
// is itself sorted descending, so popFront always runs the worker's
// largest remaining leaf and stealBack poaches the victim's smallest.
func deal(nLeaves, workers int, sizes []int64) ([]*schedQueue, error) {
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
	queues := make([]*schedQueue, workers)
	for w := range queues {
		queues[w] = &schedQueue{}
	}
	for i, leaf := range order {
		w := i % workers
		queues[w].leaves = append(queues[w].leaves, leaf)
	}
	return queues, nil
}

// steal takes the back leaf of the most-loaded deque other than worker
// w's own. more reports whether any other deque held work; ok is false
// when the victim's owner emptied it first.
func steal(queues []*schedQueue, w int) (leaf int, ok, more bool) {
	victim, most := -1, 0
	for v, q := range queues {
		if v == w {
			continue
		}
		if n := q.size(); n > most {
			victim, most = v, n
		}
	}
	if victim < 0 {
		return 0, false, false
	}
	leaf, ok = queues[victim].stealBack()
	return leaf, ok, true
}
