package mrscan

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduledRunsEveryLeafOnce(t *testing.T) {
	const n = 37
	var counts [n]int32
	results, err := runLeaves(context.Background(), n, 4, nil,
		func(w, leaf int) (int, error) {
			atomic.AddInt32(&counts[leaf], 1)
			return leaf * 10, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for leaf := 0; leaf < n; leaf++ {
		if counts[leaf] != 1 {
			t.Errorf("leaf %d ran %d times", leaf, counts[leaf])
		}
		if results[leaf] != leaf*10 {
			t.Errorf("results[%d] = %d, want %d", leaf, results[leaf], leaf*10)
		}
	}
}

func TestScheduledLargestFirstOnSingleWorker(t *testing.T) {
	// With one worker the execution order is exactly the sort order:
	// descending partition size.
	sizes := []int64{10, 500, 30, 999, 1}
	var order []int
	_, err := runLeaves(context.Background(), len(sizes), 1, sizes,
		func(w, leaf int) (struct{}, error) {
			order = append(order, leaf)
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 2, 0, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (largest partition first)", order, want)
		}
	}
}

func TestScheduledStealsFromLoadedWorker(t *testing.T) {
	// Two workers, four leaves. Worker 0's first leaf blocks until the
	// other three leaves are done — which can only happen if worker 1
	// steals worker 0's second queued leaf.
	sizes := []int64{400, 300, 200, 100} // dealt: w0={0,2}, w1={1,3}
	release := make(chan struct{})
	var done int32
	var mu sync.Mutex
	workerOf := map[int]int{}
	_, err := runLeaves(context.Background(), 4, 2, sizes,
		func(w, leaf int) (struct{}, error) {
			mu.Lock()
			workerOf[leaf] = w
			mu.Unlock()
			if leaf == 0 {
				<-release
				return struct{}{}, nil
			}
			if atomic.AddInt32(&done, 1) == 3 {
				close(release)
			}
			return struct{}{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if workerOf[2] != 1 {
		t.Errorf("leaf 2 ran on worker %d, want stolen by worker 1", workerOf[2])
	}
}

func TestScheduledPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	var ran int32
	_, err := runLeaves(context.Background(), 20, 2, nil,
		func(w, leaf int) (struct{}, error) {
			atomic.AddInt32(&ran, 1)
			if leaf == 3 {
				return struct{}{}, boom
			}
			return struct{}{}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if want := fmt.Sprintf("leaf %d", 3); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the failing leaf", err)
	}
}

func TestScheduledHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := runLeaves(ctx, 1000, 1, nil,
		func(w, leaf int) (struct{}, error) {
			atomic.AddInt32(&ran, 1)
			time.Sleep(time.Millisecond)
			return struct{}{}, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&ran); n >= 1000 {
		t.Errorf("all %d leaves ran despite cancellation", n)
	}
}

func TestScheduledDegenerateShapes(t *testing.T) {
	// Zero leaves.
	res, err := runLeaves(context.Background(), 0, 4, nil,
		func(w, leaf int) (int, error) { return 0, nil })
	if err != nil || len(res) != 0 {
		t.Errorf("0 leaves: res=%v err=%v", res, err)
	}
	// More workers than leaves clamps.
	res, err = runLeaves(context.Background(), 2, 16, []int64{1, 2},
		func(w, leaf int) (int, error) {
			if w >= 2 {
				t.Errorf("worker index %d with only 2 leaves", w)
			}
			return leaf, nil
		})
	if err != nil || len(res) != 2 {
		t.Fatalf("clamped run: res=%v err=%v", res, err)
	}
	// Mismatched sizes slice is an explicit error.
	if _, err := runLeaves(context.Background(), 3, 2, []int64{1},
		func(w, leaf int) (int, error) { return 0, nil }); err == nil {
		t.Error("mismatched sizes accepted")
	}
}
