package gpusim

import (
	"sync/atomic"
	"testing"
)

func TestStreamExecutesInOrder(t *testing.T) {
	d := New(testConfig(), nil)
	s := d.NewStream()
	var sequence []int
	var current atomic.Int32
	for k := 0; k < 20; k++ {
		k := k
		s.LaunchAsync("ordered", LaunchConfig{Blocks: 1, ThreadsPerBlock: 1}, func(KernelCtx) {
			if int(current.Load()) != k {
				t.Errorf("kernel %d ran at position %d", k, current.Load())
			}
			current.Add(1)
			sequence = append(sequence, k)
		})
	}
	if err := s.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if len(sequence) != 20 {
		t.Fatalf("executed %d kernels, want 20", len(sequence))
	}
	for i, k := range sequence {
		if i != k {
			t.Fatalf("out of order at %d: %v", i, sequence)
		}
	}
}

func TestStreamBulkIssueThenSync(t *testing.T) {
	// The §3.2.2 pattern: enqueue everything, then one synchronization.
	d := New(testConfig(), nil)
	s := d.NewStream()
	var total atomic.Int64
	for k := 0; k < 50; k++ {
		s.LaunchAsync("bulk", LaunchConfig{Blocks: 4, ThreadsPerBlock: 8}, func(KernelCtx) {
			total.Add(1)
		})
	}
	if err := s.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 50*4*8 {
		t.Errorf("thread executions = %d, want %d", total.Load(), 50*4*8)
	}
	if d.Stats().KernelLaunches != 50 {
		t.Errorf("device saw %d launches, want 50", d.Stats().KernelLaunches)
	}
}

func TestStreamDeferredError(t *testing.T) {
	d := New(testConfig(), nil)
	s := d.NewStream()
	s.LaunchAsync("ok", LaunchConfig{Blocks: 1, ThreadsPerBlock: 1}, func(KernelCtx) {})
	s.LaunchAsync("bad", LaunchConfig{Blocks: 0, ThreadsPerBlock: 1}, func(KernelCtx) {})
	if err := s.Synchronize(); err == nil {
		t.Error("invalid launch must surface at Synchronize")
	}
}

func TestStreamSynchronizeIdempotent(t *testing.T) {
	d := New(testConfig(), nil)
	s := d.NewStream()
	s.LaunchAsync("one", LaunchConfig{Blocks: 1, ThreadsPerBlock: 1}, func(KernelCtx) {})
	for i := 0; i < 3; i++ {
		if err := s.Synchronize(); err != nil {
			t.Fatal(err)
		}
	}
}
