package mrscan

import (
	"context"
	"sync"

	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/partition"
)

// partitionSource hands the cluster phase its input, however the
// partition phase delivered it: the partition snapshot says whether the
// points sit in the partition files its Meta locates or came over the
// overlay (Direct).
type partitionSource struct {
	*partitionCkpt
	fs *lustre.FS
	// gate, when non-nil, is the still-writing partition phase's
	// durability gate: load waits on it and the cluster scheduler admits
	// leaves by it.
	gate *partitionGate
}

// load returns partition j as the cluster phase consumes it: one slab
// holding its owned points then its shadow points, and the owned count.
// File mode decodes the slab from the partition files; Direct mode, whose
// two halves arrived separately, joins them with one copy.
func (s *partitionSource) load(ctx context.Context, j int) (slab []geom.Point, owned int, err error) {
	if s.Direct {
		slab = make([]geom.Point, 0, len(s.Partitions[j])+len(s.Shadows[j]))
		slab = append(append(slab, s.Partitions[j]...), s.Shadows[j]...)
		return slab, len(s.Partitions[j]), nil
	}
	if s.gate != nil {
		if err := s.gate.wait(ctx, j); err != nil {
			return nil, 0, err
		}
	}
	return partition.ReadPartitionSlab(s.fs, partitionFile, s.Meta, j)
}

// size reports j's total point count (owned + shadow) without loading
// it — the cluster scheduler's largest-first key.
func (s *partitionSource) size(j int) int64 {
	if s.Direct {
		return int64(len(s.Partitions[j]) + len(s.Shadows[j]))
	}
	e := s.Meta.Partitions[j]
	return e.Count + e.ShadowCount
}

// partitionGate coordinates the partition→cluster pipeline: the
// aggregated partition writer marks partitions ready as their segments
// become durable (partition.DistOptions.OnPartitionDurable), and the
// cluster phase's scheduler and loaders admit a leaf only once its
// partition is ready. A partition-phase failure poisons the gate so every
// waiter aborts instead of blocking forever.
type partitionGate struct {
	mu    sync.Mutex
	ready []bool
	err   error
	// change is closed and replaced on every state transition; waiters
	// grab the current channel before inspecting state so no transition
	// is missed.
	change chan struct{}
}

func newPartitionGate(n int) *partitionGate {
	return &partitionGate{ready: make([]bool, n), change: make(chan struct{})}
}

// bump wakes every waiter. Callers hold mu.
func (g *partitionGate) bump() {
	close(g.change)
	g.change = make(chan struct{})
}

// changed returns the channel the next state transition closes.
func (g *partitionGate) changed() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.change
}

// markReady admits partition j. Idempotent; safe from concurrent leaf
// goroutines.
func (g *partitionGate) markReady(j int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ready[j] || g.err != nil {
		return
	}
	g.ready[j] = true
	g.bump()
}

// markAllReady admits every partition — the safety net once the whole
// partition phase has returned successfully.
func (g *partitionGate) markAllReady() {
	g.mu.Lock()
	defer g.mu.Unlock()
	changed := false
	for j := range g.ready {
		if !g.ready[j] {
			g.ready[j] = true
			changed = true
		}
	}
	if changed && g.err == nil {
		g.bump()
	}
}

// fail poisons the gate with the partition phase's error. First error
// wins.
func (g *partitionGate) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err != nil {
		return
	}
	g.err = err
	g.bump()
}

// failure returns the poisoning error, if any.
func (g *partitionGate) failure() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// isReady reports whether partition j is admitted (non-blocking).
func (g *partitionGate) isReady(j int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ready[j]
}

// wait blocks until partition j is ready, the gate is poisoned, or ctx
// ends. A partition that became durable before the failure is still
// admitted — its data is intact.
func (g *partitionGate) wait(ctx context.Context, j int) error {
	for {
		g.mu.Lock()
		ready, err, ch := g.ready[j], g.err, g.change
		g.mu.Unlock()
		if ready {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}
