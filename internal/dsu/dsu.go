// Package dsu implements disjoint-set union (union-find) structures.
//
// Mr. Scan uses union-find in three places: resolving GPGPU block
// collisions after the expansion pass (§3.2.1), merging cluster fragments
// at internal tree nodes (§3.3.2), and in the PDSDBSCAN baseline (§2.2),
// which is built entirely around a parallel disjoint-set structure.
package dsu

import "sync"

// DSU is a sequential disjoint-set forest with union by rank and path
// compression. The zero value is an empty forest; size it with New or
// Reset.
type DSU struct {
	parent []int32
	rank   []int8
	count  int // number of disjoint sets
}

// New returns a DSU over n singleton elements 0..n-1.
func New(n int) *DSU {
	d := &DSU{}
	d.Reset(n)
	return d
}

// Reset makes d a forest of n singletons again, reusing its arrays when
// they are large enough — a caller that rebuilds a forest per step
// allocates only when n outgrows every earlier one.
func (d *DSU) Reset(n int) {
	if cap(d.parent) < n {
		d.parent = make([]int32, n)
		d.rank = make([]int8, n)
	}
	d.parent, d.rank, d.count = d.parent[:n], d.rank[:n], n
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.rank[i] = 0
	}
}

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// Count returns the current number of disjoint sets.
func (d *DSU) Count() int { return d.count }

// Find returns the canonical representative of x's set.
func (d *DSU) Find(x int) int {
	root := x
	for d.parent[root] != int32(root) {
		root = int(d.parent[root])
	}
	// Path compression.
	for d.parent[x] != int32(root) {
		x, d.parent[x] = int(d.parent[x]), int32(root)
	}
	return root
}

// Union merges the sets containing a and b and reports whether a merge
// happened (false if they were already in the same set).
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	d.count--
	return true
}

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b int) bool { return d.Find(a) == d.Find(b) }

// Labels returns, for every element, a dense label in 0..k-1 where k is the
// number of sets; elements in the same set share a label. Labels are
// assigned in order of first appearance.
func (d *DSU) Labels() []int {
	labels := make([]int, len(d.parent))
	next := 0
	seen := make(map[int]int, d.count)
	for i := range d.parent {
		r := d.Find(i)
		l, ok := seen[r]
		if !ok {
			l = next
			next++
			seen[r] = l
		}
		labels[i] = l
	}
	return labels
}

// Concurrent is a lock-striped disjoint-set forest safe for parallel Union
// and Find calls. It models the distributed disjoint-set structure of
// PDSDBSCAN: concurrent workers union across partition boundaries, and the
// contention on the structure is what limited that algorithm beyond 8,192
// cores.
type Concurrent struct {
	mu     sync.Mutex
	parent []int32
	rank   []int8

	// Unions counts successful union operations; Messages counts every
	// Find/Union touch as a proxy for the message traffic PDSDBSCAN
	// reports (super-linear growth in inter-core messages).
	stats struct {
		sync.Mutex
		unions   int64
		messages int64
	}
}

// NewConcurrent returns a Concurrent DSU over n singleton elements.
func NewConcurrent(n int) *Concurrent {
	c := &Concurrent{
		parent: make([]int32, n),
		rank:   make([]int8, n),
	}
	for i := range c.parent {
		c.parent[i] = int32(i)
	}
	return c
}

// Find returns the canonical representative of x's set.
func (c *Concurrent) Find(x int) int {
	c.mu.Lock()
	root := c.findLocked(x)
	c.mu.Unlock()
	c.stats.Lock()
	c.stats.messages++
	c.stats.Unlock()
	return root
}

func (c *Concurrent) findLocked(x int) int {
	root := x
	for c.parent[root] != int32(root) {
		root = int(c.parent[root])
	}
	for c.parent[x] != int32(root) {
		x, c.parent[x] = int(c.parent[x]), int32(root)
	}
	return root
}

// Union merges the sets containing a and b.
func (c *Concurrent) Union(a, b int) bool {
	c.mu.Lock()
	ra, rb := c.findLocked(a), c.findLocked(b)
	merged := false
	if ra != rb {
		if c.rank[ra] < c.rank[rb] {
			ra, rb = rb, ra
		}
		c.parent[rb] = int32(ra)
		if c.rank[ra] == c.rank[rb] {
			c.rank[ra]++
		}
		merged = true
	}
	c.mu.Unlock()

	c.stats.Lock()
	c.stats.messages += 2
	if merged {
		c.stats.unions++
	}
	c.stats.Unlock()
	return merged
}

// Stats returns the number of successful unions and the message-count
// proxy accumulated so far.
func (c *Concurrent) Stats() (unions, messages int64) {
	c.stats.Lock()
	defer c.stats.Unlock()
	return c.stats.unions, c.stats.messages
}

// Labels returns dense set labels as in DSU.Labels. Not safe to call
// concurrently with Union.
func (c *Concurrent) Labels() []int {
	labels := make([]int, len(c.parent))
	next := 0
	seen := make(map[int]int)
	for i := range c.parent {
		c.mu.Lock()
		r := c.findLocked(i)
		c.mu.Unlock()
		l, ok := seen[r]
		if !ok {
			l = next
			next++
			seen[r] = l
		}
		labels[i] = l
	}
	return labels
}

// Keyed is a disjoint-set forest over arbitrary comparable keys, used by
// the merge phase where set elements are (leaf, local cluster) pairs that
// arrive incrementally at internal tree nodes.
type Keyed[K comparable] struct {
	parent map[K]K
	rank   map[K]int8
}

// NewKeyed returns an empty keyed union-find.
func NewKeyed[K comparable]() *Keyed[K] {
	return &Keyed[K]{parent: make(map[K]K), rank: make(map[K]int8)}
}

// Add registers k as a singleton if it is not already present.
func (d *Keyed[K]) Add(k K) {
	if _, ok := d.parent[k]; !ok {
		d.parent[k] = k
	}
}

// Find returns the representative of k's set, registering k if needed.
func (d *Keyed[K]) Find(k K) K {
	d.Add(k)
	root := k
	for d.parent[root] != root {
		root = d.parent[root]
	}
	for d.parent[k] != root {
		k, d.parent[k] = d.parent[k], root
	}
	return root
}

// Union merges the sets containing a and b, registering them if needed,
// and reports whether a merge happened.
func (d *Keyed[K]) Union(a, b K) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return true
}

// Same reports whether a and b are in the same set.
func (d *Keyed[K]) Same(a, b K) bool { return d.Find(a) == d.Find(b) }

// Keys returns all registered keys (in map order).
func (d *Keyed[K]) Keys() []K {
	out := make([]K, 0, len(d.parent))
	for k := range d.parent {
		out = append(out, k)
	}
	return out
}
