package gpusim

import "fmt"

// Buffer pooling: repeated Cluster() calls on one device (a cluster-phase
// leaf processes its partitions back-to-back) would otherwise
// cudaMalloc/cudaFree the same working set per partition. Real CUDA
// codes keep allocations alive across batches for exactly this reason —
// cudaMalloc synchronizes the device — so the simulator models the
// reuse: a Released buffer parks on the device's free list and a later
// AllocPooled of a size that fits takes it over instead of allocating.
//
// Pooled capacity stays charged against the device's memory limit (the
// allocation is still resident, as on hardware). When a fresh allocation
// would exceed the limit, the pool is reclaimed — actually freed —
// before the request fails, so pooling never turns a previously
// satisfiable workload into an OOM.

// AllocPooled returns a buffer of at least size bytes, preferring to
// recycle a previously Released allocation (best fit by capacity). The
// returned buffer reports Size() == size regardless of the underlying
// capacity, so transfer accounting is identical to a fresh Alloc. On a
// pool miss it allocates; if device memory is exhausted it reclaims the
// pool and retries once.
func (d *Device) AllocPooled(name string, size int64) (*Buffer, error) {
	if size < 0 {
		return nil, fmt.Errorf("gpusim: negative allocation %d for %q", size, name)
	}
	d.mu.Lock()
	best := -1
	for i, b := range d.pool {
		if b.capacity >= size && (best < 0 || b.capacity < d.pool[best].capacity) {
			best = i
		}
	}
	if best >= 0 {
		b := d.pool[best]
		d.pool = append(d.pool[:best], d.pool[best+1:]...)
		m := d.metrics()
		m.poolHits.Inc()
		m.poolBytes.Add(-b.capacity)
		d.mu.Unlock()
		b.name = name
		b.size = size
		b.freed = false
		return b, nil
	}
	d.metrics().poolMisses.Inc()
	d.mu.Unlock()
	b, err := d.Alloc(name, size)
	if err == nil {
		return b, nil
	}
	// Out of memory with buffers parked in the pool: reclaim and retry.
	if d.reclaimPool() == 0 {
		return nil, err
	}
	b, err = d.Alloc(name, size)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Release returns the buffer to its device's pool for a later
// AllocPooled to recycle. Buffers obtained from plain Alloc may also be
// Released. Releasing a freed (or nil) buffer is a no-op, like Free.
func (b *Buffer) Release() {
	if b == nil || b.freed {
		return
	}
	b.freed = true // rejects further transfers until re-leased
	d := b.dev
	d.mu.Lock()
	d.pool = append(d.pool, b)
	d.metrics().poolBytes.Add(b.capacity)
	d.mu.Unlock()
}

// reclaimPool frees every pooled buffer, returning their capacity to the
// device, and reports the number of bytes reclaimed.
func (d *Device) reclaimPool() int64 {
	d.mu.Lock()
	var freed int64
	for _, b := range d.pool {
		freed += b.capacity
	}
	if freed > 0 {
		m := d.metrics()
		m.allocBytes.Add(-freed)
		m.poolBytes.Add(-freed)
		m.poolReclaims.Inc()
	}
	d.pool = nil
	d.mu.Unlock()
	return freed
}

// DrainPool frees every buffer parked in the device pool, returning
// their memory. Call between workloads whose buffer shapes differ.
func (d *Device) DrainPool() { d.reclaimPool() }
