// Package bufpool recycles the buffers a run fills and drops whole. A
// batch run draws lustre file images and decoded point slabs and gives
// them back at teardown, once nothing can reach them; the serve path
// draws a job's encoded input file, each phase snapshot's encoding and
// each request body and gives them back as soon as they are written or
// decoded; the cell-rank sort's scratch goes back before its histogram
// is returned. The next user in the process reuses the memory
// instead of allocating and zeroing it again (§5.1.1: moving points costs
// more than clustering them). It is the process's one recycling
// mechanism.
//
// A Pool is a free list per power-of-two size class. Get(n) serves n
// from the class of the next power of two at or above n's bytes and
// allocates a miss at that full class size, so the buffer it returns
// later serves any request of its class; Put files a buffer of any
// capacity under the largest class it covers. Every Pool in the process
// shares one bound on the bytes kept idle, MaxIdleBytes: a Put that would
// exceed it drops the buffer for the garbage collector instead.
//
// Recycled memory is dirty. Get returns whatever the buffer's last owner
// left in it, so a caller must write every element before reading it, and
// treat spare capacity the same way. Put only a buffer that nothing else
// references any more, and only once.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/geom"
)

// MaxIdleBytes bounds the bytes all pools together hold idle. It covers
// the largest batch shape's working set (SDSS 150 k points over 16
// leaves rounds to about 32 MiB of file images and slabs) twice, for two
// runs in flight at once. The serve path's users are smaller and short
// lived: a 32 000-point job's input file, snapshots and request body
// round to a few MiB, and two such jobs in flight beside the
// interactive tenants' peak at about 13 MiB idle. Over 10 s of each
// benchmark workload on 2 cores no Put was dropped at this bound, and
// Get found an idle buffer for 92 % of serve_jobs' requests and 99 %
// of the others'.
const MaxIdleBytes = 64 << 20

const (
	// minClass is the smallest class, 2^minClass bytes: smaller requests
	// round up to it, so a class list never holds more than
	// MaxIdleBytes>>minClass entries.
	minClass = 10
	// maxClass is the largest class that can ever be kept idle. A larger
	// request is allocated at its exact size and dropped on Put.
	maxClass = 26
)

// idle is the byte count every pool's free lists hold together.
var idle atomic.Int64

// Pool is a bounded, size-classed free list of []T. T must hold no
// pointers: idle buffers are not cleared, so a pointer in one would keep
// its target alive. The zero Pool is ready to use.
type Pool[T any] struct {
	mu   sync.Mutex
	free [maxClass + 1][][]T
}

// Bytes holds lustre file images and View's private read buffers,
// WriteDataset's staging chunk, the job journal's input files, the
// checkpoint store's snapshot encodings and the HTTP edge's request
// bodies.
var Bytes Pool[byte]

// Points holds decoded point slabs: partitioner shards and the cluster
// phase's partition slabs.
var Points Pool[geom.Point]

// Words holds grid.RankedHistogramOf's sort scratch: the packed
// cell-and-index words and the radix sort's second buffer.
var Words Pool[uint64]

// Get returns a slice of length n and capacity at least n, recycled when
// its class has an idle buffer. Its contents are arbitrary.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	size := elemSize[T]()
	class := max(minClass, bits.Len(uint(n*size-1)))
	if class > maxClass {
		return make([]T, n)
	}
	p.mu.Lock()
	list := p.free[class]
	if k := len(list); k > 0 {
		s := list[k-1]
		list[k-1] = nil
		p.free[class] = list[:k-1]
		p.mu.Unlock()
		idle.Add(-int64(cap(s) * size))
		return s[:n]
	}
	p.mu.Unlock()
	return make([]T, n, (1<<class+size-1)/size)
}

// Put returns s's backing array to the pool; the caller must not touch
// s, or any slice of its array, afterwards. A buffer too small to serve
// the smallest class, too large for the largest, or past MaxIdleBytes is
// left to the garbage collector.
func (p *Pool[T]) Put(s []T) {
	size := elemSize[T]()
	bytes := cap(s) * size
	if bytes < 1<<minClass {
		return
	}
	class := bits.Len(uint(bytes)) - 1
	if class > maxClass {
		return
	}
	if idle.Add(int64(bytes)) > MaxIdleBytes {
		idle.Add(-int64(bytes))
		return
	}
	p.mu.Lock()
	p.free[class] = append(p.free[class], s[:0])
	p.mu.Unlock()
}

func elemSize[T any]() int {
	var zero T
	return int(unsafe.Sizeof(zero))
}
