package stream

import "math/bits"

// pool hands out the engine's per-cell buffers — a sub-box's slots, a
// pair's edges — and takes them back when a cell is freed or a buffer
// outgrown. Capacities are powers of two from poolMin up, one free list
// per capacity, so a hotspot drifting across the grid reuses the buffers
// of the cells it left and a steady-state tick allocates none.
type pool[T any] struct {
	free [28][][]T // free[k] holds buffers of capacity poolMin<<k
}

const poolMin = 4

// push appends v, moving buf to the next capacity when it is full.
func (p *pool[T]) push(buf []T, v T) []T {
	if len(buf) == cap(buf) {
		k := 0
		if cap(buf) > 0 {
			k = p.class(buf) + 1
		}
		var next []T
		if n := len(p.free[k]); n > 0 {
			next, p.free[k] = p.free[k][n-1], p.free[k][:n-1]
		} else {
			next = make([]T, 0, poolMin<<k)
		}
		next = append(next, buf...)
		p.put(buf)
		buf = next
	}
	return append(buf, v)
}

// put returns buf to its free list (a nil buffer has none).
func (p *pool[T]) put(buf []T) {
	if cap(buf) > 0 {
		k := p.class(buf)
		p.free[k] = append(p.free[k], buf[:0])
	}
}

func (p *pool[T]) class(buf []T) int { return bits.TrailingZeros(uint(cap(buf) / poolMin)) }
